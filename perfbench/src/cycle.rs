//! `cycle-steady`: the sharded cycle engine in steady state, timed as a
//! closed loop (each cycle starts when the last one ends).

use std::time::{Duration, Instant};

use pss_core::PeerSamplingNode;
use pss_sim::workload::measure_rows;
use pss_sim::{scenario, CycleReport, ShardedSimulation};

use crate::common::{self, Clock, Digest, Registry, RoundCost, C};
use crate::layers::{self, Captured};
use crate::report::Report;
use crate::stats;
use crate::Size;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Population.
    pub n: usize,
    /// Shards (part of the result contract).
    pub shards: usize,
    /// Worker threads.
    pub workers: usize,
    /// Cycles run during set-up before timing starts.
    pub warm: u64,
    /// Set-ups per run; the timed budget is split evenly among them.
    pub rounds: usize,
}

impl Params {
    /// The parameters at a size.
    pub fn at(size: Size) -> Self {
        match size {
            Size::Full => Params {
                n: 100_000,
                shards: 2,
                workers: 2,
                warm: 10,
                rounds: 5,
            },
            Size::Smoke => Params {
                n: 3_000,
                shards: 2,
                workers: 2,
                warm: 10,
                rounds: 2,
            },
        }
    }

    /// The metadata line fields.
    pub fn describe(&self) -> String {
        format!(
            "\"N\": {}, \"c\": {C}, \"policy\": \"{}\", \"shards\": {}, \"workers\": {}, \
             \"schedule\": \"steady after {} warm cycles\", \"period\": \"closed loop\", \
             \"rounds\": {}",
            self.n,
            pss_core::PolicyTriple::newscast(),
            self.shards,
            self.workers,
            self.warm,
            self.rounds
        )
    }
}

type Sim = ShardedSimulation<PeerSamplingNode>;

/// Builds and warms one overlay; returns it with the set-up time.
fn setup(p: &Params, seed: u64) -> (Sim, Duration) {
    let started = Instant::now();
    let mut sim = scenario::random_overlay_sharded(&common::newscast(), p.n, seed, p.shards);
    sim.set_workers(p.workers);
    for _ in 0..p.warm {
        sim.run_cycle();
    }
    (sim, started.elapsed())
}

/// When a timed phase stops.
#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    Cycles(usize),
}

/// One timed phase.
struct Timed {
    period_ms: Vec<f64>,
    exchanges: CycleReport,
    cost: RoundCost,
}

fn run_timed(sim: &mut Sim, stop: Stop) -> Timed {
    let mut period_ms = Vec::new();
    let mut exchanges = CycleReport::default();
    let mut node_periods = 0;
    let clock = Clock::start();
    let started = Instant::now();
    loop {
        match stop {
            Stop::After(budget) if started.elapsed() >= budget && !period_ms.is_empty() => break,
            Stop::Cycles(k) if period_ms.len() >= k => break,
            _ => {}
        }
        node_periods += sim.alive_count() as u64;
        let cycle_started = Instant::now();
        exchanges += sim.run_cycle();
        period_ms.push(cycle_started.elapsed().as_secs_f64() * 1e3);
    }
    Timed {
        cost: clock.finish(node_periods, exchanges.completed),
        period_ms,
        exchanges,
    }
}

/// The end-of-run overlay checks: ≥ 99% full views, in-degree mean c ± 0.5.
/// Returns the in-degree standard deviation.
fn gate_overlay(sim: &Sim, label: &str, report: &mut Report) -> f64 {
    let rows = common::rows_of(|f| sim.for_each_live_view(f));
    let record = measure_rows(sim.node_count(), &rows, |id| sim.is_alive(id), C);
    report.gate(
        format!("{label}: full views >= 99%"),
        record.full_fraction() >= 0.99,
        format!("{:.4}", record.full_fraction()),
    );
    report.gate(
        format!("{label}: in-degree mean within c +- 0.5"),
        (record.in_degree_mean - C as f64).abs() <= 0.5,
        format!("{:.3}", record.in_degree_mean),
    );
    record.in_degree_sd
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params, seed: u64, seconds: f64, hz: u64) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds / p.rounds as f64);
    let mut setups = Vec::new();
    let mut sds = Vec::new();
    let mut costs = Vec::new();
    let mut period_ms = Vec::new();
    let mut exchanges = CycleReport::default();
    for round in 0..p.rounds {
        let (mut sim, setup) = setup(p, common::round_seed(seed, round));
        setups.push(setup.as_secs_f64());
        let t = run_timed(&mut sim, Stop::After(budget));
        sds.push(gate_overlay(&sim, &format!("round {round}"), &mut report));
        costs.push(t.cost);
        period_ms.extend(t.period_ms);
        exchanges += t.exchanges;
    }
    report.operations = period_ms.len() as u64;
    report.sampled(
        "setup_s",
        stats::median(&mut setups).expect("rounds >= 1"),
        "s",
        setups.len(),
    );
    common::throughput(&mut report, &costs, hz);
    report.median_and_tail("period_ms", &period_ms, "ms");
    report.value(
        "exchange_fail_ratio",
        common::sim_fail_ratio(&exchanges),
        "ratio",
        format!("over {} initiated", exchanges.initiated()),
    );
    report.sampled(
        "in_degree_sd",
        stats::median(&mut sds).expect("rounds >= 1"),
        "links",
        sds.len(),
    );
    common::peak_rss(&mut report);
    report
}

/// The traced run: per-layer metrics, the accounting report and the
/// telemetry identity gate.
pub fn run_traced(p: &Params, seed: u64, seconds: f64, size: Size) -> Report {
    let mut report = Report::default();
    let seed = common::round_seed(seed, 0);

    // Untraced reference: same seed, time-bounded.
    pss_telemetry::set_enabled(false);
    let (mut sim, _) = setup(p, seed);
    let plain = run_timed(
        &mut sim,
        Stop::After(Duration::from_secs_f64(seconds / 3.0)),
    );
    let plain_digest = Digest::of(|f| sim.for_each_live_view(f));
    drop(sim);

    // Traced: same seed, same cycle count.
    pss_telemetry::set_enabled(true);
    let (mut sim, _) = setup(p, seed);
    common::begin_traced_phase();
    let traced = run_timed(&mut sim, Stop::Cycles(plain.period_ms.len()));
    let tele = Registry::read();
    pss_telemetry::set_enabled(false);
    let traced_digest = Digest::of(|f| sim.for_each_live_view(f));
    report.gate(
        "traced and untraced runs end in the same overlay",
        plain_digest == traced_digest,
        format!("{:016x} vs {:016x}", plain_digest.0, traced_digest.0),
    );
    gate_overlay(&sim, "traced", &mut report);
    report.operations = (plain.period_ms.len() + traced.period_ms.len()) as u64;

    let cycles = traced.period_ms.len() as f64;
    let period_ms = stats::median(&mut traced.period_ms.clone()).expect("cycles >= 1");
    let plain_ms = stats::median(&mut plain.period_ms.clone()).expect("cycles >= 1");
    report.value(
        "tracing_overhead_frac",
        period_ms / plain_ms - 1.0,
        "ratio",
        format!("median traced / untraced cycle - 1, {cycles} cycles each"),
    );

    // Layers from outside, on the traced run's final views.
    // Snapshot and health are not on this workload's loop; they are timed
    // on its final overlay, as the codec and transport are.
    let rows = layers::snapshot(&sim, &mut report);
    layers::health(&rows, sim.node_count(), |id| sim.is_alive(id), &mut report);
    let captured = Captured::from_live(&common::newscast(), sim.alive_count(), |f| {
        sim.for_each_live_view(f)
    });
    drop(sim);
    let exchanges_per_period = traced.exchanges.completed as f64 / cycles;
    report.value(
        "node.exchanges_per_period",
        exchanges_per_period,
        "count",
        format!("over {cycles} cycles"),
    );
    let costs = layers::measure(&captured, &mut report);
    common::engine_layers(&tele, "cycle", p.shards, cycles, &mut report);

    // Accounting: exchange work spread over the workers against the
    // measured cycle.
    let workers = p.workers as f64;
    let predicted_ms = exchanges_per_period * costs.exchange_ns / workers / 1e6;
    report.value(
        "accounting.residual_frac",
        1.0 - predicted_ms / period_ms,
        "ratio",
        format!(
            "1 - (exchanges/cycle x node.exchange_ns / {workers} workers = {predicted_ms:.3} ms) \
             / traced cycle p50 {period_ms:.3} ms"
        ),
    );
    // A pushpull exchange absorbs twice: the request, then the reply.
    report.value(
        "accounting.absorb_share",
        2.0 * exchanges_per_period * costs.absorb_ns / workers / 1e6 / period_ms,
        "ratio",
        format!("2 x exchanges/cycle x view.absorb_ns / {workers} workers / cycle p50"),
    );
    absorb_share_single_shard(size, &mut report);
    report
}

/// The README's performance model at N = 10⁴: one shard, one worker, so
/// wall time is CPU time. Adds `accounting.absorb_share_n1e4`.
fn absorb_share_single_shard(size: Size, report: &mut Report) {
    let p = Params {
        n: match size {
            Size::Full => 10_000,
            Size::Smoke => 2_000,
        },
        shards: 1,
        workers: 1,
        warm: 20,
        rounds: 1,
    };
    let (mut sim, _) = setup(&p, 0x1e4);
    let mut t = run_timed(&mut sim, Stop::Cycles(20));
    let captured = Captured::from_live(&common::newscast(), sim.alive_count(), |f| {
        sim.for_each_live_view(f)
    });
    drop(sim);
    let absorb_ns = layers::view_algebra(&captured, &mut Report::default());
    let period_ms = stats::median(&mut t.period_ms).expect("cycles");
    let per_cycle = t.exchanges.completed as f64 / t.period_ms.len() as f64;
    report.value(
        "accounting.absorb_share_n1e4",
        2.0 * per_cycle * absorb_ns / 1e6 / period_ms,
        "ratio",
        format!(
            "N = {}, 1 shard, 1 worker: 2 x {per_cycle:.0} exchanges x {absorb_ns:.0} ns \
             / cycle p50 {period_ms:.3} ms",
            p.n
        ),
    );
}
