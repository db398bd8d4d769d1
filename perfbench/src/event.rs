//! `event-churn`: the sharded event engine under the conformance schedule
//! `quiet:10,kill:0.5,churn:0.01xP`, with broadcast and aggregation riding
//! every period through `pss_protocols::run_under_workload`. A closed
//! loop: one period at a time.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use pss_core::{NodeId, PeerSamplingNode};
use pss_protocols::{run_under_workload, AppConfig, AppReport};
use pss_sim::workload::{PeriodRecord, Workload};
use pss_sim::{
    scenario, CycleReport, EventConfig, LatencyModel, Partition, ShardedEventSimulation,
    WorkloadTarget,
};

use crate::common::{self, Clock, Digest, Registry, RoundCost, C};
use crate::layers::{self, Captured};
use crate::report::Report;
use crate::stats;
use crate::Size;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Initial population.
    pub n: usize,
    /// Shards (part of the result contract).
    pub shards: usize,
    /// Worker threads.
    pub workers: usize,
    /// Periods run during set-up before the schedule starts.
    pub warm: u64,
    /// The membership schedule of one round.
    pub schedule: String,
    /// Timed budget: rounds repeat until it is spent.
    pub seconds: f64,
    /// Rounds run whatever the budget.
    pub min_rounds: usize,
}

/// The engine's timing model: 1000-tick periods with ±200 jitter, 10–200
/// tick latencies and 1% message loss, as in the workload experiments.
const EVENT_CONFIG: EventConfig = EventConfig {
    period: 1000,
    jitter: 200,
    latency: LatencyModel::Uniform { min: 10, max: 200 },
    loss_probability: 0.01,
};

impl Params {
    /// The parameters at a size, for a timed budget of `seconds`.
    pub fn at(size: Size, seconds: f64) -> Self {
        let (n, churn, min_rounds) = match size {
            Size::Full => (20_000, 20, 2),
            Size::Smoke => (2_000, 10, 1),
        };
        Params {
            n,
            shards: 2,
            // One worker: the event engine runs ~200 short pool phases per
            // period (two per 10-tick lookahead window), and with two
            // workers each phase pays a park/wake round trip. On a 2-core
            // VM that made periods bimodal (69 or 105 ms pinned, 110 to
            // 360 ms unpinned, against 85 ms with one worker), too unsteady
            // to gate on. The pool is measured on `cycle-steady`.
            workers: 1,
            warm: 10,
            schedule: format!("quiet:10,kill:0.5,churn:0.01x{churn}"),
            seconds,
            min_rounds,
        }
    }

    /// The metadata line fields.
    pub fn describe(&self) -> String {
        format!(
            "\"N\": {}, \"c\": {C}, \"policy\": \"{}\", \"shards\": {}, \"workers\": {}, \
             \"schedule\": \"{}\", \"warm_periods\": {}, \"period\": \"{} ticks, jitter {}, \
             latency 10-200, loss {}\"",
            self.n,
            pss_core::PolicyTriple::newscast(),
            self.shards,
            self.workers,
            self.schedule,
            self.warm,
            EVENT_CONFIG.period,
            EVENT_CONFIG.jitter,
            EVENT_CONFIG.loss_probability
        )
    }
}

/// Rumour pushes per informed node per period. At fanout 4 the rumour
/// reaches 99% of the nodes within the ten quiet periods; at the default
/// fanout 2 it cannot before the kill at period 11, and after it the
/// 1%-per-period joiners hold the informed share near 98%, so
/// `rounds_to_99` would never be defined.
const APP_FANOUT: usize = 4;

type Sim = ShardedEventSimulation<PeerSamplingNode>;

/// Builds and warms one overlay; returns it with the set-up time.
fn setup(p: &Params, seed: u64) -> (Sim, Duration) {
    let started = Instant::now();
    let mut sim = scenario::event_random_overlay_sharded(
        &common::newscast(),
        EVENT_CONFIG,
        p.n,
        seed,
        p.shards,
    )
    .expect("the event configuration is valid for 2 shards");
    sim.set_workers(p.workers);
    for _ in 0..p.warm {
        sim.run_cycle();
    }
    (sim, started.elapsed())
}

/// The benchmark's span recorder around the engine: a `WorkloadTarget`
/// that forwards every call and times it. A period runs from the first
/// call of its step (ops, then `run_period`) to the first call of the
/// next, so it covers ops, gossip, snapshot, health measurement and the
/// application round.
struct Probe<'a> {
    sim: &'a mut Sim,
    boundary: Option<Instant>,
    in_period: Cell<bool>,
    period_ms: Vec<f64>,
    op_us: Vec<f64>,
    collect_ms: RefCell<Vec<f64>>,
    node_periods: u64,
    exchanges: CycleReport,
}

impl<'a> Probe<'a> {
    fn new(sim: &'a mut Sim) -> Self {
        Probe {
            sim,
            boundary: None,
            in_period: Cell::new(false),
            period_ms: Vec::new(),
            op_us: Vec::new(),
            collect_ms: RefCell::new(Vec::new()),
            node_periods: 0,
            exchanges: CycleReport::default(),
        }
    }

    /// Opens a period on its first call, closing the previous one.
    fn mark(&mut self) {
        if !self.in_period.replace(true) {
            self.close();
            self.boundary = Some(Instant::now());
        }
    }

    /// Closes the open period, if any.
    fn close(&mut self) {
        if let Some(started) = self.boundary.take() {
            self.period_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn time_op<R>(&mut self, op: impl FnOnce(&mut Sim) -> R) -> R {
        self.mark();
        let started = Instant::now();
        let out = op(self.sim);
        self.op_us.push(started.elapsed().as_secs_f64() * 1e6);
        out
    }
}

impl WorkloadTarget for Probe<'_> {
    fn kill(&mut self, id: NodeId) -> bool {
        self.time_op(|sim| WorkloadTarget::kill(sim, id))
    }

    fn join(&mut self, id: NodeId, contacts: &[NodeId]) {
        self.time_op(|sim| WorkloadTarget::join(sim, id, contacts));
    }

    fn set_partition(&mut self, partition: Option<Partition>) {
        self.mark();
        WorkloadTarget::set_partition(self.sim, partition);
    }

    fn run_period(&mut self) {
        self.mark();
        self.node_periods += self.sim.alive_count() as u64;
        self.exchanges += self.sim.run_cycle();
    }

    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>) {
        let started = Instant::now();
        WorkloadTarget::collect_rows(self.sim, rows);
        self.collect_ms
            .borrow_mut()
            .push(started.elapsed().as_secs_f64() * 1e3);
        // The runner's health measurement and the app round follow; the
        // next step's first call ends the period.
        self.in_period.set(false);
    }
}

/// One timed schedule run.
struct Round {
    period_ms: Vec<f64>,
    op_us: Vec<f64>,
    collect_ms: Vec<f64>,
    exchanges: CycleReport,
    cost: RoundCost,
    records: Vec<PeriodRecord>,
    app: AppReport,
    events: u64,
    ops: usize,
}

fn run_schedule(sim: &mut Sim, p: &Params, seed: u64) -> Round {
    let compiled = Workload::parse(&p.schedule, seed)
        .expect("the schedule parses")
        .compile(p.n);
    let app = AppConfig {
        fanout: APP_FANOUT,
        seed: seed ^ 0x0a99_5eed,
        ..AppConfig::default()
    };
    let events_before = sim.events_processed();
    let clock = Clock::start();
    let mut probe = Probe::new(sim);
    let (records, app_report) = run_under_workload(&mut probe, &compiled, C, &app);
    probe.close();
    let cost = clock.finish(probe.node_periods, probe.exchanges.completed);
    let Probe {
        period_ms,
        op_us,
        collect_ms,
        exchanges,
        ..
    } = probe;
    Round {
        ops: compiled.steps.iter().map(|s| s.ops.len()).sum(),
        period_ms,
        op_us,
        collect_ms: collect_ms.into_inner(),
        exchanges,
        cost,
        records,
        app: app_report,
        events: sim.events_processed() - events_before,
    }
}

/// The end-of-run checks: largest component ≥ 95% of the live nodes, at
/// most 10% dead links, the rumour at ≥ 90% of the survivors.
fn gate_round(r: &Round, label: &str, report: &mut Report) {
    let last = r.records.last().expect("the schedule has periods");
    report.gate(
        format!("{label}: largest component >= 95% of live"),
        last.component_fraction() >= 0.95,
        format!("{:.4}", last.component_fraction()),
    );
    report.gate(
        format!("{label}: dead links <= 10%"),
        last.dead_link_fraction() <= 0.10,
        format!("{:.4}", last.dead_link_fraction()),
    );
    report.gate(
        format!("{label}: rumour at >= 90% of survivors"),
        r.app.delivery_ratio() >= 0.90,
        format!("{:.4}", r.app.delivery_ratio()),
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params, seed: u64, hz: u64) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(p.seconds);
    let mut setups = Vec::new();
    let mut period_ms = Vec::new();
    let (mut sds, mut dead, mut rounds99) = (Vec::new(), Vec::new(), Vec::new());
    let mut costs: Vec<RoundCost> = Vec::new();
    let mut wall = Duration::ZERO;
    let mut exchanges = CycleReport::default();
    let mut round = 0;
    while round < p.min_rounds || wall < budget {
        let (mut sim, setup) = setup(p, common::round_seed(seed, round));
        setups.push(setup.as_secs_f64());
        let r = run_schedule(&mut sim, p, common::round_seed(seed, round));
        drop(sim);
        gate_round(&r, &format!("round {round}"), &mut report);
        let last = r.records.last().expect("the schedule has periods");
        sds.push(last.in_degree_sd);
        dead.push(last.dead_link_fraction());
        rounds99.extend(r.app.rounds_to_99().map(|x| x as f64));
        period_ms.extend(r.period_ms);
        costs.push(r.cost);
        wall += r.cost.wall;
        exchanges += r.exchanges;
        round += 1;
    }
    report.operations = period_ms.len() as u64;
    report.sampled(
        "setup_s",
        stats::median(&mut setups).expect("rounds"),
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
        stats::median(&mut sds).expect("rounds"),
        "links",
        sds.len(),
    );
    report.sampled(
        "dead_link_frac",
        stats::median(&mut dead).expect("rounds"),
        "ratio",
        dead.len(),
    );
    match stats::median(&mut rounds99) {
        Some(median) => report.sampled("rounds_to_99", median, "periods", rounds99.len()),
        None => report.value("rounds_to_99", 0.0, "periods", "99% never reached"),
    }
    common::peak_rss(&mut report);
    report
}

/// The traced run: per-layer metrics, the accounting report and the
/// telemetry identity gate.
pub fn run_traced(p: &Params, seed: u64) -> Report {
    let mut report = Report::default();
    let seed = common::round_seed(seed, 0);

    pss_telemetry::set_enabled(false);
    let (mut sim, _) = setup(p, seed);
    let plain = run_schedule(&mut sim, p, seed);
    let plain_digest = Digest::of(|f| sim.for_each_live_view(f));
    drop(sim);

    pss_telemetry::set_enabled(true);
    let (mut sim, _) = setup(p, seed);
    common::begin_traced_phase();
    let traced = run_schedule(&mut sim, p, seed);
    let tele = Registry::read();
    pss_telemetry::set_enabled(false);
    let traced_digest = Digest::of(|f| sim.for_each_live_view(f));
    report.gate(
        "traced and untraced runs end in the same overlay",
        plain_digest == traced_digest && plain.records == traced.records,
        format!("{:016x} vs {:016x}", plain_digest.0, traced_digest.0),
    );
    gate_round(&traced, "traced", &mut report);
    report.operations = (plain.period_ms.len() + traced.period_ms.len()) as u64;

    let periods = traced.period_ms.len() as f64;
    let period_ms = stats::median(&mut traced.period_ms.clone()).expect("periods");
    let plain_ms = stats::median(&mut plain.period_ms.clone()).expect("periods");
    report.value(
        "tracing_overhead_frac",
        period_ms / plain_ms - 1.0,
        "ratio",
        format!("median traced / untraced period - 1, {periods} periods each"),
    );

    // Health measurement, timed from outside on the final rows.
    let rows = common::rows_of(|f| sim.for_each_live_view(f));
    let measure = layers::health(&rows, sim.node_count(), |id| sim.is_alive(id), &mut report);

    let captured = Captured::from_live(&common::newscast(), sim.alive_count(), |f| {
        sim.for_each_live_view(f)
    });
    drop(sim);
    let exchanges_per_period = traced.exchanges.completed as f64 / periods;
    report.value(
        "node.exchanges_per_period",
        exchanges_per_period,
        "count",
        format!("over {periods} periods"),
    );
    let costs = layers::measure(&captured, &mut report);
    common::engine_layers(&tele, "event", p.shards, periods, &mut report);
    report.value(
        "event.events_per_period",
        traced.events as f64 / periods,
        "count",
        format!("events_processed over {periods} periods"),
    );
    report.value(
        "workload.ops_per_period",
        traced.ops as f64 / periods,
        "count",
        format!("{} ops", traced.ops),
    );
    let op_us = stats::median(&mut traced.op_us.clone()).unwrap_or(0.0);
    report.sampled("workload.op_us", op_us, "us", traced.op_us.len());
    let collect = stats::median(&mut traced.collect_ms.clone()).expect("periods");
    report.sampled(
        "snapshot.collect_rows_ms",
        collect,
        "ms",
        traced.collect_ms.len(),
    );
    let app = tele.hist("pss_app_round_ns", &[]);
    let app_ms = app.mean() / 1e6;
    report.sampled("app.round_ms", app_ms, "ms", app.total() as usize);

    // Accounting: gossip work over the workers plus the runner's
    // sequential steps, against the measured period.
    let predicted_ms = exchanges_per_period * costs.exchange_ns / p.workers as f64 / 1e6
        + collect
        + measure
        + app_ms
        + traced.ops as f64 / periods * op_us / 1e3;
    report.value(
        "accounting.residual_frac",
        1.0 - predicted_ms / period_ms,
        "ratio",
        format!(
            "1 - (exchange work / {} workers + collect + measure + app + ops = {predicted_ms:.3} ms) \
             / traced period p50 {period_ms:.3} ms",
            p.workers
        ),
    );
    report.value(
        "accounting.absorb_share",
        2.0 * exchanges_per_period * costs.absorb_ns / p.workers as f64 / 1e6 / period_ms,
        "ratio",
        format!(
            "2 x exchanges/period x view.absorb_ns / {} workers / period p50",
            p.workers
        ),
    );
    report
}
