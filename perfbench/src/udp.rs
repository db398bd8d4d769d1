//! `udp-open`: a live loopback cluster (`pss_net::cluster::run`), an open
//! loop: every node's timer fires on schedule whatever the backlog, so
//! the offered load is fixed at N / period exchanges per second.

use std::time::Duration;

use pss_net::cluster::{self, ClusterConfig, ClusterReport};
use pss_net::RuntimeStats;
use pss_sim::scenario;

use crate::common::{self, Clock, Registry, C};
use crate::host::CpuTicks;
use crate::layers::{self, Captured};
use crate::report::Report;
use crate::stats;
use crate::Size;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Nodes, split across the runtimes.
    pub n: usize,
    /// Runtime threads, one UDP socket each.
    pub runtimes: usize,
    /// Gossip period, milliseconds.
    pub period_ms: u64,
    /// Timer jitter, milliseconds.
    pub jitter_ms: u64,
    /// Periods per round.
    pub periods: u64,
    /// Cluster runs per benchmark run (each one a set-up).
    pub rounds: usize,
}

impl Params {
    /// The parameters at a size, for a timed budget of `seconds` split
    /// evenly among the rounds.
    pub fn at(size: Size, seconds: f64) -> Self {
        let (n, rounds) = match size {
            Size::Full => (2_000, 3),
            Size::Smoke => (200, 2),
        };
        let period_ms = 100;
        let periods = ((seconds * 1e3 / rounds as f64 / period_ms as f64).round() as u64).max(10);
        Params {
            n,
            runtimes: 2,
            period_ms,
            jitter_ms: 20,
            periods,
            rounds,
        }
    }

    /// The metadata line fields.
    pub fn describe(&self) -> String {
        format!(
            "\"N\": {}, \"c\": {C}, \"policy\": \"{}\", \"shards\": {}, \"workers\": {}, \
             \"schedule\": \"none\", \"period\": \"{} ms, jitter {} ms, open loop\", \
             \"periods_per_round\": {}, \"rounds\": {}",
            self.n,
            pss_core::PolicyTriple::newscast(),
            self.runtimes,
            self.runtimes,
            self.period_ms,
            self.jitter_ms,
            self.periods,
            self.rounds
        )
    }

    fn cluster(&self, seed: u64) -> ClusterConfig {
        ClusterConfig {
            nodes: self.n,
            runtimes: self.runtimes,
            period_ms: self.period_ms,
            jitter_ms: self.jitter_ms,
            periods: self.periods,
            seed,
            ..ClusterConfig::small(common::newscast())
        }
    }
}

/// One cluster run with its host-side measurements.
struct Round {
    report: ClusterReport,
    /// Bind and bootstrap: the call's wall time before the driven phase.
    setup: Duration,
    cpu: CpuTicks,
}

fn run_round(p: &Params, seed: u64) -> Round {
    let config = p.cluster(seed);
    let clock = Clock::start();
    let report = cluster::run(&config).expect("loopback cluster binds and runs");
    let (total, cpu) = clock.stop();
    Round {
        setup: total.saturating_sub(report.elapsed),
        report,
        cpu,
    }
}

/// Zero decode and send failures, ≥ 99% full views at the end.
fn gate_round(r: &ClusterReport, label: &str, report: &mut Report) {
    report.gate(
        format!("{label}: zero decode failures"),
        r.stats.decode_failures() == 0,
        format!("{}", r.stats.decode_failures()),
    );
    report.gate(
        format!("{label}: zero send failures"),
        r.stats.send_failures == 0,
        format!("{}", r.stats.send_failures),
    );
    let full = r.periods.last().map_or(0.0, |s| s.full_fraction());
    report.gate(
        format!("{label}: full views >= 99%"),
        full >= 0.99,
        format!("{full:.4}"),
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params, seed: u64, hz: u64) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut lag_ms = Vec::new();
    let (mut sds, mut dead) = (Vec::new(), Vec::new());
    let mut stats_sum = RuntimeStats::default();
    let mut costs = Vec::new();
    for round in 0..p.rounds {
        let r = run_round(p, common::round_seed(seed, round));
        gate_round(&r.report, &format!("round {round}"), &mut report);
        setups.push(r.setup.as_secs_f64());
        lag_ms.extend(
            r.report
                .periods
                .iter()
                .map(|s| s.wall_ms as f64 - (s.period * p.period_ms) as f64),
        );
        let last = r.report.records.last().expect("periods >= 1");
        sds.push(last.in_degree_sd);
        dead.push(last.dead_link_fraction());
        stats_sum.merge(&r.report.stats);
        costs.push(common::RoundCost {
            node_periods: r.report.stats.timers_fired,
            exchanges: r.report.stats.exchanges_completed,
            wall: r.report.elapsed,
            cpu: r.cpu,
        });
    }
    report.operations = lag_ms.len() as u64;
    report.sampled(
        "setup_s",
        stats::median(&mut setups).expect("rounds"),
        "s",
        setups.len(),
    );
    // Node-periods here are timer fires: the rate the runtime kept up
    // with, against an offered N / period.
    common::throughput(&mut report, &costs, hz);
    report.median_and_tail("lag_ms", &lag_ms, "ms");
    report.value(
        "exchange_fail_ratio",
        common::runtime_fail_ratio(&stats_sum),
        "ratio",
        format!(
            "timeouts + send failures over {} timer fires",
            stats_sum.timers_fired
        ),
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
    common::peak_rss(&mut report);
    report
}

/// The traced run: per-layer metrics and the accounting report. The live
/// cluster follows the wall clock, so there is no overlay identity to
/// check; tracing overhead is read on CPU per exchange.
pub fn run_traced(p: &Params, seed: u64, hz: u64) -> Report {
    let mut report = Report::default();
    let seed = common::round_seed(seed, 0);

    pss_telemetry::set_enabled(false);
    let plain = run_round(p, seed);
    gate_round(&plain.report, "untraced", &mut report);
    common::begin_traced_phase();
    let traced = run_round(p, seed);
    let tele = Registry::read();
    pss_telemetry::set_enabled(false);
    gate_round(&traced.report, "traced", &mut report);
    report.operations = 2 * p.periods;

    let s = &traced.report.stats;
    let cpu_per_exchange = |r: &Round| {
        r.cpu.total(hz).as_secs_f64() / r.report.stats.exchanges_completed.max(1) as f64
    };
    report.value(
        "tracing_overhead_frac",
        cpu_per_exchange(&traced) / cpu_per_exchange(&plain) - 1.0,
        "ratio",
        "CPU per exchange, traced / untraced - 1",
    );
    let periods = p.periods as f64;
    let exchanges = s.exchanges_completed as f64;
    let per_period = exchanges / periods;
    report.value(
        "node.exchanges_per_period",
        per_period,
        "count",
        format!("over {periods} periods"),
    );
    let frames_out = s.frames_out as f64 / exchanges;
    let frames_in = s.frames_in as f64 / exchanges;
    report.value(
        "runtime.frames_per_exchange",
        frames_out + frames_in,
        "count",
        format!("frames in + out over {exchanges} exchanges"),
    );
    let cpu = traced.cpu;
    report.value(
        "runtime.sys_cpu_frac",
        stats::ratio(cpu.sys as f64, (cpu.user + cpu.sys) as f64),
        "ratio",
        format!("{} sys of {} ticks", cpu.sys, cpu.user + cpu.sys),
    );
    report.value(
        "runtime.timeouts_per_kexchange",
        stats::ratio(1e3 * s.timeouts as f64, exchanges),
        "count",
        format!("{} timeouts", s.timeouts),
    );
    report.value(
        "udp.recv_ring_empty",
        s.recv_ring_empty as f64,
        "count",
        "receive-ring refills that allocated",
    );
    let decode = tele.hist("pss_net_decode_ns", &[]);
    report.sampled(
        "runtime.decode_ns_p50",
        common::hist_quantile(&decode, 0.5),
        "ns",
        decode.total() as usize,
    );
    let rtt = tele.hist("pss_net_rtt_ticks", &[]);
    report.sampled(
        "runtime.rtt_ticks_p50",
        common::hist_quantile(&rtt, 0.5),
        "ticks",
        rtt.total() as usize,
    );
    let (lag, n) = common::hist_tail(&tele.hist("pss_net_wheel_lag_ticks", &[]));
    report.sampled("runtime.wheel_lag_ticks_tail", lag, "ticks", n as usize);
    let (period_tail, n) = common::hist_tail(&tele.hist("pss_cluster_period_ms", &[]));
    report.sampled("cluster.period_ms_tail", period_tail, "ms", n as usize);

    // `cluster::run` returns no views: the layer timings run on a
    // converged overlay of the same N, c and policy from the cycle engine.
    let mut sim = scenario::random_overlay_sharded(&common::newscast(), p.n, seed, 1);
    sim.run_cycles(30);
    let captured = Captured::from_live(&common::newscast(), sim.alive_count(), |f| {
        sim.for_each_live_view(f)
    });
    drop(sim);
    let costs = layers::measure(&captured, &mut report);

    // Accounting on CPU: an open loop's wall period is fixed, so the
    // layers are summed against the CPU a period costs.
    let cpu_ms = cpu.total(hz).as_secs_f64() * 1e3 / periods;
    let predicted_ms = per_period
        * (costs.exchange_ns
            + frames_out * (costs.encode_ns + costs.send_ns)
            + frames_in * (costs.decode_ns + costs.recv_ns))
        / 1e6;
    report.value(
        "accounting.residual_frac",
        1.0 - predicted_ms / cpu_ms,
        "ratio",
        format!(
            "1 - (exchanges/period x (exchange + frames x codec + transport) = \
             {predicted_ms:.3} ms) / CPU per period {cpu_ms:.3} ms"
        ),
    );
    report.value(
        "accounting.absorb_share",
        2.0 * per_period * costs.absorb_ns / 1e6 / cpu_ms,
        "ratio",
        "2 x exchanges/period x view.absorb_ns / CPU per period",
    );
    report
}
