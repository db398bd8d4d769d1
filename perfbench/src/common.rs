//! Pieces shared by the workloads: failure ratios, overlay digests, the
//! telemetry registry reader and the host-clock bookkeeping of a timed
//! phase.

use std::time::{Duration, Instant};

use pss_core::{NodeId, PolicyTriple, ProtocolConfig, View};
use pss_net::RuntimeStats;
use pss_sim::CycleReport;
use pss_stats::Log2Histogram;

use crate::host::{self, CpuTicks};
use crate::report::Report;
use crate::stats;

/// View size of every workload.
pub const C: usize = 30;

/// The protocol every workload runs: newscast `(rand,head,pushpull)`.
pub fn newscast() -> ProtocolConfig {
    ProtocolConfig::new(PolicyTriple::newscast(), C).expect("c = 30 is a valid view size")
}

/// Per-round seed: distinct, deterministic streams from one `--seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    // SplitMix64 finaliser over (seed, round).
    let mut z = seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Failed over attempted exchanges of the simulators. The base is
/// `CycleReport::initiated()`: completed exchanges plus every way an
/// initiation can fail (dead peer, empty view, dropped message), so the
/// ratio is the share of initiations that did not complete.
pub fn sim_fail_ratio(r: &CycleReport) -> f64 {
    let failed = r.failed_dead_peer + r.empty_view + r.dropped_messages;
    stats::ratio(failed as f64, r.initiated() as f64)
}

/// Failed over attempted exchanges of the network runtime. The base is
/// `timers_fired`: every timer fire is one attempted exchange; it fails
/// when its reply times out or its request could not be sent.
pub fn runtime_fail_ratio(s: &RuntimeStats) -> f64 {
    stats::ratio((s.timeouts + s.send_failures) as f64, s.timers_fired as f64)
}

/// FNV-1a over every live node's id and view (ids and ages, in view
/// order): equal digests mean equal overlays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// Digest of the overlay `for_each` enumerates.
    pub fn of(for_each: impl FnOnce(&mut dyn FnMut(NodeId, &View))) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for_each(&mut |id, view| {
            eat(id.as_u64());
            eat(view.len() as u64);
            for d in view.iter() {
                eat(d.id().as_u64());
                eat(u64::from(d.hop_count()));
            }
        });
        Digest(h)
    }
}

/// The live view rows `for_each` enumerates, sorted by id.
pub fn rows_of(for_each: impl FnOnce(&mut dyn FnMut(NodeId, &View))) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut rows = Vec::new();
    for_each(&mut |id, view| rows.push((id, view.ids().collect())));
    rows.sort_by_key(|(id, _)| *id);
    rows
}

/// Host clocks over a timed phase: wall time and process CPU.
pub struct Clock {
    wall: Instant,
    cpu: CpuTicks,
}

impl Clock {
    /// Starts both clocks.
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            cpu: host::cpu_now(),
        }
    }

    /// Wall time and CPU spent since [`Clock::start`].
    pub fn stop(self) -> (Duration, CpuTicks) {
        (self.wall.elapsed(), host::cpu_now().since(self.cpu))
    }

    /// Stops the clocks on a timed phase that did this much work.
    pub fn finish(self, node_periods: u64, exchanges: u64) -> RoundCost {
        let (wall, cpu) = self.stop();
        RoundCost {
            node_periods,
            exchanges,
            wall,
            cpu,
        }
    }
}

/// Reads the global telemetry registry after a traced phase.
pub struct Registry {
    rows: Vec<pss_telemetry::MetricRow>,
}

impl Registry {
    /// A snapshot of every registered series.
    pub fn read() -> Self {
        Registry {
            rows: pss_telemetry::global().rows(),
        }
    }

    /// Every histogram of family `name` whose rendered labels contain
    /// each of `labels`, merged.
    pub fn hist(&self, name: &str, labels: &[&str]) -> Log2Histogram {
        let mut out = Log2Histogram::new();
        for row in &self.rows {
            if row.name == name && labels.iter().all(|l| row.labels.contains(l)) {
                if let Some(h) = &row.histogram {
                    out.merge(h);
                }
            }
        }
        out
    }
}

/// The `p`-quantile of a log2 histogram, interpolated linearly within
/// the bucket that holds it (as Prometheus' `histogram_quantile` does) and
/// clamped to the observed extremes. The bucket bound alone would move
/// only in factors of two.
pub fn hist_quantile(h: &Log2Histogram, p: f64) -> f64 {
    let total = h.total();
    if total == 0 {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (bucket, &count) in h.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        if (seen + count) as f64 >= rank {
            let lo = pss_stats::log2_bucket_floor(bucket) as f64;
            let hi = pss_stats::log2_bucket_ceil(bucket) as f64 + 1.0;
            let within = (rank - seen as f64) / count as f64;
            return (lo + (hi - lo) * within).clamp(h.min() as f64, h.max() as f64);
        }
        seen += count;
    }
    h.max() as f64
}

/// The tail rule of [`crate::stats`] applied to a log2 histogram: the
/// quantile with ten observations beyond it, with the sample count. Zero
/// with too few observations.
pub fn hist_tail(h: &Log2Histogram) -> (f64, u64) {
    let n = h.total();
    if n as usize <= stats::TAIL_BEYOND {
        return (0.0, n);
    }
    let p = (n - stats::TAIL_BEYOND as u64) as f64 / n as f64;
    (hist_quantile(h, p), n)
}

/// Starts a traced phase: telemetry on, registry and flight recorder
/// emptied, so the reads after the phase cover it alone.
pub fn begin_traced_phase() {
    pss_telemetry::set_enabled(true);
    pss_telemetry::global().reset();
    pss_telemetry::flight().clear();
}

/// Engine and worker-pool layers from the registry: per-period phase
/// time from `pss_phase_ns`, shard imbalance, and the busy fraction
/// (shard work over phase time x shards; one minus it is the wait at the
/// phase barrier).
pub fn engine_layers(
    tele: &Registry,
    engine: &str,
    shards: usize,
    periods: f64,
    report: &mut Report,
) {
    let phases: &[(&str, &str)] = match engine {
        "cycle" => &[
            ("initiate", "cycle.phase_initiate_ms"),
            ("respond", "cycle.phase_respond_ms"),
            ("absorb", "cycle.phase_absorb_ms"),
        ],
        _ => &[
            ("process", "event.phase_process_ms"),
            ("merge", "event.phase_merge_ms"),
        ],
    };
    let engine_label = format!("engine={engine}");
    let mut phase_ns = 0u64;
    for (phase, name) in phases {
        let h = tele.hist("pss_phase_ns", &[&engine_label, &format!("phase={phase}")]);
        phase_ns += h.sum();
        report.sampled(
            name,
            stats::ratio(h.sum() as f64 / 1e6, periods),
            "ms",
            h.total() as usize,
        );
    }
    let imbalance = tele.hist("pss_shard_imbalance_permille", &[&engine_label]);
    report.sampled(
        "pool.imbalance_permille",
        imbalance.mean(),
        "permille",
        imbalance.total() as usize,
    );
    let work = tele.hist("pss_shard_work_ns", &[&engine_label]);
    report.value(
        "pool.busy_frac",
        stats::ratio(work.sum() as f64, (phase_ns * shards as u64) as f64),
        "ratio",
        format!(
            "shard work / (phase time x {shards} shards), {} shard-phases",
            work.total()
        ),
    );
}

/// Adds `peak_rss_mb`.
pub fn peak_rss(report: &mut Report) {
    report.value("peak_rss_mb", host::peak_rss_mib(), "MiB", "VmHWM");
}

/// What one round's timed phase did and what it cost on the host clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCost {
    /// Node-cycles or node-periods completed (timer fires on the runtime).
    pub node_periods: u64,
    /// Completed exchanges.
    pub exchanges: u64,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Process CPU over the timed phase.
    pub cpu: CpuTicks,
}

/// `node_periods_per_s` and `cpu_us_per_exchange` over every round's
/// timed phase: total node-periods over total wall time, total CPU over
/// total completed exchanges. The note lists each round's value, in
/// order, so a round that host interference slowed can be told apart.
pub fn throughput(report: &mut Report, rounds: &[RoundCost], hz: u64) {
    let rate = |r: &RoundCost| stats::ratio(r.node_periods as f64, r.wall.as_secs_f64());
    let cost =
        |r: &RoundCost| stats::ratio(r.cpu.total(hz).as_secs_f64() * 1e6, r.exchanges as f64);
    let total = rounds.iter().fold(RoundCost::default(), |a, r| RoundCost {
        node_periods: a.node_periods + r.node_periods,
        exchanges: a.exchanges + r.exchanges,
        wall: a.wall + r.wall,
        cpu: CpuTicks {
            user: a.cpu.user + r.cpu.user,
            sys: a.cpu.sys + r.cpu.sys,
        },
    });
    report.value(
        "node_periods_per_s",
        rate(&total),
        "1/s",
        format!(
            "{} node-periods; rounds {:.0?}",
            total.node_periods,
            rounds.iter().map(rate).collect::<Vec<_>>()
        ),
    );
    report.value(
        "cpu_us_per_exchange",
        cost(&total),
        "us",
        format!(
            "user+sys over {} completed exchanges; rounds {:.3?}",
            total.exchanges,
            rounds.iter().map(cost).collect::<Vec<_>>()
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_fail_ratio_is_over_initiations() {
        let r = CycleReport {
            completed: 90,
            failed_dead_peer: 4,
            empty_view: 1,
            dropped_messages: 5,
        };
        assert_eq!(r.initiated(), 100);
        assert!((sim_fail_ratio(&r) - 0.10).abs() < 1e-12);
        assert_eq!(sim_fail_ratio(&CycleReport::default()), 0.0);
    }

    #[test]
    fn runtime_fail_ratio_is_over_timer_fires() {
        let s = RuntimeStats {
            timers_fired: 200,
            timeouts: 6,
            send_failures: 2,
            // Not failures of an attempted exchange: a dead delivery is a
            // frame reaching a departed node, an empty view never sends.
            dead_deliveries: 50,
            empty_view: 7,
            exchanges_completed: 180,
            ..RuntimeStats::default()
        };
        assert!((runtime_fail_ratio(&s) - 0.04).abs() < 1e-12);
        assert_eq!(runtime_fail_ratio(&RuntimeStats::default()), 0.0);
    }

    #[test]
    fn round_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..4).map(|r| round_seed(7, r)).collect();
        assert_eq!(a, (0..4).map(|r| round_seed(7, r)).collect::<Vec<_>>());
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert_ne!(round_seed(7, 0), round_seed(8, 0));
    }

    #[test]
    fn digest_sees_ages_and_order() {
        use pss_core::NodeDescriptor;
        let view = |pairs: &[(u64, u32)]| {
            View::from_descriptors(
                pairs
                    .iter()
                    .map(|&(id, hop)| NodeDescriptor::new(NodeId::new(id), hop)),
            )
        };
        let a = view(&[(1, 0), (2, 1)]);
        let b = view(&[(1, 0), (2, 2)]);
        let d = |v: &View| Digest::of(|f| f(NodeId::new(9), v));
        assert_eq!(d(&a), d(&a.clone()));
        assert_ne!(d(&a), d(&b));
    }

    #[test]
    fn throughput_is_over_all_rounds() {
        let round = |node_periods, exchanges, ms, ticks| RoundCost {
            node_periods,
            exchanges,
            wall: Duration::from_millis(ms),
            cpu: CpuTicks {
                user: ticks,
                sys: 0,
            },
        };
        let mut r = Report::default();
        // 1000 node-periods/s at 10 us CPU per exchange, then a round
        // slowed to 500/s at 20 us: 2000 node-periods in 3 s, 30 ms of
        // CPU over 2000 exchanges.
        throughput(
            &mut r,
            &[round(1000, 1000, 1000, 1), round(1000, 1000, 2000, 2)],
            100,
        );
        let rate = r.get("node_periods_per_s").expect("reported");
        assert!((rate - 2000.0 / 3.0).abs() < 1e-9, "{rate}");
        let cost = r.get("cpu_us_per_exchange").expect("reported");
        assert!((cost - 15.0).abs() < 1e-9, "{cost}");
    }

    #[test]
    fn hist_quantile_interpolates_within_the_bucket() {
        let mut h = Log2Histogram::new();
        assert_eq!(hist_quantile(&h, 0.5), 0.0);
        // 100 observations spread over bucket [64, 128).
        for v in 64..128 {
            h.record(v);
        }
        for v in 64..100 {
            h.record(v);
        }
        let q = hist_quantile(&h, 0.5);
        assert!(q > 64.0 && q < 128.0, "{q}");
        assert!(hist_quantile(&h, 0.25) < q && q < hist_quantile(&h, 0.75));
        assert_eq!(hist_quantile(&h, 1.0), 127.0);
        assert_eq!(hist_quantile(&h, 0.0), 64.0);
    }

    #[test]
    fn hist_tail_needs_eleven_observations() {
        let mut h = Log2Histogram::new();
        for v in 1..=10 {
            h.record(v);
        }
        assert_eq!(hist_tail(&h), (0.0, 10));
        h.record(1 << 20);
        let (tail, n) = hist_tail(&h);
        assert_eq!(n, 11);
        assert!(tail < (1 << 20) as f64);
    }
}
