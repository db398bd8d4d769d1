//! The peer sampling benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics traced. See `README.md` beside
//! this package for the workloads, the metric glossary and how to read
//! the output.
//!
//! ```text
//! pss-perfbench --workload <cycle-steady|event-churn|udp-open> --seed <n>
//!               --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! Standard output holds a `meta` line (host and workload parameters),
//! one `metric` line per measured value with its unit and sample count,
//! one `gate` line per correctness check, and last the one-line JSON
//! result. A failed gate exits with status 1.

mod common;
mod cycle;
mod event;
mod host;
mod layers;
mod report;
mod stats;
mod udp;

use report::Report;

/// Problem size: `full` is the benchmark; `smoke` runs every workload end
/// to end in seconds, for checking the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny sizes, same code paths.
    Smoke,
}

/// Metric names and units, as `BENCHMARK.json` declares them.
type Metrics = &'static [(&'static str, &'static str)];

/// End-to-end metrics of the untraced run and their units, in
/// `BENCHMARK.json` order: those defined, never 0 and steady across seeds
/// on every workload. The others are printed on the `metric` lines only:
/// period and lag times, the failure ratio, dead links and rumour rounds
/// exist on some workloads only (or read 0 on the others), and
/// `peak_rss_mb` of `udp-open` swings by a fifth between runs with the
/// receive ring's transient buffers.
const END_TO_END: Metrics = &[
    ("setup_s", "s"),
    ("node_periods_per_s", "1/s"),
    ("cpu_us_per_exchange", "us"),
    ("in_degree_sd", "links"),
];

/// Per-layer metrics of the traced run and their units, in
/// `BENCHMARK.json` order. A layer a workload leaves idle reads 0.
const PER_LAYER: Metrics = &[
    ("view.absorb_ns", "ns"),
    ("view.select_head_ns", "ns"),
    ("view.select_rand_ns", "ns"),
    ("view.select_rand_vs_head", "ratio"),
    ("view.merge_ns", "ns"),
    ("view.merge_reference_ns", "ns"),
    ("view.merge_vs_reference", "ratio"),
    ("node.exchange_ns", "ns"),
    ("node.exchanges_per_period", "count"),
    ("cycle.phase_initiate_ms", "ms"),
    ("cycle.phase_respond_ms", "ms"),
    ("cycle.phase_absorb_ms", "ms"),
    ("pool.imbalance_permille", "permille"),
    ("pool.busy_frac", "ratio"),
    ("event.events_per_period", "count"),
    ("event.phase_process_ms", "ms"),
    ("event.phase_merge_ms", "ms"),
    ("workload.ops_per_period", "count"),
    ("workload.op_us", "us"),
    ("snapshot.collect_rows_ms", "ms"),
    ("health.measure_rows_ms", "ms"),
    ("app.round_ms", "ms"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_exchange", "bytes"),
    ("runtime.decode_ns_p50", "ns"),
    ("udp.send_ns", "ns"),
    ("udp.recv_ns", "ns"),
    ("udp.recv_ring_empty", "count"),
    ("runtime.frames_per_exchange", "count"),
    ("runtime.sys_cpu_frac", "ratio"),
    ("runtime.timeouts_per_kexchange", "count"),
    ("runtime.rtt_ticks_p50", "ticks"),
    ("runtime.wheel_lag_ticks_tail", "ticks"),
    ("cluster.period_ms_tail", "ms"),
    ("accounting.residual_frac", "ratio"),
    ("accounting.absorb_share", "ratio"),
    ("accounting.absorb_share_n1e4", "ratio"),
    ("tracing_overhead_frac", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size must be full or smoke, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

/// Runs one workload in one mode and returns its report, the metrics its
/// result line carries, and the parameter fields of its metadata line.
fn run(args: &Args, hz: u64) -> Result<(Report, Metrics, String), String> {
    let (seed, seconds, size) = (args.seed, args.seconds, args.size);
    let (mut report, params) = match args.workload.as_str() {
        "cycle-steady" => {
            let p = cycle::Params::at(size);
            let r = if args.trace {
                cycle::run_traced(&p, seed, seconds, size)
            } else {
                cycle::run(&p, seed, seconds, hz)
            };
            (r, p.describe())
        }
        "event-churn" => {
            let p = event::Params::at(size, seconds);
            let r = if args.trace {
                event::run_traced(&p, seed)
            } else {
                event::run(&p, seed, hz)
            };
            (r, p.describe())
        }
        "udp-open" => {
            let p = udp::Params::at(size, seconds);
            let r = if args.trace {
                udp::run_traced(&p, seed, hz)
            } else {
                udp::run(&p, seed, hz)
            };
            (r, p.describe())
        }
        other => {
            return Err(format!(
                "unknown workload {other} (expected cycle-steady, event-churn or udp-open)"
            ))
        }
    };
    if !args.trace {
        return Ok((report, END_TO_END, params));
    }
    // A layer the workload leaves idle reads 0, so every traced run
    // reports the full per-layer set.
    for &(name, unit) in PER_LAYER {
        if report.get(name).is_none() {
            report.value(name, 0.0, unit, "layer idle on this workload");
        }
    }
    Ok((report, PER_LAYER, params))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pss-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // End-to-end metrics are measured with telemetry off; the traced run
    // switches it on around its traced phase only.
    pss_telemetry::set_enabled(false);
    let hz = host::clock_ticks_per_sec();
    let meta = host::HostMeta::read();
    let (report, names, params) = match run(&args, hz) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("pss-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "meta {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"size\": \"{:?}\", {params}, \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"rustc\": \"{}\", \"git_rev\": \"{}\", \"clock_ticks_per_s\": {hz}}}",
        args.workload,
        u8::from(args.trace),
        args.seed,
        args.seconds,
        args.size,
        meta.nproc,
        meta.cpu_model,
        meta.rustc,
        meta.git_rev
    );
    print!("{}", report.render_lines(&args.workload));
    println!("{}", report.result_json(names));
    if report.failed_gates() > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn arguments_are_validated() {
        let a = args("--workload udp-open --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.size),
            (7, 10.0, true, Size::Full)
        );
        assert!(args("--workload udp-open --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload udp-open --seed x --seconds 10").is_err());
        assert!(args("--workload udp-open --seed 7 --seconds 0").is_err());
        assert!(args("--workload udp-open --seconds 10").is_err());
        assert!(args("--workload udp-open --seed 7 --seconds 10 --bogus 1").is_err());
        assert!(args("--workload udp-open --seed 7 --seconds").is_err());
        let unknown = args("--workload nope --seed 1 --seconds 1").expect("parses");
        assert!(run(&unknown, 100).is_err());
    }

    /// Every workload, untraced and traced, end to end at the smoke size:
    /// all gates pass and every declared metric is reported in its unit.
    /// One test, because telemetry is process-global state.
    #[test]
    fn smoke_runs_every_workload_in_both_modes() {
        let hz = host::clock_ticks_per_sec();
        for workload in ["cycle-steady", "event-churn", "udp-open"] {
            for trace in [0, 1] {
                let a = args(&format!(
                    "--workload {workload} --seed 3 --seconds 1 --trace {trace} --size smoke"
                ))
                .expect("valid");
                let (report, names, _) = run(&a, hz).expect("known workload");
                let failed: Vec<_> = report.gates.iter().filter(|g| !g.ok).collect();
                assert!(failed.is_empty(), "{workload} trace {trace}: {failed:?}");
                let line = report.result_json(names);
                assert!(line.starts_with("{\"correct\": true"), "{line}");
                assert!(report.operations > 0);
            }
        }
    }
}
