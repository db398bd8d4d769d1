//! Process and host readings from `/proc`: CPU time, peak memory, and the
//! metadata every result carries.

use std::time::Duration;

/// User and system CPU time of this process (all threads, live and
/// exited), in clock ticks as `/proc/self/stat` reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// `utime`: ticks in user mode.
    pub user: u64,
    /// `stime`: ticks in kernel mode.
    pub sys: u64,
}

impl CpuTicks {
    /// Field-wise difference from an earlier reading.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }

    /// User plus system time as a duration, at `hz` ticks per second.
    pub fn total(self, hz: u64) -> Duration {
        Duration::from_secs_f64((self.user + self.sys) as f64 / hz.max(1) as f64)
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised
/// and may itself hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is the first token, so utime (14)
    // and stime (15) are tokens 11 and 12.
    let mut fields = rest.split_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, sys })
}

/// Parses the peak resident set (`VmHWM`) out of `/proc/<pid>/status`, in
/// KiB.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Parses the clock-tick rate (`AT_CLKTCK`, auxv type 17) out of a raw
/// `/proc/<pid>/auxv`: native-endian `(type, value)` word pairs.
pub fn parse_auxv_clktck(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    const WORD: usize = std::mem::size_of::<u64>();
    let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("chunk of one word"));
    auxv.chunks_exact(2 * WORD)
        .map(|pair| (word(&pair[..WORD]), word(&pair[WORD..])))
        .take_while(|&(kind, _)| kind != 0)
        .find(|&(kind, _)| kind == AT_CLKTCK)
        .map(|(_, value)| value)
}

/// This process's CPU time so far.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed: without it
/// the benchmark has no CPU metric to report.
pub fn cpu_now() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu(&stat).expect("/proc/self/stat has utime and stime")
}

/// Clock ticks per second for [`CpuTicks`]; the Linux user-space
/// constant 100 when auxv does not say.
pub fn clock_ticks_per_sec() -> u64 {
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|auxv| parse_auxv_clktck(&auxv))
        .filter(|&hz| hz > 0)
        .unwrap_or(100)
}

/// Peak resident memory of this process so far, in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Host and build facts printed with every result.
pub struct HostMeta {
    /// Available parallelism.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The commit the checkout came from, when known.
    pub git_rev: String,
}

impl HostMeta {
    /// Reads the host facts. Missing facts read `unknown`.
    pub fn read() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        HostMeta {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_rev: std::env::var("GIT_REV")
                .ok()
                .filter(|rev| !rev.is_empty())
                .unwrap_or_else(|| command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        }
    }
}

/// First stdout line of a command that exits 0, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_owned())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_last_paren() {
        // Field 2 holds spaces and a ')' — a naive split would misalign.
        let stat = "4242 (bench ) (x) R 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 567 0 0 20 0 3 0 100 1000000 2000 18446744073709551615";
        assert_eq!(
            parse_stat_cpu(stat),
            Some(CpuTicks {
                user: 1234,
                sys: 567
            })
        );
        assert_eq!(parse_stat_cpu("4242 (truncated) R 1 2"), None);
        assert_eq!(parse_stat_cpu("no parenthesis at all"), None);
    }

    #[test]
    fn stat_parser_reads_this_process() {
        let before = cpu_now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let spent = cpu_now().since(before);
        assert!(spent.user + spent.sys < 1_000_000, "implausible tick count");
        assert!(clock_ticks_per_sec() >= 1);
    }

    #[test]
    fn cpu_tick_arithmetic() {
        let a = CpuTicks { user: 10, sys: 4 };
        let b = CpuTicks { user: 25, sys: 5 };
        assert_eq!(b.since(a), CpuTicks { user: 15, sys: 1 });
        assert_eq!(a.since(b), CpuTicks { user: 0, sys: 0 });
        assert_eq!(b.since(a).total(100), Duration::from_millis(160));
    }

    #[test]
    fn rss_parser_reads_vmhwm_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(204_800));
        assert_eq!(parse_status_hwm_kib("VmRSS:\t1000 kB\n"), None);
        assert_eq!(parse_status_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_status_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn auxv_parser_finds_clktck_before_the_terminator() {
        let words = |pairs: &[(u64, u64)]| -> Vec<u8> {
            pairs
                .iter()
                .flat_map(|&(k, v)| [k.to_ne_bytes(), v.to_ne_bytes()])
                .flatten()
                .collect()
        };
        assert_eq!(
            parse_auxv_clktck(&words(&[(6, 4096), (17, 100), (0, 0)])),
            Some(100)
        );
        assert_eq!(
            parse_auxv_clktck(&words(&[(6, 4096), (0, 0), (17, 100)])),
            None
        );
        assert_eq!(parse_auxv_clktck(&[]), None);
    }
}
