//! The host block printed with every report: what the figures were
//! measured on. Read from the kernel's `/proc` and `/sys` views; a field
//! the host does not expose reads `unknown`.

use std::fmt;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// Last-level cache size, bytes; `None` when the host does not say.
    pub llc_bytes: Option<u64>,
    pub mem_bytes: Option<u64>,
    pub rustc: &'static str,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mem_bytes = std::fs::read_to_string("/proc/meminfo").ok().and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemTotal:"))?;
            let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib * 1024)
        });
        Self {
            nproc,
            cpu_model,
            llc_bytes: llc_bytes(),
            mem_bytes,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// Cumulative `(steal, total)` CPU ticks of the host's CPUs: time a virtual
/// CPU was ready but its hypervisor ran something else, against all time.
/// A run with a large steal share was slowed from outside.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Size of the highest-level cache of CPU 0.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, b)| level > l || (level == l && bytes > b)) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parses sysfs cache sizes such as `107520K` or `2M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt =
            |v: Option<u64>| v.map_or_else(|| "unknown".into(), |b| format!("{:.0} MiB", mib(b)));
        write!(
            f,
            "host: nproc {} | cpu {} | llc {} | mem {} | {}",
            self.nproc,
            self.cpu_model,
            opt(self.llc_bytes),
            opt(self.mem_bytes),
            self.rustc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::parse_size;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107_520 * 1024));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
