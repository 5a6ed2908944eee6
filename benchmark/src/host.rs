//! Process-level host readings from `/proc/self` (informational `host.*`
//! layer metrics only; every reading degrades to zero where procfs is absent).

/// Kernel clock ticks per second `/proc/self/stat` counts CPU time in. Linux
/// has reported 100 to user space on every architecture for two decades.
const TICKS_PER_S: f64 = 100.0;

/// `(user, system)` CPU seconds this process has consumed, all threads.
pub fn cpu_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after its ')'.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (utime, stime) = (next(), next());
    (utime / TICKS_PER_S, stime / TICKS_PER_S)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane_on_linux() {
        let (user, sys) = cpu_s();
        assert!(user >= 0.0 && sys >= 0.0);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
