//! Peak resident set size from `/proc/self/status`.

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text into KiB. `None` when the line is missing or malformed.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kib = fields.next()?.parse::<u64>().ok()?;
    match (fields.next(), fields.next()) {
        (Some("kB"), None) => Some(kib),
        _ => None,
    }
}

/// This process's peak resident set size in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = parse_vmhwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vmhwm_line() {
        let status = "Name:\tvmin-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(45_678));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 100 MB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 100\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 100 kB extra\n"), None);
        // The prefix must start the line.
        assert_eq!(parse_vmhwm_kib("XVmHWM:\t 100 kB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.0, "peak RSS {mb} MB");
    }
}
