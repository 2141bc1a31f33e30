//! What the host is and how much memory a process peaked at.

use std::process::Command;

/// Extracts `VmHWM` (peak resident set, kB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set in kB; `None` off Linux.
pub fn self_vm_hwm_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// The commit being measured; "unknown" outside a git checkout (the
/// acceptance driver measures an exported tree).
pub fn git_commit() -> String {
    first_line_of(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    )
    .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_out_of_proc_status() {
        let status = "Name:\tsde-benchmark\nVmPeak:\t  201340 kB\nVmHWM:\t   73124 kB\nVmRSS:\t   70000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(73_124));
    }

    #[test]
    fn missing_or_malformed_vm_hwm_is_none() {
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        if cfg!(target_os = "linux") {
            assert!(self_vm_hwm_kb().unwrap() > 0);
        }
        assert!(cores() >= 1);
    }
}
