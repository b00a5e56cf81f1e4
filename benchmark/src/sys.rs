//! What the harness asks of the operating system: a fixed address-space
//! layout, an error instead of a signal at a file-size limit, process CPU
//! time, peak resident memory, allocated file bytes and the filesystem a
//! directory lives on.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn personality(persona: std::ffi::c_ulong) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// `SIGXFSZ` on Linux.
const SIGXFSZ: i32 = 25;
/// `SIG_IGN` of `signal(2)`.
const SIG_IGN: usize = 1;

/// Ignores `SIGXFSZ`, so that growing a file past a file-size limit
/// (`RLIMIT_FSIZE`) fails with "File too large" and the run ends with a
/// message, instead of the process dying silently with code 153.
pub fn report_file_size_limit() {
    // SAFETY: installs the ignore disposition; no handler code runs.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
}

/// `ADDR_NO_RANDOMIZE` of `personality(2)`.
const ADDR_NO_RANDOMIZE: std::ffi::c_ulong = 0x0004_0000;
/// `personality(0xffffffff)` reads the persona without changing it.
const QUERY_PERSONA: std::ffi::c_ulong = 0xffff_ffff;

/// Makes this process run with address-space randomisation off, so that
/// every run of one binary sees the same layout (the scan and kernel
/// loops are sensitive to where their buffers land): if it is on, turns
/// it off for the persona and replaces the process with itself, as
/// `setarch -R` does. Returns only when randomisation is already off
/// (`Ok`) or cannot be turned off (`Err`, the run goes on and says so).
pub fn fix_address_layout() -> Result<(), String> {
    use std::os::unix::process::CommandExt;
    // SAFETY: personality(2) takes a plain integer and touches no memory.
    let persona = unsafe { personality(QUERY_PERSONA) };
    if persona < 0 {
        return Err("personality(2) is not available".into());
    }
    let persona = persona as std::ffi::c_ulong;
    if persona & ADDR_NO_RANDOMIZE != 0 {
        return Ok(());
    }
    // SAFETY: as above.
    if unsafe { personality(persona | ADDR_NO_RANDOMIZE) } < 0 {
        return Err("personality(ADDR_NO_RANDOMIZE) was refused".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `exec` returns only on failure; the persona survives it.
    let failed = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    Err(format!("re-exec failed: {failed}"))
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) consumed by every thread of this process
/// so far, generator and server threads included.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the libc every Rust binary links provides the symbol.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes the filesystem has allocated to `path` (`st_blocks` x 512): what
/// a sparse image really costs.
pub fn allocated_bytes(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).map_or(0, |m| m.blocks() * 512)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(std::hint::black_box(x) != 1);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn peak_rss_and_filesystem_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        assert!(!filesystem_of(Path::new("/")).is_empty());
    }
}
