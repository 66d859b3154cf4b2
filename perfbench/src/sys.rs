//! Host probes: CPU time (this process plus reaped children), peak RSS,
//! and the host fingerprint recorded with every result.

use std::fs;
use std::process::Command;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

// `Timeval` and `Rusage` mirror the 64-bit Linux layout; refuse to build
// anywhere else rather than hand getrusage a mis-sized buffer.
const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));

/// Linux `struct rusage` on 64-bit targets: two timevals, then fourteen
/// `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage_cpu_s(who: i32) -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` of the platform's
    // layout; getrusage writes only inside it.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// User + system CPU seconds of this process and every child it has
/// reaped. Worker processes count once the supervisor has waited for them.
pub fn cpu_seconds() -> f64 {
    rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN)
}

/// Reset this process's RSS high-water mark to its current RSS, so a
/// later [`peak_rss_mb`] covers only what ran after the reset. Where the
/// kernel refuses, the mark keeps covering the whole run.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// This process's RSS high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Guest-wide CPU ticks `(steal, total)` from `/proc/stat`: steal is time
/// the hypervisor ran something else while the guest's vCPUs wanted to
/// run. `(0, 0)` where the kernel does not report it.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Last-level (L3) cache size in MiB from sysfs, if the host exposes it.
pub fn l3_mib() -> Option<f64> {
    let s = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let s = s.trim();
    let (num, scale) = match s.strip_suffix('K') {
        Some(n) => (n, 1.0 / 1024.0),
        None => match s.strip_suffix('M') {
            Some(n) => (n, 1.0),
            None => (s, 1.0 / (1024.0 * 1024.0)),
        },
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

/// The commit being measured: `git rev-parse HEAD` against `./.git` only,
/// or `"unknown"` in a checkout without git metadata.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
