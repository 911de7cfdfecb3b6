//! What the harness reads from the operating system: CPU time of the whole
//! process, peak resident memory, and the machine fingerprint that goes
//! into every JSON report.

use std::fs;
use std::process::Command;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// CPU time this process has used, every thread of it, nanoseconds. The
/// daemons under test run as threads of the benchmark process, so this is
/// client plus server. One system call: cheap enough to read around every
/// timed stretch.
pub fn cpu_time_ns() -> u64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable `timespec`; the clock id is valid.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0;
    }
    t.sec as u64 * 1_000_000_000 + t.nsec as u64
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Words of the kernel's CPU mask (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it spawns from here on, to
/// the highest-numbered CPU it may run on; returns that CPU.
///
/// The daemons under test run as threads of the driver's process. On a
/// small virtual machine a wake-up that crosses CPUs is an interrupt
/// through the hypervisor: a serial round trip then reads 5 µs or 45 µs
/// depending on where the scheduler happened to put the two threads, and
/// pipelined throughput moves threefold with it. On one CPU a request
/// costs what the code costs. CPU 0 is left alone: it takes the
/// machine's device interrupts.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte size passed and
    // is only read; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0)
        .then_some(word * 64 + bit)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a report was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: String,
    /// Kernel release.
    pub kernel: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
}

impl Fingerprint {
    /// Gather the fingerprint (runs `rustc` and `git`, and waits for both).
    pub fn gather() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line_of("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_and_cpu_time_advances() {
        let before = cpu_time_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time_ns() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(Fingerprint::gather().nproc >= 1);
    }
}
