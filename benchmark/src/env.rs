//! The machine a number was measured on, the one CPU of it a run
//! measures on, and the sizing that follows from that.

use std::path::PathBuf;
use std::process::Command;

use serde_json::{json, Value};

/// Threads the serve load generator runs on.
pub const GENERATOR_THREADS: usize = 1;
/// Connections the load generator opens. A run has one CPU (see
/// [`pin_to_one_cpu`]): a second connection's requests would only queue
/// behind the first's, and the queueing would be charged to the server.
pub const GENERATOR_CONNECTIONS: usize = 1;
/// Worker threads a benchmarked service starts with, beside its one I/O
/// thread: as many as a run has CPUs.
pub const SERVICE_WORKERS: usize = 1;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 64-bit words of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Confine this thread, and every thread it starts from here on, to the
/// last CPU it may run on, and return that CPU's number; `None` where the
/// system has no such call or refuses it.
///
/// A run measures on one CPU. The machines this benchmark runs on give it
/// a few virtual CPUs of a shared host. A run that needs two of them at
/// once (the kernels' two-way split, a generator beside a server) is as
/// fast as the slower of the two is at that moment, and how the host
/// places them changes from run to run: the fastest pass of a whole run of
/// `rqc22-cpu-f32` moved by 14 % between runs on two CPUs and by 4 % on
/// one. Confined, `available_parallelism()` is 1, so the kernels run their
/// loops on the calling thread and the service starts one worker.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `bytes` long, and pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = last_cpu(&mask)?;
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above; the kernel only reads `one`.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Number of the highest CPU set in `mask`.
fn last_cpu(mask: &[u64]) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// Directory every file the harness writes goes to (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// High-water mark of this process's resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// What the result file records beside every number.
pub fn stamp() -> Value {
    let unknown = || "unknown".to_string();
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    json!({
        "nproc": (nproc()),
        "isa": (qsim_core::simd::active_isa().name()),
        "rustc": (command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        "commit": (commit.unwrap_or_else(unknown)),
        "generator_threads": (GENERATOR_THREADS),
        "generator_connections": (GENERATOR_CONNECTIONS),
        "service_workers": (SERVICE_WORKERS),
        "service_io_threads": 1,
        "cpus_a_run_measures_on": 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_the_one_a_run_measures_on() {
        assert_eq!(last_cpu(&[0b11, 0]), Some(1));
        assert_eq!(last_cpu(&[0b0101, 0]), Some(2));
        assert_eq!(last_cpu(&[1, 1 << 3]), Some(67));
        assert_eq!(last_cpu(&[0, 0]), None);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
