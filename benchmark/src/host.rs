//! What the ledger needs from the operating system: thread placement,
//! process CPU time, peak memory, and a description of the host.
//!
//! Linux only: placement goes through `sched_setaffinity`, thread names
//! through `/proc/self/task/*/comm`. libc is already linked by `std`, so
//! the three calls are declared here instead of pulling in a crate.

use std::fs;
use std::io;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("perf_ledger pins threads through Linux's sched_setaffinity and /proc");

/// Bits in the affinity masks passed to the kernel.
const MASK_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

unsafe extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// CPUs this process may run on, ascending. `workers` is capped by its
/// length, and worker `i` is pinned to entry `i`.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pin thread `tid` (0 = the caller) to one CPU.
pub fn pin_thread(tid: i32, cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::other(format!(
            "cpu {cpu} beyond the affinity mask"
        )));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Pin the runtime's threads: the caller (worker 0) to `cpus[0]` and each
/// `nanotask-w{i}` to `cpus[i]`. Returns the CPU per worker.
///
/// Waits until all `workers - 1` names are visible: a thread names itself
/// only once it runs, and reading `comm` before that silently leaves a
/// worker unpinned — on a 2-CPU host that is the mode where both workers
/// share a CPU and `spawn_storm` reads 4.2 M instead of 1.8 M tasks/s.
pub fn pin_runtime_threads(workers: usize, cpus: &[usize]) -> io::Result<Vec<usize>> {
    if workers > cpus.len() {
        return Err(io::Error::other(format!(
            "{workers} workers but only {} usable CPUs: refusing to measure an oversubscribed run",
            cpus.len()
        )));
    }
    pin_thread(0, cpus[0])?;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut pinned = vec![false; workers];
    pinned[0] = true;
    while pinned.iter().any(|p| !p) {
        for entry in fs::read_dir("/proc/self/task")? {
            let entry = entry?;
            let Ok(comm) = fs::read_to_string(entry.path().join("comm")) else {
                continue; // the thread exited between readdir and read
            };
            let worker = comm
                .trim()
                .strip_prefix("nanotask-w")
                .and_then(|n| n.parse::<usize>().ok());
            let tid = entry.file_name().to_string_lossy().parse::<i32>().ok();
            if let (Some(w), Some(tid)) = (worker, tid)
                && w < workers
                && !pinned[w]
            {
                pin_thread(tid, cpus[w])?;
                pinned[w] = true;
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(
                "runtime worker threads did not name themselves within 5 s; cannot pin them",
            ));
        }
        std::thread::yield_now();
    }
    Ok(cpus[..workers].to_vec())
}

/// CPU time consumed by all threads of this process so far.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string())
}

/// The checked-out revision, read from `.git` in the working directory
/// (the driver's checkout has none: "none").
pub fn git_revision() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_more_workers_than_usable_cpus() {
        let err = pin_runtime_threads(3, &[0, 1]).expect_err("3 workers on 2 CPUs must be refused");
        assert!(err.to_string().contains("refusing"), "{err}");
        assert!(
            pin_thread(0, MASK_WORDS * 64).is_err(),
            "a CPU beyond the mask is an error"
        );
    }

    #[test]
    fn reads_the_process_from_proc() {
        let cpus = allowed_cpus().expect("affinity mask");
        assert!(!cpus.is_empty() && cpus.is_sorted());
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_time();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_time() > before);
    }
}
