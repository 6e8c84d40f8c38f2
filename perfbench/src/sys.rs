//! What the machine says about a run: process CPU, hypervisor steal,
//! peak memory, core count, and measured fsync latency. Everything is
//! read from `/proc` or measured directly, so an outlier run can be
//! explained from its own output.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/stat` (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_SEC: f64 = 100.0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far, all threads
/// (live and exited) included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // Linux defines; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Machine-wide CPU time stolen by the hypervisor so far, in CPU
/// seconds (the `steal` column of `/proc/stat`).
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// fsync latency of a small append in `dir`: `(p50, p99)` in µs over
/// `samples` 4 KiB write + `sync_data` rounds. The probe file is removed.
pub fn fsync_probe_us(dir: &Path, samples: usize) -> std::io::Result<(f64, f64)> {
    let path = dir.join(".perfbench-fsync-probe");
    let mut file = fs::File::create(&path)?;
    let block = [0x5au8; 4096];
    let mut lat = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        lat.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    fs::remove_file(&path)?;
    Ok((
        crate::stats::quantile(&mut lat, 0.50),
        crate::stats::quantile(&mut lat, 0.99),
    ))
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() >= before);
        assert!(peak_rss_mib() > 0.0);
        assert!(steal_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}
