//! What the benchmark reads from the operating system: process CPU time
//! and peak memory from `/proc`, the host description recorded beside
//! the A/A table, and the counting allocator of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `/proc/<pid>/stat` reports CPU time in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz on every architecture this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process so far, threads that have
/// already exited included (which per-thread `schedstat` files are not).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields are
    // positional only after its closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or_else(|| "stat: short".into())
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SEC)
}

fn status_kb(file: &str, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("{file}: no {key} line"))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_kb("/proc/self/status", "VmHWM:")? / 1024.0)
}

/// `nproc` and RAM of the host, for the record beside measured numbers.
pub fn host() -> (usize, f64) {
    let cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let ram_gb = status_kb("/proc/meminfo", "MemTotal:").unwrap_or(0.0) / (1024.0 * 1024.0);
    (cpus, ram_gb)
}

/// The process allocator: the system allocator, counting calls and
/// bytes while [`count_allocs`] has switched counting on. Off (every
/// run but one traced repetition) it costs one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counters
// are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` comes from the caller under `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout` (all allocation is forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with allocation counting on; returns its result with the
/// number of allocator calls that obtained memory and the bytes they
/// asked for (growth only, for `realloc`).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.5);
        let (cpus, ram_gb) = host();
        assert!(cpus >= 1 && ram_gb > 0.0);
    }
}
