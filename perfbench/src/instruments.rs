//! Per-process instruments: a counting global allocator and readers for
//! the kernel's view of this process (`/proc/self/status` peak resident
//! set, `/proc/self/stat` CPU time).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation (and reallocation) and
/// the bytes it asked for. Counts cover every thread of the process: the
/// engine's workers, the transport's event loops and the load generator alike.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> Self {
        Self { allocs: ALLOCS.load(Ordering::Relaxed), bytes: ALLOC_BYTES.load(Ordering::Relaxed) }
    }

    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

extern "C" {
    /// glibc's allocator tuning entry point.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameter: the size above which allocations are mmapped.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin glibc's mmap threshold at 1 MiB. By default the threshold grows
/// to the largest block ever freed, after which multi-megabyte design
/// arrays come from per-thread arenas and stay resident after they are
/// freed; peak RSS then varies by some 10% from run to run with the
/// order in which threads free designs. Pinned, every large buffer is
/// returned to the kernel when freed, and `peak_rss_mb` tracks live
/// memory. Call once, before any other thread starts.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before the process spawns threads or holds any allocation whose
    // placement depends on the threshold.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM missing from /proc/self/status") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU time of the whole process, in milliseconds
/// (`utime + stime` from `/proc/self/stat`, in clock ticks of 10 ms).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_cpu_ticks(&stat).expect("malformed /proc/self/stat");
    ticks as f64 * 1000.0 / CLOCK_TICKS_PER_SEC
}

/// `sysconf(_SC_CLK_TCK)`, which is 100 on every Linux this runs on.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields after it are plain. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        let stat = "4242 (perf bench) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 9";
        assert_eq!(parse_cpu_ticks(stat), Some(150));
    }

    #[test]
    fn live_readers_return_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
