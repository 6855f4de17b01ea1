//! Measurement plumbing owned by the benchmark: a counting global
//! allocator, process CPU time and peak RSS, percentiles, and the span
//! recorder of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations and allocated bytes while switched on (the traced
/// run only). Allocations a thread makes while it is marked as
/// replaying are not counted, so a wire op's count excludes the
/// benchmark's own in-process replays of that op.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_REPLAY: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) || IN_REPLAY.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; counting touches only atomics and a const-initialized
// thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted outside replays so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
    )
}

/// Run `f` with this thread's allocations counted as replay work.
pub fn replaying<R>(f: impl FnOnce() -> R) -> R {
    IN_REPLAY.with(|c| c.set(true));
    let out = f();
    IN_REPLAY.with(|c| c.set(false));
    out
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs the process could use when first asked, so a later
/// [`pin_to_one_cpu`] does not change what it reports.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may run on. Returns that CPU, or
/// `None` if the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&i| mask[i / 64] & (1 << (i % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the call's
    // duration, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

/// Process user + system CPU time so far, in milliseconds (all threads).
pub fn cpu_ms() -> f64 {
    let r = rusage();
    let us = (r.utime.sec + r.stime.sec) * 1_000_000 + r.utime.usec + r.stime.usec;
    us as f64 / 1000.0
}

/// The process's peak resident set so far, in MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` survives `execve`, so
/// it would report the launching process's peak when that is larger.)
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=1), and how
/// many samples lie above it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).0
}

/// One timed call the benchmark made on behalf of an op.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    /// `0` for an op's root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-thread span recorder: spans stay in memory until the run ends.
/// Switched off, it records nothing but still times [`Tracer::span`].
pub struct Tracer {
    epoch: Instant,
    on: bool,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u64, parent: u32, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            id: self.next_id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// The id of the span at `slot` (`0` when switched off).
    pub fn id(&self, slot: usize) -> u32 {
        self.spans.get(slot).map_or(0, |s| s.id)
    }

    /// Close the span at `slot`.
    pub fn close(&mut self, slot: usize) {
        let epoch = self.epoch;
        if let Some(s) = self.spans.get_mut(slot) {
            s.end_ns = epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` as one span; returns its result and duration in ms.
    pub fn span<R>(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let slot = self.open(op, parent, name);
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.close(slot);
        (out, ms)
    }
}

/// Self time per span name, summed over all ops: each span's duration
/// minus the part of it its children cover (children never overlap
/// each other here — one thread records them in sequence).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64, u64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child_ms: HashMap<(u64, u32), f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ms.entry((s.op, s.parent)).or_default() += s.ms();
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s.ms() - child_ms.get(&(s.op, s.id)).copied().unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += own.max(0.0);
        e.1 += 1;
    }
    out.into_iter().map(|(k, (ms, n))| (k, ms, n)).collect()
}
