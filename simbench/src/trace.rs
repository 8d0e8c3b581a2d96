//! The traced run's recorder: spans around each call from the benchmark
//! into a layer's public functions, exact per-pass counters, and a
//! counting global allocator.
//!
//! Everything lives in thread-locals of the one benchmark thread, so
//! recording needs no locks and tests running on other threads do not
//! mix their records in. While recording is off (the untraced run),
//! [`enter`] and [`count`] return after one flag read and the allocator
//! adds nothing but that read.
//!
//! Spans nest strictly (single thread, guards dropped in LIFO order), so a
//! span's self time is its duration minus the durations of its direct
//! children.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `layer.call`, e.g. `sim.run`; the layer is the part before the dot.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The op this span ran under (the harness numbers ops from 0).
    pub op: u64,
    /// Work the call did, in the call's own unit (events for an engine
    /// run, requests for a serve run), or 0.
    pub work: u64,
    /// Heap allocations made while the span was open, children included.
    pub allocs: u64,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Set while the recorder itself runs, so its own bookkeeping
    /// allocations are not charged to the span it records.
    static QUIET: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Runs `f` on the recorder with allocation counting paused.
fn with_rec<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    QUIET.with(|q| q.set(true));
    let out = REC.with(|r| r.borrow_mut().as_mut().map(f));
    QUIET.with(|q| q.set(false));
    out
}

/// Starts (or resumes) recording on this thread. The first call fixes the
/// epoch span times are measured from.
pub fn start() {
    REC.with(|r| {
        r.borrow_mut().get_or_insert_with(|| Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        });
    });
    ON.with(|on| on.set(true));
}

/// Pauses recording; spans and counters are kept.
pub fn stop() {
    ON.with(|on| on.set(false));
}

/// Whether recording is on.
fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Heap allocations this thread made while recording was on.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Sets the op id that spans opened from now on carry.
pub fn set_op(op: u64) {
    if enabled() {
        with_rec(|rec| rec.op = op);
    }
}

/// Adds `n` to the exact counter `name` (no-op while recording is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        with_rec(|rec| *rec.counts.entry(name).or_insert(0) += n);
    }
}

/// Takes the counters accumulated since the last call (one pass's worth
/// when the harness calls it at every pass boundary).
pub fn take_counts() -> BTreeMap<&'static str, u64> {
    with_rec(|rec| std::mem::take(&mut rec.counts)).unwrap_or_default()
}

/// Takes every span recorded so far.
pub fn take_spans() -> Vec<SpanRec> {
    with_rec(|rec| std::mem::take(&mut rec.spans)).unwrap_or_default()
}

/// An open span; it closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    idx: Option<u32>,
}

/// Opens span `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { idx: None };
    }
    let idx = with_rec(|rec| {
        let idx = rec.spans.len() as u32;
        rec.spans.push(SpanRec {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: rec.open.last().copied().unwrap_or(ROOT),
            op: rec.op,
            work: 0,
            // Holds the counter at entry until the span closes.
            allocs: allocs(),
        });
        rec.open.push(idx);
        let now = rec.epoch.elapsed().as_nanos() as u64;
        let span = &mut rec.spans[idx as usize];
        (span.start_ns, span.end_ns) = (now, now);
        idx
    });
    Guard { idx }
}

impl Guard {
    /// Records the work this call did (see [`SpanRec::work`]).
    pub fn work(&self, n: u64) {
        if let Some(idx) = self.idx {
            with_rec(|rec| rec.spans[idx as usize].work = n);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let allocs = allocs();
        with_rec(|rec| {
            let span = &mut rec.spans[idx as usize];
            span.end_ns = rec.epoch.elapsed().as_nanos() as u64;
            span.allocs = allocs - span.allocs;
            if rec.open.last() == Some(&idx) {
                rec.open.pop();
            }
        });
    }
}

/// Runs `f` inside span `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = enter(name);
    f()
}

/// Writes `spans` as tab-separated lines (one header line, then
/// `index parent op name start_ns end_ns work allocs`).
pub fn write_spans(path: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "index\tparent\top\tname\tstart_ns\tend_ns\twork\tallocs"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns, s.work, s.allocs
        )?;
    }
    out.flush()
}

/// Per-span self time and self allocations: the span's own figures minus
/// those of its direct children. Indexed like `spans`.
pub fn self_costs(spans: &[SpanRec]) -> Vec<(u64, u64)> {
    let mut costs: Vec<(u64, u64)> = spans.iter().map(|s| (s.dur_ns(), s.allocs)).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = &mut costs[s.parent as usize];
            p.0 = p.0.saturating_sub(s.dur_ns());
            p.1 = p.1.saturating_sub(s.allocs);
        }
    }
    costs
}

/// The global allocator: the system allocator, plus a per-thread count of
/// allocations (and reallocations) made while recording is on.
pub struct CountingAlloc;

fn bump() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ON.try_with(|on| {
        if on.get() && !QUIET.with(Cell::get) {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `bump` only touches
// const-initialized `Cell`s without destructors, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        start();
        set_op(7);
        {
            let outer = enter("gen.tune");
            {
                let inner = enter("sim.run");
                inner.work(42);
                count("sim.events", 42);
            }
            outer.work(1);
        }
        stop();
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[1].op, spans[1].work), (7, 42));
        assert_eq!(spans[1].layer(), "sim");
        let costs = self_costs(&spans);
        assert_eq!(costs[0].0, spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(take_counts().get("sim.events"), Some(&42));
        // Nothing records while off.
        let _g = enter("sim.run");
        count("sim.events", 1);
        drop(_g);
        assert!(take_spans().is_empty());
        assert!(take_counts().is_empty());
    }

    #[test]
    fn allocations_count_only_while_recording() {
        let before = allocs();
        let v: Vec<u8> = Vec::with_capacity(64);
        drop(std::hint::black_box(v));
        assert_eq!(allocs(), before);
        start();
        let v: Vec<u8> = Vec::with_capacity(64);
        drop(std::hint::black_box(v));
        stop();
        assert_eq!(allocs(), before + 1);
    }
}
