//! In-memory spans around calls into each layer.
//!
//! The benchmark changes no file of the program, so spans are recorded
//! here, at the layer boundary as seen from outside: `span("verify.certify",
//! || certify(&prog))`. A span is `name,start_ns,end_ns,parent,req`; spans
//! of one cell or request share `req`. Nothing is written until the run
//! ends ([`write_jsonl`]). With tracing off, [`span`] is one relaxed load
//! and the call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<u32>,
    /// Cell or request serial the span belongs to.
    pub req: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// (innermost open span, request serial) of this thread.
    static CURRENT: Cell<(Option<u32>, u32)> = const { Cell::new((None, 0)) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds on the clock the spans use; cells and calibration units are
/// stamped with it too.
pub fn now_s() -> f64 {
    now_ns() as f64 / 1e9
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // A panicking holder cannot leave the list half-updated: every
    // critical section is a single push or field store.
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` with tracing off: warm-ups and baselines call the same
/// layers as the timed cells and must not be added to their totals.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// Runs `f` inside a span named `name`, child of this thread's open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let (parent, req) = CURRENT.with(Cell::get);
    let id = {
        let mut all = spans();
        all.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            req,
        });
        (all.len() - 1) as u32
    };
    CURRENT.with(|c| c.set((Some(id), req)));
    let out = f();
    let end = now_ns();
    CURRENT.with(|c| c.set((parent, req)));
    spans()[id as usize].end_ns = end;
    out
}

/// [`span`] that also starts a new request: every span opened inside
/// carries `req`.
pub fn root<T>(name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
    let saved = CURRENT.with(Cell::get);
    CURRENT.with(|c| c.set((saved.0, req)));
    let out = span(name, f);
    CURRENT.with(|c| c.set(saved));
    out
}

/// Removes and returns everything recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// One span per line: `{"name":…,"start_ns":…,"end_ns":…,"parent":…,"req":…}`
/// (`parent` is -1 for a root).
pub fn write_jsonl(path: &Path, all: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in all {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or(-1, i64::from),
            s.req
        )?;
    }
    out.flush()
}

/// Per span name: how often it ran, its total time and its self time
/// (duration minus the part its child spans cover), in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn totals(all: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
    let mut child_s = vec![0.0f64; all.len()];
    for s in all {
        if let Some(p) = s.parent {
            child_s[p as usize] += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (k, s) in all.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur(s);
        t.self_s += (dur(s) - child_s[k]).max(0.0);
    }
    out
}
