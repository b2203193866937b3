//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded around client operations, layer calls and device
//! calls made from the benchmark's files.  Each span has a name, start and
//! end time, its parent span and the id of the request it belongs to.  On
//! threads that issue their own requests a thread-local request id and span
//! stack link device calls to the request that caused them; device calls
//! made on engine worker threads carry request id 0.  Spans stay in memory
//! and are written out, as Chrome trace events, when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped.
const MAX_SPANS: usize = 200_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    tid: u64,
}

#[derive(Default)]
struct Local {
    request: u64,
    stack: Vec<u64>,
    tid: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        ..Local::default()
    });
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(span: Span) {
    let mut spans = SPANS.lock().expect("span store poisoned");
    if spans.len() < MAX_SPANS {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

fn run<R>(name: &'static str, new_request: bool, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, saved_request, tid) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let saved = l.request;
        if new_request {
            l.request = id;
        }
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (parent, saved, l.tid)
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let request = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        let request = l.request;
        l.request = saved_request;
        request
    });
    push(Span {
        id,
        parent,
        request,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
        tid,
    });
    out
}

/// Run `f` as one client operation: a new request id for everything inside.
pub fn request<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    run(name, true, f)
}

/// Run `f` as a span of the current request.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    run(name, false, f)
}

/// A fresh span id, for spans recorded with [`record`].
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record an already-timed span (used for open-loop requests, whose start is
/// their due time and whose steps ran on engine workers).
pub fn record(
    id: u64,
    name: &'static str,
    request: u64,
    parent: u64,
    start: Instant,
    end: Instant,
) {
    if enabled() {
        push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            tid: 0,
        });
    }
}

/// Number of spans kept and dropped so far.
pub fn counts() -> (usize, u64) {
    let kept = SPANS.lock().expect("span store poisoned").len();
    (kept, DROPPED.load(Ordering::Relaxed))
}

/// Write every kept span to `path` as Chrome trace events and clear the store.
pub fn write_out(path: &std::path::Path) -> std::io::Result<()> {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request,
        )?;
    }
    writeln!(
        out,
        "], \"droppedSpans\": {}}}",
        DROPPED.load(Ordering::Relaxed)
    )?;
    out.flush()
}
