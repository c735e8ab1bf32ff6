//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own wrappers and call sites
//! only; nothing inside the measured crates is instrumented. Each thread
//! appends to its own buffer (registered once in a global list), so
//! recording costs an uncontended lock, and the whole set is drained and
//! written out after measuring.
//!
//! A *rollup* span (`n > 1`) stands for `n` calls too short and too many
//! to record one by one (per-round kernel calls, per-event observer
//! calls): it starts where its parent starts and lasts the summed
//! duration of the calls.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed call (or rollup of calls).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Layer-qualified name, e.g. `vfs.stage`.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request id: a daemon job id, or `algorithm/dataset#replicate`.
    pub req: String,
    /// Calls covered (1, or more for a rollup).
    pub n: u64,
    /// Payload size: bytes staged, files in a barrier; 0 otherwise.
    pub size: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
const POISON: &str = "span buffers are only pushed to and drained";

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// Nanoseconds since the process epoch (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Reserve a span id, for a parent whose children finish before it does.
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record a finished span under a reserved id.
pub fn record(span: Span) {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf: Buffer = Arc::default();
            BUFFERS.lock().expect(POISON).push(Arc::clone(&buf));
            buf
        });
        buf.lock().expect(POISON).push(span);
    });
}

/// Record a span with a fresh id; returns the id.
pub fn push(name: &'static str, start_ns: u64, end_ns: u64, parent: u64, req: String) -> u64 {
    let id = new_id();
    record(Span {
        id,
        name,
        start_ns,
        end_ns,
        parent,
        req,
        n: 1,
        size: 0,
    });
    id
}

/// Take every recorded span out of every thread's buffer, by start time.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect(POISON).iter() {
        all.append(&mut buf.lock().expect(POISON));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Summed duration (ns), call count and payload size per span name.
pub fn totals<'a>(spans: impl IntoIterator<Item = &'a Span>) -> HashMap<&'static str, [u64; 3]> {
    let mut out: HashMap<&'static str, [u64; 3]> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e[0] += s.dur_ns();
        e[1] += s.n;
        e[2] += s.size;
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut out: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        if let Some(parent) = out.get_mut(&s.parent) {
            *parent = parent.saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Write spans as JSONL, one object per span, self time included.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"req\":{:?},\"n\":{},\"size\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, selfs[&s.id], s.parent, s.req, s.n, s.size
        )?;
    }
    out.flush()
}
