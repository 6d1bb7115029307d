//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer:
//! name, start, end, parent span and the id of the cell or request the
//! call belongs to. Spans live in memory until [`Recorder::write_jsonl`]
//! writes them once, after the measured work. The untraced run never
//! touches a recorder, so its timings carry no tracing cost.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span; times are nanoseconds since the process-wide epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub group: Arc<str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from every thread of the process. Span ids and times
/// are process-wide, so the spans of several recorders merge into one
/// tree.
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str, group: &Arc<str>) -> Guard {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Guard {
            recorder: Arc::clone(self),
            id,
            parent,
            name,
            group: Arc::clone(group),
            start_ns: now_ns(),
        }
    }

    /// Every span closed so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Total seconds of the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Append every span to `out` as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// An open span.
pub struct Guard {
    recorder: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    group: Arc<str>,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            group: Arc::clone(&self.group),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(span);
        }
    }
}

/// Open a span when a recorder is present.
pub fn maybe(rec: Option<&Arc<Recorder>>, name: &'static str, group: &Arc<str>) -> Option<Guard> {
    rec.map(|r| r.span(name, group))
}
