//! In-memory spans recorded by the benchmark around each call into a
//! layer of the program, dumped at exit as a Chrome trace.
//!
//! A span has a name, start, end, parent span and request id. Spans nest
//! per thread: a span opened while another is open on the same thread
//! becomes its child. Each span can be skipped at its call site, so one
//! invocation can alternate traced and untraced operations.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder (see the module docs).
pub struct Spans {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; it is recorded when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, req, start_ns)) = self.open.take() {
            let end_ns = self.spans.now_ns();
            OPEN.with(|s| s.borrow_mut().pop());
            let span = Span {
                id,
                parent,
                name,
                req,
                start_ns,
                end_ns,
                tid: thread_id(),
            };
            if let Ok(mut done) = self.spans.done.lock() {
                done.push(span);
            }
        }
    }
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span for request `req`; a no-op when the recorder is off.
    pub fn enter(&self, name: &'static str, req: u64) -> Guard<'_> {
        self.enter_if(true, name, req)
    }

    /// Open a span only when `traced` holds and the recorder is on.
    pub fn enter_if(&self, traced: bool, name: &'static str, req: u64) -> Guard<'_> {
        if !traced || !self.on {
            return Guard {
                spans: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Guard {
            spans: self,
            open: Some((id, parent, name, req, self.now_ns())),
        }
    }

    /// Every finished span, in completion order.
    pub fn finished(&self) -> Vec<Span> {
        self.done.lock().expect("span list poisoned").clone()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children. Aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self times in microseconds of every span called `name`.
pub fn self_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect()
}

/// Render spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete (`"ph":"X"`) events in microseconds, one track per thread,
/// with the span id, parent and request id under `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.req
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let spans = Spans::new(true);
        {
            let _outer = spans.enter("outer", 7);
            spin(200);
            {
                let _inner = spans.enter("inner", 7);
                spin(300);
            }
        }
        let done = spans.finished();
        assert_eq!(done.len(), 2);
        let inner = done.iter().find(|s| s.name == "inner").unwrap();
        let outer = done.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.req, outer.req), (7, 7));
        let selfs = self_times_ns(&done);
        let outer_self = selfs[done.iter().position(|s| s.name == "outer").unwrap()];
        assert_eq!(outer_self, outer.dur_ns() - inner.dur_ns());
        assert!(self_us(&done, "inner")[0] >= 300.0);
    }

    #[test]
    fn off_records_nothing() {
        let off = Spans::new(false);
        drop(off.enter("x", 1));
        assert!(off.finished().is_empty());
        let on = Spans::new(true);
        drop(on.enter_if(false, "x", 1));
        drop(on.enter_if(true, "y", 2));
        let done = on.finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].name, "y");
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let spans = Spans::new(true);
        {
            let _a = spans.enter("a", 1);
            drop(spans.enter("b", 1));
        }
        let json = chrome_trace(&spans.finished());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":null"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
