//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds a name, start and end (nanoseconds since the tracer was
//! made), the span that caused it and a request id shared by every span of
//! one request. Spans are kept in memory and written out once, when the
//! run ends. With tracing off, [`Tracer::span`] only runs its closure.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children with (0 when tracing is off).
    pub fn span<R>(&self, name: &str, parent: u64, request: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        result
    }

    /// [`Tracer::span`] that also returns the wall time of `f`, measured
    /// whether or not tracing is on.
    pub fn timed<R>(
        &self,
        name: &str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let result = self.span(name, parent, request, f);
        (result, start.elapsed())
    }

    /// Records a span measured elsewhere, such as the server-side execution
    /// time a reply reports, placed at the end of its parent's interval.
    pub fn record(&self, name: &str, parent: u64, request: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children are clipped to the parent and their
/// overlaps merged).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> HashMap<String, f64> {
    let own = self_times(spans);
    let mut out: HashMap<String, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += own[&s.id] as f64 * 1e-9;
    }
    out
}

/// Writes spans as JSON lines, each with its derived self time.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}}}",
            s.id,
            s.parent,
            s.request,
            crate::util::json_str(&s.name),
            s.start_ns,
            s.end_ns,
            own[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps span 2 by 10
            span(4, 1, 90, 120), // runs past the parent's end
            span(5, 2, 10, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&5], 10);
    }
}
