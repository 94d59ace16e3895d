//! In-memory span log: each span has a name, a start, an end and the span
//! that caused it. Spans are recorded only on traced runs and written out as
//! JSONL once the run ends; durations are returned on every run, because the
//! untraced run needs them for its own cell timings.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span that has begun and not yet ended.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

impl Open {
    /// Index of this span in the log (`None` on untraced runs), for use as
    /// the parent of nested spans.
    pub fn id(&self) -> Option<usize> {
        self.idx
    }
}

/// The span log of one benchmark process.
pub struct SpanLog {
    traced: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log that keeps spans only when `traced` is set.
    pub fn new(traced: bool) -> SpanLog {
        SpanLog { traced, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Begin a span named `name` under `parent`.
    pub fn begin(&self, name: &str, parent: Option<usize>) -> Open {
        let start = Instant::now();
        let idx = self.traced.then(|| {
            let mut spans = self.spans.lock().expect("span log poisoned by a panicking cell");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        });
        Open { idx, start }
    }

    /// End `open`; returns its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.idx {
            let mut spans = self.spans.lock().expect("span log poisoned by a panicking cell");
            spans[i].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, parent);
        let out = f();
        (out, self.end(open))
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned by a panicking cell").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned by a panicking cell");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                serde_json::to_string(&s.name).expect("string serialises"),
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_log_times_but_keeps_nothing() {
        let log = SpanLog::new(false);
        let (v, secs) = log.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn traced_log_links_children_to_parents() {
        let log = SpanLog::new(true);
        let outer = log.begin("outer", None);
        let (_, _) = log.time("inner", outer.id(), || ());
        let pid = outer.id();
        log.end(outer);
        assert_eq!(log.len(), 2);
        let spans = log.spans.lock().unwrap();
        assert_eq!(spans[1].parent, pid);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
