//! Outside-in tracing: the benchmark records a span around every call it
//! makes into a layer. Spans stay in memory and are written out as JSON
//! lines when the run ends. (Spans *inside* the program are a later
//! issue; nothing here touches product code.)

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent": the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this identifier.
    pub request: u32,
    /// The span that caused this one ([`ROOT`] for none).
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(id);
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end;
    }

    /// Time `f` as one leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since this tracer started: the clock of its spans.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != ROOT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Write spans as JSON lines: name, request, id, parent, start, end and
/// self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = if span.parent == ROOT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"request\":{},\"id\":{id},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.request, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ── a [10,40] ── a1 [15,25]
        //              └─ b [50,90]
        let spans = vec![
            span(ROOT, 0, 100),
            span(0, 10, 40),
            span(1, 15, 25),
            span(0, 50, 90),
        ];
        // root: 100 − 30 − 40; a: 30 − 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::new();
        let root = t.enter("request", 7);
        let v = t.leaf("stage", 7, || 42);
        assert_eq!(v, 42);
        let inner = t.enter("outer", 7);
        t.leaf("inner", 7, || ());
        t.exit(inner);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, root);
        assert_eq!(spans[3].parent, inner);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        // Children lie inside their parent, so self time never underflows.
        let own = self_times_ns(spans);
        assert!(own[0] <= spans[0].duration_ns());
        assert!(t.now_ns() >= spans[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/benchmark-test")
            .join(format!("trace-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        write_jsonl(&path, &[span(ROOT, 0, 10), span(0, 2, 5)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":7"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":3"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
