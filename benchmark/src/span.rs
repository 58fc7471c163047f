//! In-memory spans recorded by the harness around its calls into each
//! layer, the self-time reducer, and the JSONL writer. Spans are kept in
//! memory during a traced run and written once when it ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    /// A tracer that is off records nothing: the same code then runs
    /// untraced, which is what tracing overhead is measured against.
    on: bool,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Run `work` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        work: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, parent, req);
        let out = work();
        self.end(id);
        out
    }

    /// One JSON object per line: `id`, `parent` (or null), `req`, `name`,
    /// `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once, and a
/// child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            req: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_charged_to_their_own_parent_only() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // root 0..100 with children 10..50, 30..70 (overlap), 90..120 (runs
        // past the parent) and an empty one.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 90, 120),
            span(Some(0), 80, 80),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 60 - 10);
        assert_eq!(st[1], 40);
        assert_eq!(st[3], 30);
    }

    #[test]
    fn self_times_of_a_request_add_up_to_its_root() {
        let mut tr = Tracer::default();
        let root = tr.start("request", None, 9);
        tr.time("a", Some(root), 9, || std::hint::black_box(1 + 1));
        let b = tr.start("b", Some(root), 9);
        tr.time("c", Some(b), 9, || std::hint::black_box(2 + 2));
        tr.end(b);
        tr.end(root);
        let st = self_times(&tr.spans);
        assert_eq!(st.iter().sum::<u64>(), tr.spans[root].duration_ns());
        assert!(tr.spans.iter().all(|s| s.req == 9));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::off();
        let root = tr.start("request", None, 1);
        assert_eq!(tr.time("child", Some(root), 1, || 5), 5);
        tr.end(root);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn trace_file_has_one_parseable_object_per_span() {
        let mut tr = Tracer::default();
        let root = tr.start("request", None, 3);
        tr.time("child", Some(root), 3, || ());
        tr.end(root);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("span-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = crate::json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child.get("name").unwrap().as_str(), Some("child"));
        assert_eq!(child.get("req").unwrap().as_f64(), Some(3.0));
    }
}
