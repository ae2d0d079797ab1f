//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a library
//! layer. Spans of one request share its id; nesting follows the
//! caller's stack, so a span's parent is the span open when it began.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its `end`.
    pub fn begin(&mut self, name: impl Into<String>, req: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus its direct children's. All spans come
    /// from the one caller thread, so a span's children never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Per span name: count, total ms and self ms, in name order.
    pub fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n.to_string(), c, t as f64 / 1e6, o as f64 / 1e6))
            .collect()
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with its
    /// request id, parent index and self time as arguments.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"req\":{},\"parent\":{parent},\"self_us\":{:.3}}}}}{}",
                crate::report::json_str(&s.name),
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.req,
                own as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", 7);
        let kid = t.begin("kid", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(kid);
        t.end(root);
        let own = t.self_ns();
        assert_eq!(t.spans()[kid].parent, Some(root));
        assert_eq!(own[root], t.spans()[root].ns() - t.spans()[kid].ns());
        assert_eq!(own[kid], t.spans()[kid].ns());
        assert!(t.spans().iter().all(|s| s.req == 7));
    }
}
