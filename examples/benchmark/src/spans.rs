//! The harness's own spans, recorded around every call into a layer's
//! public function. One [`Recorder`] per thread, kept in memory and
//! written out when the run ends; spans inside the program are a later
//! change and will be checked against these.

use std::io::{self, Write};
use std::path::Path;

use dpfs_core::trace::now_ns;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for an op (root) span.
    pub parent: u64,
    /// Shared by every span of one operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span sink. Span and op ids are `thread << 40 | counter`, so
/// they are unique across the recorders of one run without coordination.
pub struct Recorder {
    enabled: bool,
    thread: u64,
    next: u64,
    current: Option<(u64, u64)>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(thread: usize) -> Recorder {
        Recorder {
            enabled: false,
            thread: thread as u64,
            next: 0,
            current: None,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off; off, every call below is a plain
    /// pass-through that reads no clock.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Run `f` as one operation: a root span that the [`Recorder::layer`]
    /// calls inside it hang from.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.fresh_id();
        let outer = self.current.replace((id, id));
        let start_ns = now_ns();
        let out = f(self);
        self.spans.push(Span {
            id,
            parent: 0,
            op: id,
            name,
            start_ns,
            end_ns: now_ns(),
        });
        self.current = outer;
        out
    }

    /// Run `f` as a child span of the current operation.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some((op, parent)) = self.current.filter(|_| self.enabled) else {
            return f();
        };
        let id = self.fresh_id();
        let start_ns = now_ns();
        let out = f();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: now_ns(),
        });
        out
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }
}

/// Write every recorder's spans as JSON lines.
pub fn write_jsonl(path: &Path, recorders: &[&Recorder]) -> io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for rec in recorders {
        for s in &rec.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, rec.thread, s.name, s.start_ns, s.end_ns
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_link_to_their_op_and_disabled_records_nothing() {
        let mut rec = Recorder::new(3);
        assert_eq!(rec.op("op", |r| r.layer("a", || 7)), 7);
        assert!(rec.spans.is_empty());

        rec.set_enabled(true);
        rec.op("op", |r| {
            r.layer("a", || ());
            r.layer("b", || ());
        });
        assert_eq!(rec.spans.len(), 3);
        let root = rec.spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(root.parent, 0);
        for child in rec.spans.iter().filter(|s| s.name != "op") {
            assert_eq!(child.parent, root.id);
            assert_eq!(child.op, root.op);
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        assert_eq!(rec.durations("a").len(), 1);
    }
}
