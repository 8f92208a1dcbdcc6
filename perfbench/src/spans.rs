//! In-memory spans for the traced run. The benchmark wraps its calls
//! into each layer's public functions in spans named `<layer>.<call>`;
//! nothing inside the program is instrumented. Spans stay in memory
//! until the run ends and are then written out as one binary file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One closed span: name index, parent span index, and start/end in
/// nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
}

/// A span recorder. A disabled tracer records nothing, so one code
/// path serves the plain and the traced pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let name = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name: u16::try_from(name).expect("fewer than 2^16 span names"),
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open on an enabled tracer.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of the spans named `name` recorded since the
    /// tracer held `since` spans ([`Tracer::len`]), ns, and their count.
    pub fn total_ns(&self, since: usize, name: &str) -> (u64, u64) {
        let Some(idx) = self.names.iter().position(|n| *n == name) else {
            return (0, 0);
        };
        self.spans[since.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name as usize == idx)
            .fold((0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1))
    }

    /// Self time per layer, ns: each span's duration minus the part
    /// its direct children cover, summed by the name's layer prefix
    /// (the text before the first `.`).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let name = self.names[s.name as usize];
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Writes every span: a text header `perfbench-spans 1`, a line of
    /// tab-separated span names, then one 22-byte little-endian record
    /// per span — name index (u16), parent index (u32, `u32::MAX` for
    /// roots), start and end in ns (u64 each).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "perfbench-spans 1")?;
        writeln!(out, "{}", self.names.join("\t"))?;
        for s in &self.spans {
            out.write_all(&s.name.to_le_bytes())?;
            out.write_all(&s.parent.to_le_bytes())?;
            out.write_all(&s.start_ns.to_le_bytes())?;
            out.write_all(&s.end_ns.to_le_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.enter("bench.outer");
        t.span("margot.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        assert_eq!(t.len(), 2);
        let by_layer = t.self_ns_by_layer();
        let (outer, _) = t.total_ns(0, "bench.outer");
        let (inner, n) = t.total_ns(0, "margot.inner");
        assert_eq!(
            t.total_ns(1, "bench.outer"),
            (0, 0),
            "spans before the mark are skipped"
        );
        assert_eq!(n, 1);
        assert!(inner >= 2_000_000);
        assert_eq!(by_layer["margot"], inner);
        assert_eq!(by_layer["bench"], outer - inner);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("margot.inner", || 3), 3);
        t.exit();
        assert_eq!(t.len(), 0);
        assert!(t.self_ns_by_layer().is_empty());
    }
}
