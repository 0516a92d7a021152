//! Wall-clock spans around each call the benchmark makes into a layer.
//!
//! Spans are recorded only here, in the benchmark's own files, never inside
//! the program. They stay in memory and are written out when the run ends. A
//! span's self time is its duration minus the part its child spans cover; a
//! `block` span's self time is therefore the benchmark's own cost (input
//! generation, output checks, bookkeeping).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans a run may hold before recording stops at the next block boundary.
const SPAN_CAP: usize = 1 << 18;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based; `parent == 0` marks a root span.
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Index of the timed block the span belongs to (0 during set-up).
    pub block: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an entered span; `None` while recording is off.
#[must_use]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    block: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            block: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Start timed block `block`, recording its spans only when `want` and
    /// the span budget allows. Switched only between blocks, so a recorded
    /// parent never has an unrecorded child.
    pub fn begin_block(&mut self, block: usize, want: bool) {
        debug_assert!(self.stack.is_empty());
        self.block = block as u32;
        self.on = want && self.spans.len() < SPAN_CAP;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            block: self.block,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.origin.elapsed().as_nanos() as u64;
            assert_eq!(self.stack.pop(), Some(id), "spans must nest");
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// One JSON object per span: id, parent, name, workload, block, start,
    /// end and self time, all times in nanoseconds since the run began.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"block\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.id,
                span.parent,
                span.name,
                workload,
                span.block,
                span.start_ns,
                span.end_ns,
                self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus its direct children's.
/// Children run one after another inside their parent, so together they can
/// never cover more than it; that is asserted, not assumed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != 0 {
            let parent = &spans[span.parent as usize - 1];
            assert!(
                parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                "span {} ({}) escapes its parent {}",
                span.id,
                span.name,
                parent.id
            );
            covered[span.parent as usize - 1] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, children)| {
            span.duration_ns()
                .checked_sub(children)
                .expect("child spans exceed their parent")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            block: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 15, 20),
            span(4, 1, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 40]);
    }

    #[test]
    #[should_panic(expected = "escapes its parent")]
    fn a_child_outside_its_parent_is_refused() {
        self_times(&[span(1, 0, 0, 10), span(2, 1, 5, 20)]);
    }

    #[test]
    fn recording_nests_and_switches_between_blocks() {
        let mut t = Tracer::new(true);
        let outer = t.enter("block");
        t.span("sender.fill", || ());
        t.exit(outer);
        t.begin_block(1, false);
        t.span("host.drain", || ());
        t.begin_block(2, true);
        t.span("host.drain", || ());
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.block))
            .collect();
        assert_eq!(
            names,
            vec![("block", 0, 0), ("sender.fill", 1, 0), ("host.drain", 0, 2)]
        );
        assert!(self_times(t.spans()).iter().all(|&ns| ns < 1_000_000_000));
    }
}
