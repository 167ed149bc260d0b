//! In-memory span recorder for the traced replay.
//!
//! Every call into a layer is a [`Span`] with a name, start, end, parent
//! and the id of the op it belongs to. Spans stay in memory and are
//! written out once, when the benchmark ends. A span's *layer* is the
//! first dot-separated segment of its name (`retime.solve` belongs to
//! `retime`), which is also the crate the call goes into.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closures, so the untraced replay executes the same calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for op `op`; spans opened by
    /// `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: calls, busy (span) time and self time, in ns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Self time summed per layer, plus the total time under root spans
/// (the replayed time the shares are taken of).
pub fn self_by_layer(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        *layers.entry(s.layer()).or_default() += self_ns;
    }
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    (layers, roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
        // a third child [90,120) is clipped to the parent -> covers 10.
        // child 1 has a grandchild [15,25) -> self 10.
        let spans = vec![
            span("explore.request", None, 0, 100),
            span("retime.solve", Some(0), 10, 30),
            span("codegen", Some(0), 20, 50),
            span("schedule.maxlive", Some(0), 90, 120),
            span("dfg.wd", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 30, 30, 10]);
        let (layers, roots) = self_by_layer(&spans);
        assert_eq!(roots, 100);
        assert_eq!(layers["explore"], 50);
        assert_eq!(layers["retime"], 10);
        assert_eq!(layers["dfg"], 10);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["retime.solve"],
            NameTotals {
                calls: 1,
                busy_ns: 20,
                self_ns: 10
            }
        );
    }

    #[test]
    fn disjoint_and_nested_children_add_up() {
        let spans = vec![
            span("verify.case", None, 0, 60),
            span("vm.compile", Some(0), 0, 10),
            span("vm.execute", Some(0), 10, 25),
            span("verify.case", None, 100, 110),
        ];
        assert_eq!(self_times(&spans), vec![35, 10, 15, 10]);
        assert_eq!(self_by_layer(&spans).1, 70);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut t = Tracer::new(true);
        t.span("verify.case", 7, |t| {
            t.span("vm.compile", 7, |_| ());
            t.span("vm.execute", 7, |_| ());
        });
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("vm.compile", 0, |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
