//! In-memory spans and the self-time arithmetic over them.
//!
//! Each transaction is one span tree whose root is the transaction
//! itself. A span's *self time* is its duration minus the part of that
//! interval its children cover; summed over a tree, self times add up to
//! the root's duration exactly, which is what lets per-layer numbers
//! reconcile with a per-transaction total.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer and call, e.g. `eval.guard`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tree (`None` for the root).
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// Self time of every span in `spans` (same order): its duration minus
/// the union of its direct children's intervals, clipped to the span.
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
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Records one span tree at a time against a fixed epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(16),
        }
    }

    /// The instant the recorder's clock counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new tree whose root span is open from now.
    pub fn begin(&mut self, name: &'static str) {
        self.spans.clear();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Runs `f` inside a child span of the root.
    pub fn child<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: Some(0),
            start_ns,
            end_ns,
        });
        out
    }

    /// Closes the root span and returns the finished tree.
    pub fn end(&mut self) -> &[Span] {
        let now = self.now_ns();
        self.spans[0].end_ns = now;
        &self.spans
    }
}

/// Per-layer totals over many span trees.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// name → (self ns, spans).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Trees added.
    pub trees: u64,
    /// Sum of the trees' root durations, ns.
    pub root_ns: u64,
    /// The first trees added, kept whole for the trace file.
    pub sample: Vec<Vec<Span>>,
    /// How many trees to keep in `sample`.
    pub sample_cap: usize,
}

impl LayerTotals {
    /// Totals that keep the first `sample_cap` trees whole.
    pub fn with_sample(sample_cap: usize) -> Self {
        LayerTotals {
            sample_cap,
            ..LayerTotals::default()
        }
    }

    /// Adds one tree (root first).
    pub fn add(&mut self, tree: &[Span]) {
        for (span, own) in tree.iter().zip(self_times(tree)) {
            let entry = self.by_name.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        self.trees += 1;
        self.root_ns += tree[0].end_ns - tree[0].start_ns;
        if self.sample.len() < self.sample_cap {
            self.sample.push(tree.to_vec());
        }
    }

    /// Mean self time per *call* of `name`, µs (0 if never recorded).
    pub fn per_call_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |&(ns, n)| {
            crate::stats::ratio(ns as f64, n as f64) / 1e3
        })
    }

    /// Self time of `name` per *tree*, µs.
    pub fn per_tree_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |&(ns, _)| {
            crate::stats::ratio(ns as f64, self.trees as f64) / 1e3
        })
    }

    /// Mean root duration, µs.
    pub fn root_per_tree_us(&self) -> f64 {
        crate::stats::ratio(self.root_ns as f64, self.trees as f64) / 1e3
    }

    /// The sampled trees as JSON lines, one span per line, each tagged
    /// with `source`.
    pub fn sample_jsonl(&self, source: &str) -> String {
        let mut out = String::new();
        for (tree_id, tree) in self.sample.iter().enumerate() {
            for (i, s) in tree.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"source\":\"{source}\",\"tree\":{tree_id},\"span\":{i},\"name\":\"{}\",\
                     \"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// A hand-built tree: root [0,100) with children [10,30) and
    /// [25,50) (overlapping by 5) and [90,120) (overhanging the root by
    /// 20); the first child has a grandchild [12,20).
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = vec![
            span("tx", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50),
            span("c", Some(0), 90, 120),
            span("a.inner", Some(1), 12, 20),
        ];
        let own = self_times(&tree);
        // root: 100 - |[10,50) ∪ [90,100)| = 100 - 50
        assert_eq!(own, vec![50, 12, 25, 30, 8]);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let tree = vec![
            span("tx", None, 0, 1_000),
            span("a", Some(0), 100, 400),
            span("b", Some(0), 400, 900),
            span("b.inner", Some(2), 450, 600),
        ];
        let total: u64 = self_times(&tree).iter().sum();
        assert_eq!(total, 1_000);
        let mut layers = LayerTotals::with_sample(1);
        layers.add(&tree);
        layers.add(&tree);
        assert_eq!(layers.per_tree_us("tx"), 0.2);
        assert_eq!(layers.per_call_us("b"), 0.35);
        assert_eq!(layers.root_per_tree_us(), 1.0);
        assert_eq!(layers.sample.len(), 1);
        assert_eq!(layers.sample_jsonl("test").lines().count(), 4);
    }

    #[test]
    fn recorder_builds_a_rooted_tree() {
        let mut rec = Recorder::new();
        rec.begin("tx");
        let v = rec.child("work", || 7);
        assert_eq!(v, 7);
        let tree = rec.end().to_vec();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[1].parent, Some(0));
        assert!(tree[0].start_ns <= tree[1].start_ns && tree[1].end_ns <= tree[0].end_ns);
    }
}
