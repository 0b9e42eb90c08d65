//! Benchmark-side tracing for the `--trace 1` run.
//!
//! Spans (name, start, end, parent) are recorded around each public call
//! the benchmark makes, kept in memory on the recording thread and written
//! out at the end with their self time. A span recorded while tracing is
//! on also opens an `obs` span of the same name, so when the call sits
//! inside one of the program's telemetry windows (an epoch), the window's
//! trace tree places it among the program's own stage spans.
//!
//! Attribution works on [`Node`] trees: the benchmark's spans, with the
//! program's window tree grafted under the span that ran the window. Each
//! node's self time (its duration minus its children's) is charged to its
//! layer, so the layer totals add up to the root's wall time exactly; the
//! root's own self time is the unattributed remainder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use sybil_td::runtime::obs::{self, TraceNode};

/// Layer name of time no layer accounts for.
pub const UNATTRIBUTED: &str = "unattributed";

/// One recorded benchmark span; instants are ns since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (`<layer>.<call>` by convention).
    pub name: &'static str,
    /// Start instant.
    pub start_ns: u64,
    /// End instant.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (and collecting `obs`
/// telemetry process-wide).
pub fn start() {
    obs::set_enabled(true);
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Whether spans are being recorded on this thread.
pub fn active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Stops recording and returns every span recorded on this thread.
pub fn finish() -> Vec<SpanRec> {
    obs::set_enabled(false);
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Guard of an open span; the span ends when it drops.
pub struct Guard {
    index: Option<usize>,
    _obs: Option<obs::Span>,
}

/// Opens a span; a no-op while not recording.
pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.stack.last().copied(),
        });
        rec.stack.push(index);
        Some(index)
    });
    Guard {
        _obs: index.map(|_| obs::span(name)),
        index,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.stack.retain(|&i| i != index);
            }
        });
    }
}

/// Records a span timed elsewhere (a request on a load-generator
/// thread) under `parent`; a no-op while not recording.
pub fn record(name: &'static str, start: Instant, end: Instant, parent: Option<usize>) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let at = |t: Instant| t.saturating_duration_since(rec.origin).as_nanos() as u64;
            rec.spans.push(SpanRec {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent,
            });
        }
    });
}

/// The spans recorded so far on this thread.
pub fn snapshot() -> Vec<SpanRec> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.spans.clone())
            .unwrap_or_default()
    })
}

/// Index of the most recently opened span named `name`.
pub fn last_index(name: &str) -> Option<usize> {
    RECORDER.with(|r| {
        let r = r.borrow();
        r.as_ref()?.spans.iter().rposition(|s| s.name == name)
    })
}

/// Self time of each span: its duration minus the part its direct
/// children cover (children never overlap on one thread).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// A node of an attribution tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Span or stage name.
    pub name: String,
    /// Wall time in ns.
    pub ns: u64,
    /// Nested spans or stages.
    pub children: Vec<Node>,
}

impl Node {
    /// A leaf node.
    pub fn leaf(name: &str, ns: u64) -> Self {
        Self {
            name: name.to_string(),
            ns,
            children: Vec::new(),
        }
    }

    /// Builds the tree under span `root` from recorded spans; a span with
    /// a window tree in `windows` takes that tree as its children instead
    /// of its recorded ones (the window saw every nested span).
    pub fn from_spans(
        spans: &[SpanRec],
        root: usize,
        windows: &BTreeMap<usize, Vec<Node>>,
    ) -> Self {
        let s = &spans[root];
        let children = match windows.get(&root) {
            Some(tree) => tree.clone(),
            None => spans
                .iter()
                .enumerate()
                .filter(|(_, c)| c.parent == Some(root))
                .map(|(i, _)| Node::from_spans(spans, i, windows))
                .collect(),
        };
        Self {
            name: s.name.to_string(),
            ns: s.end_ns - s.start_ns,
            children,
        }
    }

    /// Converts a program window's trace tree.
    pub fn from_window(nodes: &[TraceNode]) -> Vec<Node> {
        nodes
            .iter()
            .map(|n| Node {
                name: n.name.to_string(),
                ns: n.total_ns,
                children: Node::from_window(&n.children),
            })
            .collect()
    }

    /// Total ns of every node named `name` in this tree.
    pub fn total(&self, name: &str) -> u64 {
        let own = if self.name == name { self.ns } else { 0 };
        own + self.children.iter().map(|c| c.total(name)).sum::<u64>()
    }

    /// Charges each node's self time to its layer. The root's layer is
    /// [`UNATTRIBUTED`]; a node whose name maps to no layer inherits its
    /// parent's. Self time is signed so the totals add up to the root's
    /// wall time exactly, even when separately timed children overrun
    /// their parent by a few ns.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, i128> {
        let mut totals = BTreeMap::new();
        self.charge(UNATTRIBUTED, &mut totals);
        totals
    }

    fn charge(&self, inherited: &'static str, totals: &mut BTreeMap<&'static str, i128>) {
        let layer = layer_of(&self.name).unwrap_or(inherited);
        let children: i128 = self.children.iter().map(|c| i128::from(c.ns)).sum();
        *totals.entry(layer).or_insert(0) += i128::from(self.ns) - children;
        for child in &self.children {
            child.charge(layer, totals);
        }
    }
}

/// The workspace layer (crate, or crate stage) a span or stage name
/// belongs to; `None` for pass-through names such as the runtime's
/// `parallel_map` wrapper, whose time is its caller's work.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = |p: &str| name.starts_with(p);
    Some(match name {
        "platform.ingest" => "platform.ingest",
        "platform.epoch" | "platform.latest" | "server.epoch" | "epoch.regroup" | "epoch.swap" => {
            "platform.epoch"
        }
        "epoch.fold" => "truth.fold",
        "epoch.audit" => "platform.audit",
        "epoch.discover" | "core.discover" => "core.framework",
        "bench.join_edges" => "bench",
        "fingerprint.extract_all" => "fingerprint",
        "runtime.json.render" | "runtime.json.parse" => "runtime.json",
        "server.http" => "server.http",
        _ if prefix("core.ag_ts") || prefix("ag_ts.") => "core.ag_ts",
        _ if prefix("core.ag_tr") || prefix("ag_tr.") => "core.ag_tr",
        _ if prefix("ag_fp.") => "core.ag_fp",
        _ if prefix("framework.") => "core.framework",
        _ if prefix("timeseries.") => "timeseries",
        _ if prefix("cluster.") => "cluster",
        _ if prefix("signal.") => "signal",
        _ if prefix("fingerprint.") => "fingerprint",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            rec("pass", 0, 100, None),
            rec("platform.ingest", 10, 40, Some(0)),
            rec("platform.epoch", 40, 90, Some(0)),
            rec("core.ag_tr", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn layer_totals_add_up_to_the_wall_time() {
        let spans = [
            rec("pass", 0, 1000, None),
            rec("platform.ingest", 0, 200, Some(0)),
            rec("platform.epoch", 200, 950, Some(0)),
            rec("core.ag_tr", 300, 400, Some(2)),
        ];
        // The epoch's window tree replaces its recorded children.
        let window = vec![Node {
            name: "server.epoch".into(),
            ns: 740,
            children: vec![
                Node::leaf("epoch.fold", 100),
                Node {
                    name: "epoch.regroup".into(),
                    ns: 300,
                    children: vec![Node {
                        name: "core.ag_tr".into(),
                        ns: 250,
                        children: vec![Node {
                            name: "runtime.parallel.map".into(),
                            ns: 200,
                            children: vec![Node::leaf("timeseries.pruned_pairwise", 150)],
                        }],
                    }],
                },
                Node::leaf("epoch.discover", 300),
            ],
        }];
        let windows = BTreeMap::from([(2, window)]);
        let tree = Node::from_spans(&spans, 0, &windows);
        let totals = tree.layer_totals();
        assert_eq!(totals.values().sum::<i128>(), 1000);
        assert_eq!(totals["unattributed"], 50);
        assert_eq!(totals["platform.ingest"], 200);
        // 750 epoch − 740 window + 40 window self + 50 regroup self.
        assert_eq!(totals["platform.epoch"], 10 + 40 + 50);
        assert_eq!(totals["truth.fold"], 100);
        // The parallel wrapper is charged to its caller.
        assert_eq!(totals["core.ag_tr"], 100);
        assert_eq!(totals["timeseries"], 150);
        assert_eq!(totals["core.framework"], 300);
        assert_eq!(tree.total("epoch.regroup"), 300);
    }

    #[test]
    fn recorder_nests_spans_on_one_thread() {
        start();
        {
            let _a = span("pass");
            let _b = span("platform.ingest");
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(!active());
        let _noop = span("pass");
    }
}
