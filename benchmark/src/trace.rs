//! In-memory spans around calls into the pipeline's layers.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::clock::Clock;

/// One timed call. Times are nanoseconds on the tracer's [`Clock`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Unique within one trace.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer name, e.g. `units.drive`.
    pub name: String,
    /// Workload the span belongs to.
    pub workload: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; spans stay in memory until the caller takes
/// them.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty trace for `workload`.
    pub fn new(clock: Clock, workload: &str) -> Self {
        Tracer {
            clock,
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.clock.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            workload: self.workload.clone(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.clock.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span, in `spans` order: its duration minus the part
/// of its interval that its children cover. Overlapping children (work
/// that ran concurrently) count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) and span count per layer name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&str, (u64, usize)> {
    let mut out: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.as_str()).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}
