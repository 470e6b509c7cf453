//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a workspace crate's public function; nothing inside the
//! crates is instrumented. A span holds its layer, name, start, end and
//! parent, and every span of one operation shares that operation's id.
//! Spans stay in memory until the workload ends, then [`Tracer::write`]
//! dumps them as JSON lines.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers time is attributed to: the workspace crates (with
/// `csp-adversary` split into search and schedule text), plus the
/// benchmark's own harness work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself: input generation, output checks, op spans.
    Bench,
    /// csp-graph: generators, CSR graph, `ShardPlan`.
    Graph,
    /// csp-sim `runtime`: the sequential core.
    Sim,
    /// csp-sim `shard`: the sharded core.
    Shard,
    /// csp-adversary `search`, `oracle`, `trace` (DPOR).
    Adversary,
    /// csp-adversary `schedule` text.
    Schedule,
    /// csp-serve: `json`, `scenario`, `cache`, `service`.
    Serve,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Graph,
        Layer::Sim,
        Layer::Shard,
        Layer::Adversary,
        Layer::Schedule,
        Layer::Serve,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Graph => "graph",
            Layer::Sim => "sim",
            Layer::Shard => "shard",
            Layer::Adversary => "adversary",
            Layer::Schedule => "schedule",
            Layer::Serve => "serve",
        }
    }
}

struct Span {
    layer: Layer,
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; `None` when the current operation is not
/// traced.
pub type SpanId = Option<u32>;

/// Records spans for traced operations and nothing for the others.
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer; with `enabled == false` every call is a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation. Its spans are recorded only when the
    /// tracer is enabled and `traced` is set; the traced run alternates
    /// traced and untraced operations so it can report its own overhead.
    /// Returns whether the operation is traced.
    pub fn begin_op(&mut self, traced: bool) -> bool {
        assert!(self.open.is_empty(), "operation ended with open spans");
        self.op += 1;
        self.active = self.enabled && traced;
        self.active
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer, name: &'static str) -> SpanId {
        if !self.active {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            layer,
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Bytes the span buffer holds — the memory tracing adds.
    pub fn bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// Per layer: `(self seconds, span count)`. A span's self time is
    /// its duration minus its children's; children of one span never
    /// overlap, because the benchmark calls layers from one thread.
    pub fn layer_totals(&self) -> Vec<(Layer, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let mut self_ns = 0u64;
                let mut calls = 0u64;
                for (s, child) in self.spans.iter().zip(&child_ns) {
                    if s.layer == layer {
                        self_ns += (s.end_ns - s.start_ns).saturating_sub(*child);
                        calls += 1;
                    }
                }
                (layer, self_ns as f64 / 1e9, calls)
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, text)
    }
}
