//! `sim-large-*`: the event cores on one graph far larger than the caches.
//!
//! One connected G(n = 10⁵, extra degree 8, weights Uniform(1, 64)) is
//! built from the seed. Each of the three workloads times one core on
//! it, under `WorstCase` delays, so each core's rate is gated on its own:
//!
//! - `sim-large-flood`: Flood on the sequential `Simulator`;
//! - `sim-large-shard`: Flood on the `ShardedSimulator` with one shard
//!   per thread, checked against one untimed sequential run;
//! - `sim-large-spt`: `SPT_recur` with Δ = 16 on the `Simulator`.
//!
//! One operation is one run; its work is the events it delivers.

use crate::trace::{Layer, Tracer};
use crate::{median, proc_status_mb, threads, Ctx, Report, Rng};
use csp_algo::flood::Flood;
use csp_algo::spt::recur::SptRecur;
use csp_algo::util::tree_from_parents;
use csp_graph::generators::{connected_gnp, WeightDist};
use csp_graph::{NodeId, ShardPlan, WeightedGraph};
use csp_sim::{CostReport, DelayModel, Run, ShardedSimulator, SimError, Simulator};
use std::time::Instant;

const N: usize = 100_000;
const EXTRA_DEGREE: f64 = 8.0;
const DIST: WeightDist = WeightDist::Uniform(1, 64);
const SPT_DELTA: u64 = 16;
/// Set-up repetitions, about a second of graph generation.
const SETUP_REPS: usize = 15;

/// The core one `sim-large-*` workload times.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Core {
    Flood,
    Shard,
    Spt,
}

impl Core {
    fn name(self) -> &'static str {
        match self {
            Core::Flood => "flood",
            Core::Shard => "sharded flood",
            Core::Spt => "SPT_recur",
        }
    }

    /// The design names of `work_per_s`, `op_ms_p50` and `op_ms_tail`.
    fn names(self) -> [(&'static str, &'static str); 3] {
        match self {
            Core::Flood => [
                ("flood_events_per_s", "events/s"),
                ("flood_run_ms_p50", "ms"),
                ("flood_run_ms_p90", "ms"),
            ],
            Core::Shard => [
                ("sharded_flood_events_per_s", "events/s"),
                ("sharded_flood_run_ms_p50", "ms"),
                ("sharded_flood_run_ms_p90", "ms"),
            ],
            Core::Spt => [
                ("spt_events_per_s", "events/s"),
                ("spt_run_ms_p50", "ms"),
                ("spt_run_ms_p90", "ms"),
            ],
        }
    }
}

/// What one run hands to the checks.
enum Outcome {
    Flood(Result<Run<Flood>, SimError>),
    Spt(Result<Run<SptRecur>, SimError>),
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, core: Core) -> Report {
    let mut report = Report::new(0.9, core.names());
    let mut rng = Rng::new(ctx.seed);
    let graph_seed = rng.next_u64();
    let root = NodeId::new(rng.below(N as u64) as usize);
    let k = threads();

    // The set-up repetitions all run before the loop, unlike the other
    // workloads' (see `Report::setup_value`): a run's queue and slab reuse
    // the memory the dropped graphs leave, and with repetitions between
    // runs `peak_rss_mb` of Flood read 103 or 117 to 124 MB by seed.
    let (mut gen_s, mut plan_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let traced = tr.begin_op(rep % 2 == 1);
        let t0 = Instant::now();
        let g = tr.span(Layer::Graph, "generators::connected_gnp", || {
            connected_gnp(N, EXTRA_DEGREE / N as f64, DIST, graph_seed)
        });
        let t1 = Instant::now();
        let plan = (core == Core::Shard).then(|| {
            tr.span(Layer::Graph, "ShardPlan::derive", || {
                ShardPlan::derive(&g, k)
            })
        });
        let t2 = Instant::now();
        gen_s.push((t1 - t0).as_secs_f64());
        plan_s.push((t2 - t1).as_secs_f64());
        report.setup.push(((t2 - t0).as_secs_f64(), traced));
        built = Some((g, plan));
    }
    let (g, plan) = built.expect("at least one set-up repetition");
    let m = g.edge_count() as u64;
    let flood = |v: NodeId, _: &WeightedGraph| Flood::new(v == root);
    let spt = |v: NodeId, _: &WeightedGraph| SptRecur::new(v, root, SPT_DELTA);

    // Untimed references for the checks.
    tr.begin_op(true);
    let reference = tr.span(Layer::Bench, "check: Dijkstra", || {
        csp_graph::algo::distances(&g, root)
    });
    let mut sharded = ShardedSimulator::new(&g);
    let mut sequential: Option<(CostReport, f64)> = None;
    if let Some(plan) = plan {
        let cut = tr.span(Layer::Graph, "ShardPlan::cut", || plan.cut(&g));
        report.metric("graph.cut_edges", cut.cut_edges as f64, "count");
        report.metric(
            "graph.min_cut_weight",
            cut.min_cut_weight.map_or(0.0, |w| w.get() as f64),
            "count",
        );
        sharded.delay(DelayModel::WorstCase).threads(k).plan(plan);
        let t = Instant::now();
        let seq = tr.span(Layer::Sim, "check: Simulator::run flood", || {
            Simulator::new(&g).delay(DelayModel::WorstCase).run(flood)
        });
        let secs = t.elapsed().as_secs_f64();
        match seq {
            Ok(run) => sequential = Some((run.cost, secs)),
            Err(e) => report.check(|| format!("sequential reference flood failed: {e}"), false),
        }
    }

    let mut run_s: Vec<f64> = Vec::new();
    let mut events = 0u64;
    let (mut overflow_pushes, mut bucket_window) = (0u64, 0u64);
    let mut rss_after_run_mb = 0.0;
    let started = Instant::now();
    // Two runs at least, so the traced run has a traced and an untraced one.
    while !ctx.done(started, run_s.len(), 2) {
        let traced = tr.begin_op(run_s.len() % 2 == 1);
        let op = tr.enter(Layer::Bench, "run");
        let t = Instant::now();
        let outcome = match core {
            Core::Flood => Outcome::Flood(tr.span(Layer::Sim, "Simulator::run flood", || {
                Simulator::new(&g).delay(DelayModel::WorstCase).run(flood)
            })),
            Core::Shard => {
                Outcome::Flood(tr.span(Layer::Shard, "ShardedSimulator::run flood", || {
                    sharded.run(flood)
                }))
            }
            Core::Spt => Outcome::Spt(tr.span(Layer::Sim, "Simulator::run spt_recur", || {
                Simulator::new(&g).delay(DelayModel::WorstCase).run(spt)
            })),
        };
        let secs = t.elapsed().as_secs_f64();
        if run_s.is_empty() {
            rss_after_run_mb = proc_status_mb("VmRSS");
        }

        let check = tr.enter(Layer::Bench, "check");
        let n_run = run_s.len();
        let what = core.name();
        let cost = match outcome {
            Outcome::Flood(Ok(run)) => {
                report.check(
                    || {
                        format!(
                            "run {n_run}: {what} delivered {} events, expected 2m = {}",
                            run.cost.messages,
                            2 * m
                        )
                    },
                    run.cost.messages == 2 * m,
                );
                let parents: Vec<Option<NodeId>> = run.states.iter().map(Flood::parent).collect();
                report.check(
                    || format!("run {n_run}: {what} tree does not span"),
                    tree_from_parents(&g, root, &parents).is_spanning(),
                );
                if let Some((seq, _)) = &sequential {
                    report.check(
                        || format!("run {n_run}: sharded flood CostReport differs from sequential"),
                        *seq == run.cost,
                    );
                }
                Some(run.cost)
            }
            Outcome::Spt(Ok(run)) => {
                let parents: Vec<Option<NodeId>> =
                    run.states.iter().map(SptRecur::parent).collect();
                let exact = run
                    .states
                    .iter()
                    .zip(&reference)
                    .all(|(s, d)| s.dist() == Some(*d));
                report.check(
                    || format!("run {n_run}: SPT_recur tree does not span or distances differ"),
                    tree_from_parents(&g, root, &parents).is_spanning() && exact,
                );
                Some(run.cost)
            }
            Outcome::Flood(Err(e)) | Outcome::Spt(Err(e)) => {
                report.check(|| format!("run {n_run}: {what} failed: {e}"), false);
                None
            }
        };
        tr.exit(check);
        tr.exit(op);

        let Some(cost) = cost else { continue };
        report.ops.record(traced, secs, cost.messages);
        run_s.push(secs);
        events = cost.messages;
        overflow_pushes += cost.overflow_pushes;
        bucket_window = bucket_window.max(cost.bucket_window);
    }

    let runs = run_s.len();
    let median_s = median(&run_s);
    report.notes.push(format!(
        "sim-large ({what}): n={N} m={m} root={} threads={k} runs={runs}",
        root.index(),
        what = core.name()
    ));
    report.metric("graph.gen_s", median(&gen_s), "s");
    if core == Core::Shard {
        report.metric("graph.shard_plan_s", median(&plan_s), "s");
    }
    report.metric(
        "graph.bytes_per_vertex",
        g.memory_bytes() as f64 / N as f64,
        "B",
    );
    let ns_per_event = median_s * 1e9 / events as f64;
    match core {
        Core::Flood | Core::Spt => {
            let prefix = if core == Core::Flood {
                "sim.flood"
            } else {
                "sim.spt"
            };
            report.metric(format!("{prefix}.run_s"), median_s, "s");
            report.metric(format!("{prefix}.events"), events as f64, "count");
            report.metric(format!("{prefix}.ns_per_event"), ns_per_event, "ns");
            report.metric(
                "sim.overflow_pushes",
                overflow_pushes as f64 / runs as f64,
                "count",
            );
            report.metric("sim.bucket_window", bucket_window as f64, "count");
            report.metric("sim.rss_after_run_mb", rss_after_run_mb, "MB");
        }
        Core::Shard => {
            report.metric("shard.flood.run_s", median_s, "s");
            report.metric("shard.flood.ns_per_event", ns_per_event, "ns");
            if let Some((_, seq_s)) = sequential {
                report.notes.push(format!(
                    "shard.speedup: sequential base {seq_s:.4} s (one untimed run), \
                     {k} shards {median_s:.4} s (median of {runs})"
                ));
                report.metric("shard.speedup", seq_s / median_s, "ratio");
            }
        }
    }
    report
}
