//! `adversary-small`: thousands of tiny, cache-resident evaluations.
//!
//! Each cycle runs six hunt quartets, one DPOR exploration and two churn
//! hunts. A quartet is one `find_worst_schedule` (default
//! `SearchConfig`) on each of the four committed `SPT_recur` one-strip
//! witness instances; the churn hunt runs on `Detect<Resilient>` gnp-n12
//! with crash, rejoin and drift flips; the exploration is one
//! `explore_exhaustive` (class budget 4096) of Flood on gnp-n8, n10 or
//! n12 in turn. One operation is one quartet, churn hunt or exploration;
//! its work is the evaluations it reports. The instances are the
//! committed ones; the search seeds come from the workload seed.
//!
//! Quartets are two thirds of the operations, so `op_ms_p50` is a
//! quartet, and every quartet does the same four hunts, so the median
//! does not depend on which instance lands on it. Churn hunts, the
//! slowest kind, are the top two ninths, so `op_ms_tail` (p90) falls
//! near the middle of the churn hunts; two per cycle give it enough of
//! them to be steady.

use crate::trace::{Layer, Tracer};
use crate::{guarded, median, threads, Ctx, Report, Rng};
use csp_adversary::{
    explore_exhaustive, find_worst_schedule, replay, Schedule, SearchConfig, SearchOutcome,
};
use csp_algo::flood::Flood;
use csp_algo::resilient::{Metric, Resilient};
use csp_algo::spt::recur::SptRecur;
use csp_graph::generators::{self, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{DelayOracle, Detect, DetectConfig, MsgInfo, Process, Simulator};
use std::time::Instant;

/// Strip depth putting `SPT_recur` in its single-strip regime.
const ONE_STRIP: u64 = 1 << 40;
const QUARTETS_PER_CYCLE: usize = 6;
const CHURN_PER_CYCLE: usize = 2;
const CLASS_BUDGET: usize = 4096;
/// The full enumeration behind the gnp-n8 DPOR check.
const N8_CUBE: u64 = 65_536;

fn make_recur(v: NodeId, _: &WeightedGraph) -> SptRecur {
    SptRecur::new(v, NodeId::new(0), ONE_STRIP)
}

fn make_flood(v: NodeId, _: &WeightedGraph) -> Flood {
    Flood::new(v == NodeId::new(0))
}

/// Detector tuning of the committed churn witness.
fn detector() -> DetectConfig {
    DetectConfig::new(8, 30, 0)
}

fn make_churn(v: NodeId, g: &WeightedGraph) -> Detect<Resilient> {
    Detect::new(
        Resilient::new(v, NodeId::new(0), Metric::Weighted, g),
        detector(),
    )
}

struct Instances {
    /// The committed `SPT_recur` witness instances.
    witnesses: Vec<(&'static str, WeightedGraph)>,
    churn: WeightedGraph,
    churn_horizon: u64,
    /// Flood instances of the DPOR explorer.
    dpor: Vec<(&'static str, WeightedGraph)>,
}

fn instances() -> Instances {
    let churn = generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42);
    let max_w = churn
        .edges()
        .map(|e| e.weight().get())
        .max()
        .expect("edges");
    Instances {
        witnesses: vec![
            (
                "gnp-n12",
                generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 16), 42),
            ),
            (
                "gnp-n16",
                generators::connected_gnp(16, 0.25, WeightDist::Uniform(1, 32), 7),
            ),
            ("heavy-chord-n12", generators::heavy_chord_cycle(12, 64)),
            (
                "sparse-heavy-n14",
                generators::sparse_heavy_path(14, 100, 3),
            ),
        ],
        churn_horizon: detector().detection_horizon(max_w),
        churn,
        dpor: vec![
            (
                "gnp-n8",
                generators::connected_gnp(8, 0.25, WeightDist::Uniform(1, 2), 8),
            ),
            (
                "gnp-n10",
                generators::connected_gnp(10, 0.3, WeightDist::Uniform(1, 2), 10),
            ),
            (
                "gnp-n12",
                generators::connected_gnp(12, 0.3, WeightDist::Uniform(1, 2), 12),
            ),
        ],
    }
}

#[derive(Clone, Copy)]
enum Op {
    Quartet,
    Churn,
    Explore(usize),
}

/// One search call of an operation.
#[derive(Clone, Copy)]
enum Task {
    Hunt(usize),
    Churn,
    Explore(usize),
}

/// Cycle `c`'s operations: the exploration visits the DPOR instances in
/// turn.
fn cycle(c: usize, dpor: usize) -> Vec<Op> {
    let mut ops = vec![Op::Quartet; QUARTETS_PER_CYCLE];
    ops.insert(QUARTETS_PER_CYCLE / 2, Op::Explore(c % dpor));
    ops.extend([Op::Churn; CHURN_PER_CYCLE]);
    ops
}

/// Per-kind tallies.
#[derive(Default)]
struct Tally {
    ms: Vec<f64>,
    evals: u64,
    /// Evaluations and best time of the first cycle, which every run
    /// completes, so they repeat exactly for a given seed.
    first_evals: u64,
    first_best: u64,
}

/// Checks that the schedule survives its text form and replays to the
/// reported time.
fn round_trips<P: Process>(
    g: &WeightedGraph,
    make: impl FnMut(NodeId, &WeightedGraph) -> P,
    out: &SearchOutcome,
) -> Result<(), String> {
    let parsed = Schedule::from_text(&out.schedule.to_text()).map_err(|e| e.to_string())?;
    if parsed != out.schedule {
        return Err("schedule changed through to_text/from_text".to_string());
    }
    let run = replay(g, make, &parsed);
    if run.cost.completion != out.best_time {
        return Err(format!(
            "replay completes at {} but the search reported {}",
            run.cost.completion, out.best_time
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Report {
    let mut report = Report::new(
        0.9,
        [
            ("search_evals_per_s", "evals/s"),
            ("hunt_quartet_ms_p50", "ms"),
            ("hunt_ms_p90", "ms"),
        ],
    );
    let mut rng = Rng::new(ctx.seed);
    let k = threads();

    // One set-up repetition: the instance graphs. It runs again before
    // every operation, so that `setup_s` samples the whole run.
    let setup = |tr: &mut Tracer, report: &mut Report, traced: bool| {
        let t = Instant::now();
        let inst = tr.span(Layer::Graph, "generators (instances)", instances);
        report.setup.push((t.elapsed().as_secs_f64(), traced));
        inst
    };
    tr.begin_op(false);
    let inst = setup(tr, &mut report, false);
    let search = |seed: u64| {
        SearchConfig::builder()
            .seed(seed)
            .threads(k)
            .build()
            .expect("default search config is valid")
    };
    // No tail polish: its sweep length follows the incumbent's schedule,
    // so polished churn hunts did 1,700 to 3,200 evaluations depending on
    // the seed; hill climbing alone does a fixed ~840.
    let churn_cfg = |seed: u64| {
        SearchConfig::builder()
            .seed(seed)
            .threads(k)
            .random_probes(16)
            .hill_rounds(48)
            .candidates_per_round(16)
            .polish_passes(0)
            .crash_probes(inst.churn.node_count())
            .crash_time_flips(2)
            .rejoin_flips(1)
            .drift_flips(1)
            .crash_horizon(inst.churn_horizon)
            .build()
            .expect("churn search config is valid")
    };
    let explore_cfg = SearchConfig::builder()
        .exhaustive(CLASS_BUDGET)
        .build()
        .expect("exhaustive config is valid");

    let mut hunts: Vec<Tally> = (0..inst.witnesses.len())
        .map(|_| Tally::default())
        .collect();
    let mut churn = Tally::default();
    let mut explore = Tally::default();
    let mut explored = vec![false; inst.dpor.len()];
    let (mut classes, mut pruned) = (0u64, 0u64);
    let mut n8_best = None;
    let started = Instant::now();
    let mut cycles = 0;
    // Enough cycles for every DPOR instance to be explored once, and for
    // the traced run to have traced and untraced cycles.
    let min_ops = inst.dpor.len() * cycle(0, inst.dpor.len()).len();
    while !ctx.done(started, report.ops.count(), min_ops) {
        let first = cycles == 0;
        for op in cycle(cycles, inst.dpor.len()) {
            // Whole cycles alternate, so both halves hold the same mix.
            let traced = tr.begin_op(cycles % 2 == 1);
            setup(tr, &mut report, traced);
            let span = tr.enter(Layer::Bench, "op");
            let tasks: Vec<Task> = match op {
                Op::Quartet => (0..inst.witnesses.len()).map(Task::Hunt).collect(),
                Op::Churn => vec![Task::Churn],
                Op::Explore(i) => vec![Task::Explore(i)],
            };
            let (mut op_secs, mut op_evals, mut op_ok) = (0.0, 0u64, true);
            for task in tasks {
                let seed = rng.next_u64();
                let t = Instant::now();
                let out = match task {
                    Task::Hunt(i) => tr.span(Layer::Adversary, "find_worst_schedule", || {
                        guarded(|| {
                            find_worst_schedule(&inst.witnesses[i].1, make_recur, &search(seed))
                        })
                    }),
                    Task::Churn => tr.span(Layer::Adversary, "find_worst_schedule churn", || {
                        guarded(|| find_worst_schedule(&inst.churn, make_churn, &churn_cfg(seed)))
                    }),
                    Task::Explore(i) => tr.span(Layer::Adversary, "explore_exhaustive", || {
                        guarded(|| explore_exhaustive(&inst.dpor[i].1, make_flood, &explore_cfg))
                    }),
                };
                let secs = t.elapsed().as_secs_f64();
                let check = tr.enter(Layer::Bench, "check");
                let (name, verdict) = match (&out, task) {
                    (Err(e), _) => ("operation".to_string(), Err(format!("panicked: {e}"))),
                    (Ok(o), Task::Hunt(i)) => (
                        format!("hunt {}", inst.witnesses[i].0),
                        guarded(|| round_trips(&inst.witnesses[i].1, make_recur, o))
                            .and_then(|r| r),
                    ),
                    (Ok(o), Task::Churn) => (
                        "churn hunt".to_string(),
                        guarded(|| round_trips(&inst.churn, make_churn, o)).and_then(|r| r),
                    ),
                    (Ok(o), Task::Explore(i)) => (
                        format!("explore {}", inst.dpor[i].0),
                        guarded(|| round_trips(&inst.dpor[i].1, make_flood, o)).and_then(|r| r),
                    ),
                };
                tr.exit(check);
                report.check(
                    || format!("{name} (seed {seed}): {}", verdict.clone().unwrap_err()),
                    verdict.is_ok(),
                );
                let Ok(out) = out else {
                    op_ok = false;
                    continue;
                };
                op_secs += secs;
                op_evals += out.evaluations as u64;
                let tally = match task {
                    Task::Hunt(i) => &mut hunts[i],
                    Task::Churn => &mut churn,
                    Task::Explore(i) => {
                        if !explored[i] {
                            explored[i] = true;
                            classes += out.classes_explored;
                            pruned += out.schedules_pruned;
                            if i == 0 {
                                n8_best = Some(out.best_time.get());
                            }
                        }
                        &mut explore
                    }
                };
                tally.ms.push(secs * 1e3);
                tally.evals += out.evaluations as u64;
                if first {
                    tally.first_evals += out.evaluations as u64;
                    tally.first_best = tally.first_best.max(out.best_time.get());
                }
            }
            tr.exit(span);
            if op_ok {
                report.ops.record(traced, op_secs, op_evals);
            }
        }
        cycles += 1;
    }

    // The DPOR worst case on gnp-n8 must equal the worst over the full
    // delay cube, enumerated once, untimed.
    tr.begin_op(true);
    let n8 = &inst.dpor[0].1;
    let full = tr.span(Layer::Bench, "check: full enumeration", || {
        guarded(|| enumerate_worst(n8))
    });
    report.check(
        || format!("gnp-n8 DPOR worst {n8_best:?} differs from full enumeration {full:?}"),
        matches!(full, Ok((N8_CUBE, worst)) if Some(worst) == n8_best),
    );

    let hunt_count: usize = hunts.iter().map(|h| h.ms.len()).sum();
    report.notes.push(format!(
        "adversary-small: {cycles} cycles, {hunt_count} witness hunts, {} churn hunts, \
         {} explorations, {k} search threads",
        churn.ms.len(),
        explore.ms.len()
    ));
    for ((name, _), h) in inst.witnesses.iter().zip(&hunts) {
        let total_ms: f64 = h.ms.iter().sum();
        report.metric(format!("adversary.hunt_ms.{name}"), median(&h.ms), "ms");
        report.metric(
            format!("adversary.evals.{name}"),
            h.first_evals as f64,
            "count",
        );
        report.metric(
            format!("adversary.us_per_eval.{name}"),
            total_ms * 1e3 / h.evals as f64,
            "us",
        );
        report.metric(
            format!("adversary.best_time.{name}"),
            h.first_best as f64,
            "count",
        );
    }
    let churn_ms: f64 = churn.ms.iter().sum();
    report.metric(
        "adversary.churn.us_per_eval",
        churn_ms * 1e3 / churn.evals as f64,
        "us",
    );
    report.metric("adversary.explore_ms", median(&explore.ms), "ms");
    report.metric("adversary.classes_explored", classes as f64, "count");
    report.metric("adversary.schedules_pruned", pruned as f64, "count");
    report.metric(
        "adversary.prune_ratio",
        pruned as f64 / (classes + pruned) as f64,
        "ratio",
    );
    report
}

/// Replays a fixed prefix of per-dispatch delay choices and extends it
/// with the fastest admissible delay at every fresh dispatch.
struct EnumOracle<'a> {
    /// `(choice, weight)` per dispatch index.
    path: &'a mut Vec<(u64, u64)>,
    cursor: usize,
}

impl DelayOracle for EnumOracle<'_> {
    fn delay(&mut self, msg: &MsgInfo) -> u64 {
        if self.cursor == self.path.len() {
            self.path.push((1, msg.weight.get()));
        }
        self.cursor += 1;
        self.path[self.cursor - 1].0
    }
}

/// Every delay assignment of Flood on `g`, by backtracking over the
/// adaptive decision tree: `(schedules, worst completion)`.
fn enumerate_worst(g: &WeightedGraph) -> (u64, u64) {
    let mut path: Vec<(u64, u64)> = Vec::new();
    let (mut leaves, mut worst) = (0u64, 0u64);
    loop {
        let mut oracle = EnumOracle {
            path: &mut path,
            cursor: 0,
        };
        let run = Simulator::new(g)
            .run_with_oracle(&mut oracle, make_flood)
            .expect("flood quiesces under every admissible schedule");
        leaves += 1;
        worst = worst.max(run.cost.completion.get());
        assert!(leaves <= 4 * N8_CUBE, "enumeration ran past the cube");
        while let Some(last) = path.last_mut() {
            if last.0 < last.1 {
                last.0 += 1;
                break;
            }
            path.pop();
        }
        if path.is_empty() {
            return (leaves, worst);
        }
    }
}
