//! Whole-stack benchmark program: runs one workload for a fixed time and
//! prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <workload> --seed <n> --seconds <s> --trace <0|1>
//!           --out <dir> --serve-bin <path>
//! ```
//!
//! `perfbench/run.py` builds this program, runs it and checks its
//! output against `BENCHMARK.json`; see that script for the contract.
//! With `--trace 0` the JSON line holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics from the span trace, plus
//! the traced-minus-untraced overhead of every end-to-end metric.

mod adversary_small;
mod serve_mix;
mod sim_large;
mod trace;

use sim_large::Core;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 5] = [
    "sim-large-flood",
    "sim-large-shard",
    "sim-large-spt",
    "adversary-small",
    "serve-mix",
];

/// Threads, shards and service workers every workload uses: the host's
/// parallelism, capped at 2 so that the work done and the per-worker
/// metric names are the same on any host with at least two cores.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Groups the set-up repetitions are dealt to; see [`Report::setup_value`].
const SETUP_GROUPS: usize = 5;

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub out: PathBuf,
    pub serve_bin: PathBuf,
}

impl Ctx {
    /// Whether the timed loop should stop: the run length is used up
    /// and at least `min_ops` operations ran.
    pub fn done(&self, started: Instant, ops: usize, min_ops: usize) -> bool {
        ops >= min_ops && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the workload seed so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Timed operations, split into untraced (`0`) and traced (`1`) halves.
#[derive(Default)]
pub struct Ops {
    secs: [Vec<f64>; 2],
    work: [u64; 2],
}

impl Ops {
    pub fn record(&mut self, traced: bool, secs: f64, work: u64) {
        self.secs[traced as usize].push(secs);
        self.work[traced as usize] += work;
    }

    pub fn count(&self) -> usize {
        self.secs[0].len() + self.secs[1].len()
    }

    /// `(work per second, p50 ms, tail ms, samples)` of one half.
    fn summary(&self, traced: bool, tail_q: f64) -> (f64, f64, f64, usize) {
        let secs = &self.secs[traced as usize];
        let total: f64 = secs.iter().sum();
        (
            self.work[traced as usize] as f64 / total,
            quantile(secs, 0.5) * 1e3,
            quantile(secs, tail_q) * 1e3,
            secs.len(),
        )
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A field of `/proc/self/status`, in MB.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} field"));
    kb / 1024.0
}

/// Runs `f`, turning a panic into an error string.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// What a workload hands back.
pub struct Report {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Set-up repetitions, in the order they ran: `(seconds, traced)`.
    pub setup: Vec<(f64, bool)>,
    pub ops: Ops,
    /// Quantile of op time reported as `op_ms_tail`.
    pub tail_q: f64,
    /// The workload's own names, with units, for `work_per_s`,
    /// `op_ms_p50` and `op_ms_tail`.
    pub names: [(&'static str, &'static str); 3],
    /// Per-layer metrics measured by the workload itself.
    pub layer: Vec<(String, f64, &'static str)>,
    /// Human-readable lines, printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(tail_q: f64, names: [(&'static str, &'static str); 3]) -> Report {
        Report {
            attempted: 0,
            failures: Vec::new(),
            setup: Vec::new(),
            ops: Ops::default(),
            tail_q,
            names,
            layer: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one attempted operation and records its failure, if any.
    pub fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.push((name.into(), value, unit));
    }

    /// `setup_s`: the median of [`SETUP_GROUPS`] group means, the
    /// repetitions dealt to the groups in turn.
    ///
    /// The repetitions are spread over the run because the CPUs of a
    /// shared host switch between speeds (1.6× apart on a 2-vCPU host)
    /// within seconds. Single repetitions, or a burst of them, then fall
    /// in one speed or the other, and their median jumps between the two
    /// from run to run; each group mean spans the whole run instead.
    fn setup_value(&self, traced: bool) -> f64 {
        let v: Vec<f64> = self
            .setup
            .iter()
            .filter(|s| s.1 == traced)
            .map(|s| s.0)
            .collect();
        let groups = v.len().min(SETUP_GROUPS);
        let means: Vec<f64> = (0..groups)
            .map(|g| {
                let group: Vec<f64> = v.iter().skip(g).step_by(groups).copied().collect();
                group.iter().sum::<f64>() / group.len() as f64
            })
            .collect();
        median(&means)
    }
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --out <dir> --serve-bin <path>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parse = |flag: &str| arg(&args, flag).unwrap_or_else(|| usage());
    let workload = parse("--workload");
    let seed: u64 = parse("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = parse("--seconds").parse().unwrap_or_else(|_| usage());
    let traced = match parse("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let ctx = Ctx {
        seed,
        seconds,
        out: PathBuf::from(parse("--out")),
        serve_bin: PathBuf::from(parse("--serve-bin")),
    };
    std::fs::create_dir_all(&ctx.out).expect("create the output directory");

    let mut tracer = Tracer::new(traced);
    let report = match workload.as_str() {
        "sim-large-flood" => sim_large::run(&ctx, &mut tracer, Core::Flood),
        "sim-large-shard" => sim_large::run(&ctx, &mut tracer, Core::Shard),
        "sim-large-spt" => sim_large::run(&ctx, &mut tracer, Core::Spt),
        "adversary-small" => adversary_small::run(&ctx, &mut tracer),
        "serve-mix" => serve_mix::run(&ctx, &mut tracer),
        _ => usage(),
    };
    let peak_rss_mb = proc_status_mb("VmHWM");

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (work_per_s, p50, tail, samples) = report.ops.summary(false, report.tail_q);
    let e2e = [
        ("setup_s", report.setup_value(false), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("work_per_s", work_per_s, "1/s"),
        ("op_ms_p50", p50, "ms"),
        ("op_ms_tail", tail, "ms"),
    ];
    if traced {
        let (t_work, t_p50, t_tail, _) = report.ops.summary(true, report.tail_q);
        let t_values = [
            report.setup_value(true),
            peak_rss_mb + tracer.bytes() as f64 / (1024.0 * 1024.0),
            t_work,
            t_p50,
            t_tail,
        ];
        for ((name, untraced, unit), t) in e2e.iter().zip(t_values) {
            metrics.push((format!("overhead.{name}"), t - untraced, unit));
        }
        let totals = tracer.layer_totals();
        let all_self: f64 = totals.iter().map(|t| t.1).sum();
        for (layer, self_s, calls) in totals {
            metrics.push((format!("{}.self_s", layer.name()), self_s, "s"));
            metrics.push((format!("{}.calls", layer.name()), calls as f64, "count"));
            metrics.push((
                format!("{}.self_share", layer.name()),
                if all_self > 0.0 {
                    self_s / all_self
                } else {
                    0.0
                },
                "ratio",
            ));
        }
        metrics.extend(report.layer.iter().cloned());
        let spans = ctx.out.join(format!("spans-{workload}-seed{seed}.jsonl"));
        tracer.write(&spans).expect("write the span file");
        println!("spans written to {}", spans.display());
    } else {
        metrics.extend(e2e.iter().map(|(n, v, u)| (n.to_string(), *v, *u)));
    }

    for note in &report.notes {
        println!("{note}");
    }
    if !traced {
        for ((name, unit), value) in report.names.iter().zip([work_per_s, p50, tail]) {
            println!("{name} {value:.4} {unit} ({samples} operations)");
        }
    }
    println!(
        "fail_ratio {}/{} (operations and output checks)",
        report.failures.len(),
        report.attempted
    );
    for f in &report.failures {
        println!("FAILED: {f}");
    }

    let mut line = String::new();
    write!(
        line,
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.attempted,
        report.failures.len()
    )
    .expect("write to String");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        // A value that is not a number is written as null, which the
        // runner rejects: every metric must have been measured.
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        write!(
            line,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        )
        .expect("write to String");
    }
    line.push_str("}}");
    println!("{line}");
}
