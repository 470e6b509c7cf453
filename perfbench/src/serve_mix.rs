//! `serve-mix`: one client in a closed loop against an in-process
//! `Service` with csp-serve's defaults and one worker per thread.
//!
//! Setup records one drop+crash base schedule per session (gnp graphs,
//! n cycling through 60, 100 and 150, expected degree 4; the n = 150
//! sessions run SPT_recur, the others Flood). Sessions are picked with
//! Zipf popularity, and their checkpoints are more than the default 256
//! the cache holds per stack, so the cache evicts. Each request line
//! goes through `Json::parse` → `Service::handle` → `Json::dump`, as
//! the `csp-serve` stdin loop does;
//! one operation is one line, timed from the line being ready to its
//! responses being dumped. The mix is ≈55% tail-mutated variants of a
//! base schedule, ≈20% exact resubmissions, ≈15% fresh `model` runs,
//! ≈5% small `search` and `exhaustive` requests and ≈5% malformed lines.
//! A warm-up of [`WARMUP`] lines runs first, untimed, so the cache is
//! in its steady state when timing starts.
//!
//! After the loop a sample of answers is compared with a cache-off
//! `Service`, and three hostile inputs each go to their own `csp-serve`
//! child process.

use crate::trace::{Layer, Tracer};
use crate::{guarded, median, quantile, threads, Ctx, Report, Rng};
use csp_adversary::{record, Fallback, Schedule};
use csp_algo::flood::Flood;
use csp_algo::spt::recur::SptRecur;
use csp_graph::generators::{connected_gnp, WeightDist};
use csp_graph::{NodeId, WeightedGraph};
use csp_serve::service::{Service, ServiceConfig};
use csp_serve::Json;
use csp_sim::{CrashOracle, DelayModel, DropOracle, SimTime};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [60, 100, 150];
const SESSIONS: usize = 24;
/// Sessions of this size run the chatty SPT_recur stack, the others
/// Flood. SPT_recur stores several times more checkpoints per run, so
/// its misses set the tail.
const SPT_N: usize = 150;
/// Expected degree of the session graphs.
const DEGREE: f64 = 4.0;
const W_MAX: u64 = 9;
const ZIPF_S: f64 = 1.0;
/// Lines run before timing starts: enough for the checkpoint and result
/// caches to fill, so memory and hit rates are in their steady state
/// however many lines the timed loop gets through.
const WARMUP: usize = 2000;
/// Timed lines per run, at least: p99 then has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Resubmissions pick from this many recent result-producing lines.
const RECENT: usize = 32;
/// Result-producing lines kept, by reservoir sampling, for the cache-off
/// comparison. A fixed size keeps the benchmark's own memory out of
/// `peak_rss_mb`.
const SAMPLE: usize = 128;
/// Lines between set-up repetitions: a repetition costs about as much
/// as a few dozen lines.
const SETUP_EVERY: usize = 200;
/// Wall-clock limit for one hostile-probe child.
const PROBE_TIMEOUT: Duration = Duration::from_secs(30);

struct Session {
    graph: Json,
    base: Schedule,
    protocol: &'static str,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Variant,
    Resubmit,
    Model,
    Search,
    Exhaustive,
    Malformed,
}

const KINDS: [Kind; 6] = [
    Kind::Variant,
    Kind::Resubmit,
    Kind::Model,
    Kind::Search,
    Kind::Exhaustive,
    Kind::Malformed,
];

struct Line {
    text: String,
    kind: Kind,
    /// Length of the schedule text the line carries (0 if none).
    schedule_bytes: usize,
}

fn make_flood(v: NodeId, _: &WeightedGraph) -> Flood {
    Flood::new(v == NodeId::new(0))
}

fn make_spt(v: NodeId, _: &WeightedGraph) -> SptRecur {
    SptRecur::new(v, NodeId::new(0), 1 << 40)
}

/// Keeps a seed exact through JSON's f64 numbers.
fn wire_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 12
}

fn sessions(seed: u64) -> Vec<Session> {
    let mut rng = Rng::new(seed ^ 0x5E55_1055);
    (0..SESSIONS)
        .map(|i| {
            let n = SIZES[i % SIZES.len()];
            let p = DEGREE / n as f64;
            let graph_seed = wire_seed(&mut rng);
            let g = connected_gnp(n, p, WeightDist::Uniform(1, W_MAX), graph_seed);
            let spt = n == SPT_N;
            // Early drops can starve the whole run; such a session would
            // be a few decisions long, so its oracle is drawn again.
            let (protocol, base) = loop {
                let oracle = CrashOracle::new(
                    DropOracle::new(DelayModel::Uniform, rng.next_u64(), 0.1, 4),
                    vec![(
                        NodeId::new(1 + rng.below(n as u64 - 1) as usize),
                        SimTime::new(20 + rng.below(40)),
                    )],
                );
                let recorded = if spt {
                    (
                        "spt_recur",
                        record(&g, make_spt, oracle, Fallback::WorstCase).1,
                    )
                } else {
                    (
                        "flood",
                        record(&g, make_flood, oracle, Fallback::WorstCase).1,
                    )
                };
                if recorded.1.decisions.len() >= n {
                    break recorded;
                }
            };
            let graph = Json::obj(vec![
                ("family", Json::str("gnp")),
                ("n", Json::num(n as f64)),
                ("p", Json::num(p)),
                ("w_min", Json::num(1)),
                ("w_max", Json::num(W_MAX as f64)),
                ("seed", Json::num(graph_seed as f64)),
            ]);
            Session {
                graph,
                base,
                protocol,
            }
        })
        .collect()
}

/// Rotates delays in the last ~5% of the schedule's delivered decisions,
/// keeping each in `[1, weight]`.
fn variant(base: &Schedule, rng: &mut Rng) -> Schedule {
    let mut s = base.clone();
    let len = s.decisions.len();
    for d in &mut s.decisions[len - len / 20 - 1..] {
        if d.dropped || d.weight < 2 || rng.below(3) != 0 {
            continue;
        }
        let rot = 1 + rng.below(d.weight - 1);
        d.delay = 1 + (d.delay - 1 + rot) % d.weight;
    }
    s
}

fn submit(id: String, graph: Json, protocol: &str, run: Json) -> String {
    Json::obj(vec![
        ("type", Json::str("submit")),
        ("id", Json::str(id)),
        ("graph", graph),
        (
            "stack",
            Json::obj(vec![
                ("protocol", Json::str(protocol)),
                ("root", Json::num(0)),
            ]),
        ),
        ("run", run),
    ])
    .dump()
}

fn small_gnp(n: usize, w_max: u64, seed: u64) -> Json {
    Json::obj(vec![
        ("family", Json::str("gnp")),
        ("n", Json::num(n as f64)),
        ("p", Json::num(0.3)),
        ("w_min", Json::num(1)),
        ("w_max", Json::num(w_max as f64)),
        ("seed", Json::num(seed as f64)),
    ])
}

/// Generates request lines from the workload seed.
struct Generator {
    rng: Rng,
    sessions: Vec<Session>,
    /// Cumulative Zipf weights over sessions.
    zipf: Vec<f64>,
    recent: VecDeque<(String, usize)>,
    next_id: u64,
}

impl Generator {
    fn new(seed: u64, sessions: Vec<Session>) -> Generator {
        let mut zipf = Vec::new();
        let mut acc = 0.0;
        for i in 0..sessions.len() {
            acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
            zipf.push(acc);
        }
        Generator {
            rng: Rng::new(seed ^ 0x11E5),
            sessions,
            zipf,
            recent: VecDeque::new(),
            next_id: 0,
        }
    }

    fn session(&mut self) -> usize {
        let x = self.rng.unit() * self.zipf[self.zipf.len() - 1];
        self.zipf.iter().position(|&c| x < c).unwrap_or(0)
    }

    fn line(&mut self) -> Line {
        self.next_id += 1;
        let id = format!("r{}", self.next_id);
        let roll = self.rng.unit();
        let (kind, text, schedule_bytes) = if roll < 0.55 || (roll < 0.75 && self.recent.is_empty())
        {
            let s = self.session();
            let schedule = variant(&self.sessions[s].base, &mut self.rng).to_text();
            let bytes = schedule.len();
            let run = Json::obj(vec![
                ("mode", Json::str("schedule")),
                ("schedule", Json::str(schedule)),
            ]);
            let graph = self.sessions[s].graph.clone();
            (
                Kind::Variant,
                submit(id, graph, self.sessions[s].protocol, run),
                bytes,
            )
        } else if roll < 0.75 {
            let pick = self.rng.below(self.recent.len() as u64) as usize;
            let (text, bytes) = self.recent[pick].clone();
            (Kind::Resubmit, text, bytes)
        } else if roll < 0.90 {
            let s = self.session();
            let run = Json::obj(vec![
                ("mode", Json::str("model")),
                ("delay", Json::str("uniform")),
                ("seed", Json::num(wire_seed(&mut self.rng) as f64)),
            ]);
            let graph = self.sessions[s].graph.clone();
            (
                Kind::Model,
                submit(id, graph, self.sessions[s].protocol, run),
                0,
            )
        } else if roll < 0.925 {
            let graph = small_gnp(12, 16, self.rng.below(8));
            let run = Json::obj(vec![
                ("mode", Json::str("search")),
                ("budget", Json::num(2)),
                ("seed", Json::num(wire_seed(&mut self.rng) as f64)),
            ]);
            (Kind::Search, submit(id, graph, "spt_recur", run), 0)
        } else if roll < 0.95 {
            let graph = small_gnp(8, 2, self.rng.below(8));
            let run = Json::obj(vec![
                ("mode", Json::str("exhaustive")),
                ("class_budget", Json::num(256)),
            ]);
            (Kind::Exhaustive, submit(id, graph, "flood", run), 0)
        } else {
            (Kind::Malformed, self.malformed(id), 0)
        };
        if matches!(kind, Kind::Variant | Kind::Model) {
            self.recent.push_back((text.clone(), schedule_bytes));
            if self.recent.len() > RECENT {
                self.recent.pop_front();
            }
        }
        Line {
            text,
            kind,
            schedule_bytes,
        }
    }

    /// A line the service must answer with a structured error.
    fn malformed(&mut self, id: String) -> String {
        let graph = self.sessions[0].graph.clone();
        let model = || Json::obj(vec![("mode", Json::str("model"))]);
        match self.rng.below(5) {
            0 => {
                let full = submit(id, graph, "spt_recur", model());
                full[..full.len() / 2].to_string()
            }
            1 => Json::obj(vec![
                ("type", Json::str("frobnicate")),
                ("id", Json::str(id)),
            ])
            .dump(),
            2 => {
                let run = Json::obj(vec![
                    ("mode", Json::str("schedule")),
                    ("schedule", Json::str("csp-adversary-schedule v9\n")),
                ]);
                submit(id, graph, "spt_recur", run)
            }
            3 => submit(id, graph, "gossip", model()),
            _ => Json::obj(vec![
                ("type", Json::str("submit")),
                ("id", Json::str(id)),
                ("graph", graph),
                ("run", model()),
            ])
            .dump(),
        }
    }
}

/// Per cache outcome: handle times and the responses' own timings.
#[derive(Default)]
struct Outcome {
    handle_ms: Vec<f64>,
    exec_us: f64,
    queue_wait_us: f64,
}

const OUTCOMES: [&str; 4] = ["full", "incremental", "miss", "error"];

fn outcome_of(resp: &Json) -> &str {
    match resp.get("type").and_then(Json::as_str) {
        Some("error") => "error",
        _ => resp.get("cache").and_then(Json::as_str).unwrap_or("?"),
    }
}

/// The fields a cache-off evaluation must reproduce bit for bit.
fn identity(resp: &Json) -> String {
    format!(
        "{}|{}",
        resp.get("report").map(Json::dump).unwrap_or_default(),
        resp.get("states_digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
    )
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Report {
    let mut report = Report::new(
        0.99,
        [
            ("req_per_s", "req/s"),
            ("req_ms_p50", "ms"),
            ("req_ms_p99", "ms"),
        ],
    );
    let k = threads();
    let config = ServiceConfig {
        threads: k,
        ..ServiceConfig::default()
    };

    // One set-up repetition: the base schedules and the service. It runs
    // again every SETUP_EVERY lines, so that `setup_s` samples the whole
    // run.
    let setup = |tr: &mut Tracer, report: &mut Report, traced: bool| {
        let t = Instant::now();
        let recorded = tr.span(Layer::Adversary, "record (base schedules)", || {
            sessions(ctx.seed)
        });
        let service = tr.span(Layer::Serve, "Service::new", || Service::new(config));
        report.setup.push((t.elapsed().as_secs_f64(), traced));
        (recorded, service)
    };
    tr.begin_op(false);
    let (recorded, mut service) = setup(tr, &mut report, false);
    let base_decisions: Vec<usize> = recorded.iter().map(|s| s.base.decisions.len()).collect();
    let mut gen = Generator::new(ctx.seed, recorded);

    let mut outcomes: Vec<Outcome> = OUTCOMES.iter().map(|_| Outcome::default()).collect();
    let (mut parse_s, mut dump_s, mut from_text_s) = (0.0, 0.0, 0.0);
    let (mut from_text_n, mut schedule_bytes, mut schedule_lines) = (0u64, 0u64, 0u64);
    let mut sample: Vec<(String, String)> = Vec::new();
    let mut answered = 0u64;
    let mut sampler = Rng::new(ctx.seed ^ 0x005A_3B1E);
    let mut timed = 0usize;
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut started = Instant::now();
    let mut i = 0usize;
    loop {
        if i == WARMUP {
            started = Instant::now();
        }
        if i >= WARMUP && ctx.done(started, timed, MIN_REQUESTS) {
            break;
        }
        let traced = tr.begin_op(i % 2 == 1);
        if i % SETUP_EVERY == SETUP_EVERY - 1 {
            setup(tr, &mut report, traced);
        }
        let op = tr.enter(Layer::Bench, "request");
        let gen_span = tr.enter(Layer::Bench, "generate");
        let line = gen.line();
        tr.exit(gen_span);

        let t0 = Instant::now();
        let parsed = tr.span(Layer::Serve, "Json::parse", || Json::parse(&line.text));
        let t1 = Instant::now();
        let mut responses = Vec::new();
        let mut handle_s = 0.0;
        let dumped: Vec<String>;
        match &parsed {
            Ok(request) => {
                let t = Instant::now();
                // A panic leaves no response, which the check below
                // counts as a failure.
                responses = tr
                    .span(Layer::Serve, "Service::handle", || {
                        guarded(|| service.handle(request))
                    })
                    .unwrap_or_default();
                handle_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                dumped = tr.span(Layer::Serve, "Json::dump", || {
                    responses.iter().map(Json::dump).collect::<Vec<_>>()
                });
                dump_s += t.elapsed().as_secs_f64();
            }
            Err(e) => {
                // The error line the csp-serve loop writes for bad JSON.
                let t = Instant::now();
                let resp = Json::obj(vec![
                    ("type", Json::str("error")),
                    ("id", Json::str("")),
                    (
                        "error",
                        Json::str(format!("bad JSON at byte {}: {}", e.pos, e.msg)),
                    ),
                ]);
                dumped = tr.span(Layer::Serve, "Json::dump", || vec![resp.dump()]);
                dump_s += t.elapsed().as_secs_f64();
                responses.push(resp);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        parse_s += (t1 - t0).as_secs_f64();
        match &parsed {
            // The schedule parse Scenario::from_json does inside handle,
            // repeated outside the timed window to attribute its time.
            Ok(request) if traced && line.schedule_bytes > 0 => {
                let text = request
                    .get("run")
                    .and_then(|r| r.get("schedule"))
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                let t = Instant::now();
                let ok = tr.span(Layer::Schedule, "Schedule::from_text", || {
                    Schedule::from_text(text).is_ok()
                });
                from_text_s += t.elapsed().as_secs_f64();
                from_text_n += u64::from(ok);
            }
            _ => {}
        }

        let check = tr.enter(Layer::Bench, "check");
        let expect_error = line.kind == Kind::Malformed;
        let kinds: Vec<&str> = responses.iter().map(outcome_of).collect();
        report.check(
            || {
                format!(
                    "line {i}: expected one {} response, got {kinds:?}",
                    if expect_error { "error" } else { "result" }
                )
            },
            dumped.len() == 1 && (kinds[0] == "error") == expect_error,
        );
        if let Some(resp) = responses.first() {
            let kind = outcome_of(resp);
            if let Some(ix) = OUTCOMES.iter().position(|&o| o == kind) {
                let o = &mut outcomes[ix];
                o.handle_ms.push(handle_s * 1e3);
                o.exec_us += resp.get("exec_us").and_then(Json::as_f64).unwrap_or(0.0);
                o.queue_wait_us += resp
                    .get("queue_wait_us")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
            }
            // Resubmissions are the only full hits; `identity` leaves out
            // the id, so their expected answer is the cache-off one too.
            if matches!(line.kind, Kind::Variant | Kind::Resubmit | Kind::Model) {
                answered += 1;
                let slot = sampler.below(answered) as usize;
                if sample.len() < SAMPLE {
                    sample.push((line.text.clone(), identity(resp)));
                } else if slot < SAMPLE {
                    sample[slot] = (line.text.clone(), identity(resp));
                }
            }
        }
        if line.schedule_bytes > 0 {
            schedule_bytes += line.schedule_bytes as u64;
            schedule_lines += 1;
        }
        tr.exit(check);
        tr.exit(op);
        if i >= WARMUP {
            report.ops.record(traced, secs, 1);
            timed += 1;
            by_kind[line.kind as usize].push(secs * 1e3);
        }
        i += 1;
    }

    // Untimed: a cache-off service must give the same answers.
    tr.begin_op(true);
    let mut cold = Service::new(ServiceConfig {
        cache: false,
        ..config
    });
    for (text, expected) in &sample {
        let got = tr.span(Layer::Bench, "check: cache-off Service::handle", || {
            guarded(|| {
                let request = Json::parse(text).expect("generated lines are valid JSON");
                cold.handle(&request).first().map(identity)
            })
        });
        report.check(
            || {
                format!(
                    "cache-off answer differs for {}",
                    &text[..text.len().min(120)]
                )
            },
            got.as_ref().ok().and_then(|g| g.as_deref()) == Some(expected.as_str()),
        );
    }

    let hostile = hostile_probes(&ctx.serve_bin, &ctx.out);
    let hostile_failed = hostile.iter().filter(|p| !p.1).count();

    let m = &service.metrics;
    let handle_total: f64 = outcomes.iter().flat_map(|o| &o.handle_ms).sum::<f64>() / 1e3;
    report.notes.push(format!(
        "serve-mix: {} sessions, base schedules {base_decisions:?} decisions, \
         {k} workers, {WARMUP} warm-up lines, {timed} timed lines, {} sampled for cache-off",
        base_decisions.len(),
        sample.len()
    ));
    for (kind, ms) in KINDS.iter().zip(&by_kind).filter(|(_, ms)| !ms.is_empty()) {
        report.notes.push(format!(
            "  {kind:?}: {} timed lines, p50 {:.3} ms, p99 {:.3} ms",
            ms.len(),
            median(ms),
            quantile(ms, 0.99)
        ));
    }
    for (name, o) in OUTCOMES.iter().zip(&outcomes) {
        report
            .notes
            .push(format!("  {name:<12} {:>6} lines", o.handle_ms.len()));
    }
    for (name, ok, detail) in &hostile {
        report.notes.push(format!(
            "hostile probe {name}: {} ({detail})",
            if *ok { "structured error" } else { "FAILED" }
        ));
    }

    report.metric(
        "schedule.bytes",
        schedule_bytes as f64 / schedule_lines as f64,
        "B",
    );
    report.metric(
        "schedule.from_text_us",
        from_text_s * 1e6 / from_text_n as f64,
        "us",
    );
    report.metric("serve.parse_us", parse_s * 1e6 / i as f64, "us");
    report.metric("serve.dump_us", dump_s * 1e6 / i as f64, "us");
    for (name, o) in OUTCOMES.iter().zip(&outcomes) {
        let n = o.handle_ms.len() as f64;
        let handle = if o.handle_ms.is_empty() {
            0.0
        } else {
            median(&o.handle_ms)
        };
        report.metric(format!("serve.handle_ms.{name}"), handle, "ms");
        if *name != "error" {
            report.metric(format!("serve.exec_us.{name}"), o.exec_us / n, "us");
            report.metric(
                format!("serve.queue_wait_us.{name}"),
                o.queue_wait_us / n,
                "us",
            );
        }
    }
    report.metric("serve.cache_full_hits", m.cache_full_hits as f64, "count");
    report.metric(
        "serve.cache_incremental_hits",
        m.cache_incremental_hits as f64,
        "count",
    );
    report.metric("serve.cache_misses", m.cache_misses as f64, "count");
    report.metric(
        "serve.hit_ratio",
        (m.cache_full_hits + m.cache_incremental_hits) as f64 / m.submitted as f64,
        "ratio",
    );
    report.metric(
        "serve.mean_resume_depth",
        m.checkpoint_depth_sum as f64 / m.cache_incremental_hits as f64,
        "count",
    );
    report.metric(
        "serve.checkpoints_stored",
        m.checkpoints_stored as f64,
        "count",
    );
    report.metric("serve.evictions", m.evictions as f64, "count");
    report.metric("serve.rejected", m.rejected as f64, "count");
    let mut busy = 0.0;
    for w in 0..2 {
        let s = m.workers.get(w).map_or(0.0, |w| w.busy.as_secs_f64());
        busy += s;
        report.metric(format!("serve.worker_busy_s.{w}"), s, "s");
    }
    report.metric(
        "serve.worker_utilisation",
        busy / (k as f64 * handle_total),
        "ratio",
    );
    report.metric("serve.hostile_failed", hostile_failed as f64, "count");
    report
}

/// Sends each hostile input to its own `csp-serve` child. A probe
/// passes when the child answers with a structured error and exits
/// cleanly: `(name, passed, detail)`.
fn hostile_probes(bin: &Path, dir: &Path) -> Vec<(&'static str, bool, String)> {
    let path4 = || {
        Json::obj(vec![
            ("family", Json::str("path")),
            ("n", Json::num(4)),
            ("w", Json::num(5)),
        ])
    };
    let schedule_line = |id: &str, text: &str| {
        let run = Json::obj(vec![
            ("mode", Json::str("schedule")),
            ("schedule", Json::str(text)),
        ]);
        submit(id.to_string(), path4(), "flood", run)
    };
    let probes = [
        (
            "drift-edge-out-of-range",
            schedule_line(
                "hostile-drift",
                "csp-adversary-schedule v3\nfallback worst-case\nw 999 3 4\n",
            ),
        ),
        ("deep-nesting", "[".repeat(200_000)),
        (
            "crash-node-out-of-range",
            schedule_line(
                "hostile-crash",
                "csp-adversary-schedule v2\nfallback worst-case\nc 999 5\n",
            ),
        ),
    ];
    probes
        .into_iter()
        .map(|(name, line)| match probe(bin, dir, &line) {
            Ok((status, first)) => {
                let error = Json::parse(&first)
                    .ok()
                    .and_then(|j| j.get("type").and_then(Json::as_str).map(str::to_string))
                    == Some("error".to_string());
                let detail = format!("{status}, first line {:?}", &first[..first.len().min(80)]);
                (name, error && status.success(), detail)
            }
            Err(e) => (name, false, e),
        })
        .collect()
}

/// Runs one child on `line` plus a shutdown line, with core dumps off.
fn probe(bin: &Path, dir: &Path, line: &str) -> Result<(std::process::ExitStatus, String), String> {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -c 0; exec \"$0\"")
        .arg(bin)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = format!("{line}\n{{\"type\":\"shutdown\"}}\n");
    // A child that dies early closes the pipe; the write error is part
    // of what the probe observes, not a benchmark failure.
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
    });
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let deadline = Instant::now() + PROBE_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = writer.join();
                let _ = reader.join();
                return Err(format!("no exit within {PROBE_TIMEOUT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let _ = writer.join();
    let out = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    Ok((status, out.lines().next().unwrap_or_default().to_string()))
}
