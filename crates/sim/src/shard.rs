//! Sharded conservative-parallel execution of a *single* run.
//!
//! [`crate::sweep`] parallelises across runs; this module parallelises
//! *within* one. The graph is partitioned into `k` disjoint shards
//! (derived from the paper's sparse-cover coarsening via
//! [`ShardPlan::derive`]), each with its own event-carrying scheduling
//! queue, FIFO floors and per-vertex state — and `k` scoped worker
//! threads execute the event calendar **tick-synchronously**:
//!
//! 1. **Pick `T`** — every worker posts its queue's earliest scheduled
//!    time; the global minimum `T` is the next tick. All events at `T`
//!    are already enqueued (delays are clamped into `[1, w(e)]` and
//!    timer delays into `[1, ∞)`, so nothing executed at `T` can
//!    schedule anything *at* `T`), which makes the one-tick window safe
//!    for **every** oracle — not just the worst-case model whose
//!    cut-weight lookahead the conservative-PDES literature assumes.
//! 2. **Handlers in parallel** (phase B) — each shard pops its events
//!    with time `T` in `seq` order and runs the protocol handlers,
//!    recording what each handler sent and armed. Handlers only touch
//!    their own vertex, and token/timer-id assignment is per-vertex
//!    (see [`crate::MsgToken`]), so no cross-shard state is needed.
//! 3. **Serial dispatch** (leader section) — worker 0 merges the
//!    per-shard handler records by global event `seq` and replays the
//!    *dispatch* side effects in exactly the sequential order: event
//!    budget, cost meters, trace, and — crucially — the
//!    [`LinkOracle`] queries, which stateful and index-addressed
//!    oracles require to arrive in global dispatch order. Each
//!    surviving push is assigned the next global `seq`.
//! 4. **Routing in parallel** (phase C + A) — each shard walks its own
//!    records again, applies its FIFO floors (a channel's floor lives
//!    with the *sender's* shard), and routes every push into a
//!    per-`(receiver, sender)` outbox; after a barrier, every shard
//!    merges its `k` inbox streams by `seq` into its queue.
//!
//! Because ties break on the same global `(time, seq)` key and the
//! oracle sees the same query sequence, a sharded run is **bit
//! identical** to [`Simulator`] — costs, trace, final states and fault
//! meters — under all oracles, including schedule replay, drops,
//! crashes, rejoins, weight drift and timers.
//! `tests/shard_differential.rs` pins this across shard counts
//! {1, 2, 4, 8} and both queue kinds.
//!
//! The one exception is [`Simulator::comm_limit`]: truncation stops the
//! sequential loop *mid-tick*, which a whole-tick parallel phase cannot
//! replicate, so a sharded run with a communication budget delegates to
//! the sequential core (documented on [`ShardedSimulator::comm_limit`]).

use crate::cost::CostClass;
use crate::cost::CostReport;
use crate::delay::{DelayModel, LinkDecision, LinkOracle, ModelOracle, MsgInfo};
use crate::process::{Context, Process, TimerId};
use crate::queue;
use crate::runtime::{CoreKind, Delivery, Event, Queue, Run, SimError, Simulator};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};
use csp_graph::{EdgeId, NodeId, Weight, WeightedGraph};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

pub use csp_graph::{CutStats, ShardPlan};

/// A spin barrier tuned for the tick loop: four synchronisation points
/// per simulated tick make `std::sync::Barrier`'s mutex+condvar
/// round-trip the dominant cost on small graphs, while a generation
/// counter with busy-wait keeps the gap in the tens of nanoseconds.
/// After a bounded spin the waiter yields to the scheduler, so running
/// more shards than cores (legal — the shard count is a determinism
/// parameter, not a parallelism hint) degrades to cooperative
/// round-robin instead of burning whole time slices.
///
/// `wait` returns `false` once the barrier is poisoned (a worker
/// panicked) so the surviving workers can unwind instead of spinning
/// forever.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            total,
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    #[must_use]
    fn wait(&self) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            !self.poisoned.load(Ordering::Acquire)
        }
    }
}

/// Sets the poison flag if the scope unwinds — stops every other worker
/// from spinning on a barrier whose missing participant is dead.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// What the leader decided for one queued send, aligned index-for-index
/// with the shard's `sends` buffer.
#[derive(Clone, Copy)]
enum Fate {
    /// Dropped by the oracle: metered, index consumed, never enqueued.
    Drop,
    /// Deliver after `delay` (already clamped); the push carries the
    /// global sequence number `seq`.
    Deliver { delay: u64, seq: u64 },
}

/// What one handler did, in pop order. Ranges index into the shard's
/// flat `sends` / `arms` arenas.
struct HandlerRec {
    /// The popped event's global sequence number — the merge key of the
    /// leader's serial walk.
    seq: u64,
    node: NodeId,
    /// `Some` for a message delivery (trace + completion bookkeeping),
    /// `None` for a timer fire.
    msg: Option<MsgMeta>,
    sends: (u32, u32),
    arms: (u32, u32),
}

/// Delivery metadata the leader needs after the payload was consumed.
struct MsgMeta {
    from: NodeId,
    edge: csp_graph::EdgeId,
    sent: SimTime,
    class: CostClass,
}

type InboxItem<M> = (u64, u64, Event<M>);

/// Inbox buffers are deques so phase A can pop owned items from the
/// front while the allocation keeps rotating between the sender's
/// out-buffer, the shared cell and the receiver's merge stream.
type InboxBuf<M> = VecDeque<InboxItem<M>>;

/// One shard: the vertices assigned to it, their protocol states, a
/// private event-carrying scheduling queue, the FIFO floors of the
/// channels it *sends* on, and the per-tick scratch buffers.
struct Shard<P: Process> {
    /// Global ids of this shard's vertices, ascending.
    nodes: Vec<NodeId>,
    /// Protocol states, indexed shard-locally (same order as `nodes`).
    states: Vec<P>,
    queue: Queue<Event<P::Msg>>,
    /// FIFO floors of the directed channels whose sender is local,
    /// indexed by the shared `channel_local` map.
    floors: Vec<SimTime>,
    /// Per-vertex metered-send counts (handler `msg_base`s), local idx.
    node_msg_seq: Vec<u64>,
    /// Per-vertex next timer id, local idx.
    node_timer_seq: Vec<u64>,
    /// Per-vertex timer-id floor (local idx): ids below it belong to a
    /// pre-rejoin incarnation and are consumed as dead events.
    timer_floor: Vec<u64>,
    /// Stashed fresh states for scheduled rejoins (local idx), earliest
    /// rejoin last — mirrors the sequential machine's stash.
    rejoin_states: Vec<Vec<P>>,
    /// This shard's copy of the effective weight table, advanced to the
    /// current tick at the top of phase B so handlers observe drift
    /// through [`Context::weight_of`](crate::Context::weight_of)
    /// exactly as they would sequentially.
    eff: Vec<Weight>,
    /// First drift revision not yet applied to `eff`.
    drift_cursor: usize,
    cancelled: HashSet<(NodeId, u64)>,
    dead_events: u64,
    // Recycled handler buffers (same role as the sequential Machine's).
    outbox: Vec<(NodeId, P::Msg, CostClass)>,
    out_edges: Vec<csp_graph::EdgeId>,
    timers: Vec<u64>,
    cancels: Vec<u64>,
    // Per-tick arenas: what this shard's handlers produced...
    recs: Vec<HandlerRec>,
    sends: Vec<(NodeId, P::Msg, CostClass, csp_graph::EdgeId)>,
    arms: Vec<(u64, u64)>,
    // ...and what the leader decided about it.
    decided: Vec<Fate>,
    arm_seqs: Vec<u64>,
    /// Phase-C routing buffers, one per receiver shard; swapped into the
    /// inbox cells at the end of the phase.
    outbufs: Vec<InboxBuf<P::Msg>>,
    /// Phase-A merge buffers, one per sender shard; swapped out of the
    /// inbox cells.
    streams: Vec<InboxBuf<P::Msg>>,
}

impl<P: Process> Shard<P> {
    fn new(kind: CoreKind, max_delay: u64, shards: usize) -> Self {
        Shard {
            nodes: Vec::new(),
            states: Vec::new(),
            queue: Queue::new(kind, max_delay),
            floors: Vec::new(),
            node_msg_seq: Vec::new(),
            node_timer_seq: Vec::new(),
            timer_floor: Vec::new(),
            rejoin_states: Vec::new(),
            eff: Vec::new(),
            drift_cursor: 0,
            cancelled: HashSet::new(),
            dead_events: 0,
            outbox: Vec::new(),
            out_edges: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            recs: Vec::new(),
            sends: Vec::new(),
            arms: Vec::new(),
            decided: Vec::new(),
            arm_seqs: Vec::new(),
            outbufs: (0..shards).map(|_| VecDeque::new()).collect(),
            streams: (0..shards).map(|_| VecDeque::new()).collect(),
        }
    }
}

/// Everything the leader's serial section owns: the oracle and the
/// global meters whose updates must happen in sequential dispatch
/// order.
struct Global<'o, O: ?Sized> {
    oracle: &'o mut O,
    cost: CostReport,
    trace: Trace,
    /// Next global push sequence number — mirrors the sequential core's
    /// `seq`, incremented per enqueued delivery/timer/rejoin.
    seq: u64,
    events: u64,
    err: Option<SimError>,
    /// The leader's copy of the effective weight table — metering and
    /// delay clamping in the serial section use it, advanced to the
    /// tick at the top of [`serial_dispatch`].
    eff: Vec<Weight>,
    /// First drift revision not yet applied to `eff`.
    drift_cursor: usize,
}

/// Applies every revision of `drift` (sorted by time) at or before
/// `now` to an effective-weight table. Each copy of the table — the
/// leader's and each shard's — is advanced independently but through
/// this same monotone walk, so all of them agree at any given tick.
fn advance_drift(
    eff: &mut [Weight],
    cursor: &mut usize,
    drift: &[(EdgeId, SimTime, Weight)],
    now: SimTime,
) {
    while let Some(&(e, t, w)) = drift.get(*cursor) {
        if t > now {
            break;
        }
        eff[e.index()] = w;
        *cursor += 1;
    }
}

/// Whether `v` is dead at `now` under its churn plan: an odd number of
/// toggles has taken effect (toggle instants inclusive) — the same
/// parity rule as the sequential machine's `crashed`.
#[inline]
fn churned_dead(churn: &[Vec<SimTime>], v: NodeId, now: SimTime) -> bool {
    churn[v.index()].iter().take_while(|&&t| now >= t).count() % 2 == 1
}

/// Drop-in parallel variant of [`Simulator`] executing one run across
/// `k` shard worker threads.
///
/// The builder mirrors [`Simulator`]; [`ShardedSimulator::threads`]
/// picks the shard count. Runs are bit-identical to the sequential
/// core under every oracle — see the [module docs](self) for the
/// synchronisation scheme and its soundness argument.
///
/// ```
/// use csp_sim::{ShardedSimulator, Simulator, Process, Context};
/// use csp_graph::{generators, NodeId};
///
/// #[derive(Clone)]
/// struct Flood(bool);
/// impl Process for Flood {
///     type Msg = ();
///     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
///         if self.0 { ctx.send_all(()); }
///     }
///     fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Context<'_, ()>) {
///         if !self.0 { self.0 = true; ctx.send_all(()); }
///     }
/// }
///
/// let g = generators::connected_gnp(64, 0.1, generators::WeightDist::Uniform(1, 8), 7);
/// let make = |v: NodeId, _: &_| Flood(v.index() == 0);
/// let seq = Simulator::new(&g).run(make).unwrap();
/// let par = ShardedSimulator::new(&g).threads(4).run(make).unwrap();
/// assert_eq!(seq.cost, par.cost);
/// ```
#[derive(Debug)]
pub struct ShardedSimulator<'g> {
    graph: &'g WeightedGraph,
    delay: DelayModel,
    seed: u64,
    event_limit: u64,
    comm_limit: Option<u128>,
    trace_cap: usize,
    core: CoreKind,
    threads: usize,
    plan: Option<ShardPlan>,
}

impl<'g> ShardedSimulator<'g> {
    /// Creates a sharded simulator with the same defaults as
    /// [`Simulator::new`] and an automatic thread count
    /// ([`crate::sweep::effective_threads`] of 0).
    pub fn new(graph: &'g WeightedGraph) -> Self {
        ShardedSimulator {
            graph,
            delay: DelayModel::WorstCase,
            seed: 0,
            event_limit: 100_000_000,
            comm_limit: None,
            trace_cap: 0,
            core: CoreKind::Bucket,
            threads: 0,
            plan: None,
        }
    }

    /// Sets the delay model (see [`Simulator::delay`]).
    pub fn delay(&mut self, delay: DelayModel) -> &mut Self {
        self.delay = delay;
        self
    }

    /// Sets the seed for randomized delay models.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the event budget (see [`Simulator::event_limit`]).
    pub fn event_limit(&mut self, limit: u64) -> &mut Self {
        self.event_limit = limit;
        self
    }

    /// Records up to `cap` delivered messages into [`Run::trace`].
    pub fn record_trace(&mut self, cap: usize) -> &mut Self {
        self.trace_cap = cap;
        self
    }

    /// Selects the per-shard scheduling-queue implementation.
    pub fn core(&mut self, kind: CoreKind) -> &mut Self {
        self.core = kind;
        self
    }

    /// Caps the weighted communication, exactly as
    /// [`Simulator::comm_limit`].
    ///
    /// Truncation stops the sequential loop *mid-tick* (the send that
    /// crosses the budget silences the rest of the calendar), which a
    /// whole-tick parallel phase cannot replicate bit-for-bit — so a
    /// budgeted run **delegates to the sequential core**. The result is
    /// identical; only the parallelism is lost.
    pub fn comm_limit(&mut self, limit: u128) -> &mut Self {
        self.comm_limit = Some(limit);
        self
    }

    /// Sets the shard/worker count. `0` (the default) uses
    /// [`crate::sweep::effective_threads`]'s auto detection; any other
    /// value is honoured exactly. The shard count is a *partition*
    /// parameter — it selects which deterministic execution is run, so
    /// it is deliberately not capped at the available parallelism
    /// (running more workers than cores is still bit-identical, just
    /// slower).
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads;
        self
    }

    /// Overrides the vertex partition (default:
    /// [`ShardPlan::derive`] on the run's graph and thread count).
    ///
    /// # Panics
    ///
    /// Panics at run time if the plan's vertex count or shard count
    /// does not match the graph/threads.
    pub fn plan(&mut self, plan: ShardPlan) -> &mut Self {
        self.plan = Some(plan);
        self
    }

    /// Runs `make(v, graph)`-constructed processes to quiescence under
    /// the configured [`DelayModel`], sharded across worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does
    /// not quiesce within the event budget.
    pub fn run<P, F>(&self, make: F) -> Result<Run<P>, SimError>
    where
        P: Process + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &WeightedGraph) -> P,
    {
        self.run_with_oracle(&mut ModelOracle::new(self.delay, self.seed), make)
    }

    /// Runs with every message's fate decided by `oracle`, sharded
    /// across worker threads. Oracle queries are serialized in global
    /// dispatch order, so stateful and index-addressed oracles (replay,
    /// random drops, crash schedules) behave exactly as under
    /// [`Simulator::run_with_oracle`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the protocol does
    /// not quiesce within the event budget.
    pub fn run_with_oracle<P, F, O>(&self, oracle: &mut O, make: F) -> Result<Run<P>, SimError>
    where
        P: Process + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + Send + ?Sized,
    {
        // Mid-tick truncation semantics require the sequential loop.
        if let Some(limit) = self.comm_limit {
            let mut seq = Simulator::new(self.graph);
            seq.event_limit(self.event_limit)
                .record_trace(self.trace_cap)
                .core(self.core)
                .comm_limit(limit);
            return seq.run_with_oracle(oracle, make);
        }
        let k = if self.threads == 0 {
            crate::sweep::effective_threads(0)
        } else {
            self.threads
        };
        let plan = match &self.plan {
            Some(p) => {
                assert_eq!(
                    p.assignment().len(),
                    self.graph.node_count(),
                    "shard plan does not cover this graph"
                );
                assert_eq!(p.shards(), k, "shard plan does not match thread count");
                p.clone()
            }
            None => ShardPlan::derive(self.graph, k),
        };
        self.run_planned(oracle, make, &plan)
    }

    fn run_planned<P, F, O>(
        &self,
        oracle: &mut O,
        mut make: F,
        plan: &ShardPlan,
    ) -> Result<Run<P>, SimError>
    where
        P: Process + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &WeightedGraph) -> P,
        O: LinkOracle + Send + ?Sized,
    {
        let g = self.graph;
        let k = plan.shards();
        let n = g.node_count();
        let max_delay = g.max_weight().get();

        // ---- Layout: local indices and channel-floor ownership. ----
        let mut shards: Vec<Shard<P>> = (0..k)
            .map(|_| Shard::new(self.core, max_delay, k))
            .collect();
        let mut local_of: Vec<u32> = vec![0; n];
        for v in g.nodes() {
            let s = plan.shard_of(v);
            local_of[v.index()] = shards[s].nodes.len() as u32;
            shards[s].nodes.push(v);
        }
        for shard in &mut shards {
            shard.node_msg_seq = vec![0; shard.nodes.len()];
            shard.node_timer_seq = vec![0; shard.nodes.len()];
        }
        // The floor of channel `2e + dir` lives with the shard of the
        // vertex that sends on it.
        let mut channel_local: Vec<u32> = vec![0; 2 * g.edge_count()];
        for eid in g.edge_ids() {
            let e = g.edge(eid);
            for (dir, from) in [(0usize, e.u()), (1usize, e.v())] {
                let owner = &mut shards[plan.shard_of(from)];
                channel_local[2 * eid.index() + dir] = owner.floors.len() as u32;
                owner.floors.push(SimTime::ZERO);
            }
        }

        // ---- Time zero, serial: states, churn/drift plans, on_start. ----
        for v in g.nodes() {
            let p = make(v, g);
            shards[plan.shard_of(v)].states.push(p);
        }
        // Plans are queried in the sequential core's exact order —
        // churn per vertex, then drift once — so a recording oracle
        // sees an identical stream.
        let churn: Vec<Vec<SimTime>> = g
            .nodes()
            .map(|v| {
                let plan = oracle.churn_plan(v);
                assert!(
                    plan.windows(2).all(|w| w[0] < w[1]),
                    "churn plan for {v} must be strictly increasing"
                );
                plan
            })
            .collect();
        let mut drift = oracle.drift_plan();
        drift.sort_by_key(|&(_, t, _)| t);
        let mut eff0: Vec<Weight> = g.edge_ids().map(|e| g.weight(e)).collect();
        let mut applied0 = 0usize;
        advance_drift(&mut eff0, &mut applied0, &drift, SimTime::ZERO);
        let mut global = Global {
            oracle,
            cost: CostReport::new(g.edge_count()),
            trace: Trace::new(self.trace_cap),
            seq: 0,
            events: 0,
            err: None,
            eff: eff0.clone(),
            drift_cursor: applied0,
        };
        global.cost.crashed_nodes = churn.iter().filter(|p| !p.is_empty()).count() as u64;
        global.cost.recoveries = churn.iter().map(|p| (p.len() / 2) as u64).sum();
        global.cost.weight_revisions = drift.len() as u64;
        for shard in &mut shards {
            shard.eff = eff0.clone();
            shard.drift_cursor = applied0;
            shard.timer_floor = vec![0; shard.nodes.len()];
            shard.rejoin_states.resize_with(shard.nodes.len(), Vec::new);
        }
        // Fresh rejoin states, fabricated in the sequential order:
        // vertex order then rejoin order, stored reversed per vertex.
        for v in g.nodes() {
            let rejoins = churn[v.index()].len() / 2;
            let stash: Vec<P> = (0..rejoins).map(|_| make(v, g)).collect();
            let (s, li) = (plan.shard_of(v), local_of[v.index()] as usize);
            shards[s].rejoin_states[li].extend(stash.into_iter().rev());
        }
        // Rejoin events take the lowest global seqs — pushed before any
        // dispatch, exactly like the sequential core, so they win
        // pop-order ties at their instant.
        for v in g.nodes() {
            for i in (1..churn[v.index()].len()).step_by(2) {
                let at = churn[v.index()][i];
                let seq = global.seq;
                global.seq += 1;
                shards[plan.shard_of(v)]
                    .queue
                    .push(at.get(), seq, Event::Rejoin { node: v });
            }
        }
        for v in g.nodes() {
            if churned_dead(&churn, v, SimTime::ZERO) {
                continue;
            }
            let s = plan.shard_of(v);
            let li = local_of[v.index()] as usize;
            let mut ctx = Context::new(v, SimTime::ZERO, g).with_weights(&global.eff);
            shards[s].states[li].on_start(&mut ctx);
            let (outbox, _out_edges, timers, cancels) = ctx.into_parts();
            // Sequential-order dispatch straight into the shard queues.
            for (to, msg, class) in outbox {
                let eid = g
                    .edge_between(v, to)
                    .expect("context validated the neighbor");
                let w = global.eff[eid.index()];
                let index = global.cost.messages;
                global.cost.record_send(eid, w, class);
                shards[s].node_msg_seq[li] += 1;
                let channel = 2 * eid.index() + usize::from(g.edge(eid).u() != v);
                let decision = global.oracle.decide(&MsgInfo {
                    index,
                    edge: eid,
                    dir: (channel & 1) as u8,
                    weight: w,
                    from: v,
                    to,
                    sent: SimTime::ZERO,
                });
                let delay = match decision {
                    LinkDecision::Drop => {
                        global.cost.drops += 1;
                        continue;
                    }
                    LinkDecision::Deliver { delay } => delay.clamp(1, w.get()),
                };
                let fl = channel_local[channel] as usize;
                let arrival = (SimTime::ZERO + delay).max(shards[s].floors[fl]);
                shards[s].floors[fl] = arrival;
                let seq = global.seq;
                global.seq += 1;
                let recv = plan.shard_of(to);
                shards[recv].queue.push(
                    arrival.get(),
                    seq,
                    Event::Msg(Delivery {
                        to,
                        from: v,
                        msg,
                        sent: SimTime::ZERO,
                        class,
                        edge: eid,
                    }),
                );
            }
            for id in cancels {
                shards[s].cancelled.insert((v, id));
            }
            for delay in timers {
                let id = shards[s].node_timer_seq[li];
                shards[s].node_timer_seq[li] += 1;
                if shards[s].cancelled.remove(&(v, id)) {
                    continue;
                }
                let seq = global.seq;
                global.seq += 1;
                shards[s]
                    .queue
                    .push(delay, seq, Event::Timer { node: v, id });
            }
        }

        // ---- The tick loop, k workers. ----
        let mins: Vec<AtomicU64> = shards
            .iter_mut()
            .map(|s| AtomicU64::new(s.queue.next_time().unwrap_or(u64::MAX)))
            .collect();
        let stop = AtomicBool::new(false);
        let barrier = SpinBarrier::new(k);
        let inbox: Vec<Vec<Mutex<InboxBuf<P::Msg>>>> = (0..k)
            .map(|_| (0..k).map(|_| Mutex::new(VecDeque::new())).collect())
            .collect();
        let shards: Vec<Mutex<Shard<P>>> = shards.into_iter().map(Mutex::new).collect();
        let global = Mutex::new(global);
        let trace_cap = self.trace_cap;
        let event_limit = self.event_limit;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(k);
            for me in 0..k {
                let shards = &shards;
                let global = &global;
                let mins = &mins;
                let stop = &stop;
                let barrier = &barrier;
                let inbox = &inbox;
                let channel_local = &channel_local;
                let local_of = &local_of;
                let churn = &churn;
                let drift = &drift;
                let builder = std::thread::Builder::new().name(format!("csp-worker-{me}"));
                let handle = builder
                    .spawn_scoped(scope, move || {
                        let _poison = PoisonOnPanic(barrier);
                        loop {
                            // All mins posted (by start or phase A).
                            if !barrier.wait() {
                                return;
                            }
                            let t = mins.iter().map(|m| m.load(Ordering::Acquire)).min();
                            let t = t.unwrap_or(u64::MAX);
                            if t == u64::MAX || stop.load(Ordering::Acquire) {
                                return;
                            }
                            {
                                let mut shard = shards[me].lock().unwrap();
                                phase_b(&mut shard, g, local_of, churn, drift, t);
                            }
                            if !barrier.wait() {
                                return;
                            }
                            if me == 0 {
                                let mut guards: Vec<_> =
                                    shards.iter().map(|s| s.lock().unwrap()).collect();
                                let mut global = global.lock().unwrap();
                                serial_dispatch(
                                    &mut guards,
                                    &mut global,
                                    g,
                                    drift,
                                    t,
                                    trace_cap,
                                    event_limit,
                                );
                                if global.err.is_some() {
                                    stop.store(true, Ordering::Release);
                                }
                            }
                            if !barrier.wait() {
                                return;
                            }
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            {
                                let mut shard = shards[me].lock().unwrap();
                                phase_c(&mut shard, me, g, plan, channel_local, t);
                                for (r, buf) in shard.outbufs.iter_mut().enumerate() {
                                    std::mem::swap(buf, &mut *inbox[r][me].lock().unwrap());
                                }
                            }
                            if !barrier.wait() {
                                return;
                            }
                            {
                                let mut shard = shards[me].lock().unwrap();
                                for (s, stream) in shard.streams.iter_mut().enumerate() {
                                    debug_assert!(stream.is_empty());
                                    std::mem::swap(stream, &mut *inbox[me][s].lock().unwrap());
                                }
                                merge_inboxes(&mut shard);
                                mins[me].store(
                                    shard.queue.next_time().unwrap_or(u64::MAX),
                                    Ordering::Release,
                                );
                            }
                        }
                    })
                    .expect("spawn shard worker");
                handles.push(handle);
            }
            for (i, handle) in handles.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    eprintln!("csp-worker-{i} panicked; re-raising on the caller");
                    std::panic::resume_unwind(payload);
                }
            }
        });

        // ---- Reassemble the run. ----
        let mut global = global.into_inner().unwrap();
        if let Some(err) = global.err {
            return Err(err);
        }
        global.cost.bucket_window = queue::capacity_for(max_delay) as u64;
        let mut states: Vec<Option<P>> = (0..n).map(|_| None).collect();
        for shard in shards {
            let mut shard = shard.into_inner().unwrap();
            global.cost.dead_events += shard.dead_events;
            global.cost.overflow_pushes += shard.queue.overflow_pushes();
            for (v, p) in shard.nodes.iter().zip(shard.states.drain(..)) {
                states[v.index()] = Some(p);
            }
        }
        Ok(Run {
            states: states
                .into_iter()
                .map(|p| p.expect("every vertex assigned"))
                .collect(),
            cost: global.cost,
            truncated: false,
            trace: global.trace,
        })
    }
}

/// Phase B: pop every event scheduled at `t` (in `seq` order) and run
/// the handlers, recording sends/arms into the shard's arenas. Only
/// vertex-local state moves here — the global meters wait for the
/// leader.
fn phase_b<P: Process>(
    shard: &mut Shard<P>,
    g: &WeightedGraph,
    local_of: &[u32],
    churn: &[Vec<SimTime>],
    drift: &[(EdgeId, SimTime, Weight)],
    t: u64,
) {
    shard.recs.clear();
    shard.sends.clear();
    shard.arms.clear();
    shard.decided.clear();
    shard.arm_seqs.clear();
    let now = SimTime::new(t);
    // Revisions with time ≤ t take hold before any handler at this tick
    // runs — the same visibility rule as the sequential pop loop.
    advance_drift(&mut shard.eff, &mut shard.drift_cursor, drift, now);
    while shard.queue.next_time() == Some(t) {
        let (_, seq, event) = shard.queue.pop().expect("peeked entry exists");
        let (node, fire) = match event {
            Event::Msg(d) => (d.to, Some(Ok(d))),
            Event::Timer { node, id } => {
                if shard.cancelled.remove(&(node, id)) {
                    continue;
                }
                if id < shard.timer_floor[local_of[node.index()] as usize] {
                    shard.dead_events += 1;
                    continue;
                }
                (node, Some(Err(id)))
            }
            Event::Rejoin { node } => (node, None),
        };
        if churned_dead(churn, node, now) {
            shard.dead_events += 1;
            continue;
        }
        let li = local_of[node.index()] as usize;
        if fire.is_none() {
            // Rejoin: restart the vertex with its stashed fresh state
            // and retire every timer id armed by earlier incarnations.
            let fresh = shard.rejoin_states[li]
                .pop()
                .expect("a fresh state was stashed per scheduled rejoin");
            shard.states[li] = fresh;
            shard.timer_floor[li] = shard.node_timer_seq[li];
        }
        let outbox = std::mem::take(&mut shard.outbox);
        let out_edges = std::mem::take(&mut shard.out_edges);
        let timers = std::mem::take(&mut shard.timers);
        let cancels = std::mem::take(&mut shard.cancels);
        let mut ctx = Context::recycled(
            node,
            now,
            g,
            outbox,
            out_edges,
            timers,
            cancels,
            shard.node_msg_seq[li],
            shard.node_timer_seq[li],
        )
        .with_weights(&shard.eff);
        let msg = match fire {
            Some(Ok(d)) => {
                let meta = MsgMeta {
                    from: d.from,
                    edge: d.edge,
                    sent: d.sent,
                    class: d.class,
                };
                shard.states[li].on_message(d.from, d.msg, &mut ctx);
                Some(meta)
            }
            Some(Err(id)) => {
                shard.states[li].on_timer(TimerId(id), &mut ctx);
                None
            }
            None => {
                shard.states[li].on_start(&mut ctx);
                None
            }
        };
        (shard.outbox, shard.out_edges, shard.timers, shard.cancels) = ctx.into_parts();
        let send_start = shard.sends.len() as u32;
        for ((to, m, class), eid) in shard.outbox.drain(..).zip(shard.out_edges.drain(..)) {
            shard.sends.push((to, m, class, eid));
        }
        shard.node_msg_seq[li] += shard.sends.len() as u64 - u64::from(send_start);
        for id in shard.cancels.drain(..) {
            shard.cancelled.insert((node, id));
        }
        let arm_start = shard.arms.len() as u32;
        for delay in shard.timers.drain(..) {
            let id = shard.node_timer_seq[li];
            shard.node_timer_seq[li] += 1;
            if shard.cancelled.remove(&(node, id)) {
                continue;
            }
            shard.arms.push((id, delay));
        }
        shard.recs.push(HandlerRec {
            seq,
            node,
            msg,
            sends: (send_start, shard.sends.len() as u32),
            arms: (arm_start, shard.arms.len() as u32),
        });
    }
}

/// The leader's serial section: merge every shard's handler records by
/// event `seq` and replay the dispatch side effects — event budget,
/// meters, trace, oracle queries, global push-sequence assignment — in
/// exactly the sequential order.
fn serial_dispatch<P: Process, O: LinkOracle + Send + ?Sized>(
    shards: &mut [impl std::ops::DerefMut<Target = Shard<P>>],
    global: &mut Global<'_, O>,
    g: &WeightedGraph,
    drift: &[(EdgeId, SimTime, Weight)],
    t: u64,
    trace_cap: usize,
    event_limit: u64,
) {
    let now = SimTime::new(t);
    advance_drift(&mut global.eff, &mut global.drift_cursor, drift, now);
    let mut cursor: Vec<usize> = vec![0; shards.len()];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, shard) in shards.iter().enumerate() {
            if let Some(rec) = shard.recs.get(cursor[s]) {
                if best.is_none_or(|(seq, _)| rec.seq < seq) {
                    best = Some((rec.seq, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let shard = &mut *shards[s];
        let rec = &shard.recs[cursor[s]];
        cursor[s] += 1;
        global.events += 1;
        if global.events > event_limit {
            // The event that crossed the budget dispatches nothing —
            // the oracle's query count matches the sequential abort.
            global.err = Some(SimError::EventLimitExceeded { limit: event_limit });
            return;
        }
        if let Some(meta) = &rec.msg {
            global.cost.record_delivery(now, meta.class);
            if trace_cap > 0 {
                global.trace.push(TraceEvent {
                    from: meta.from,
                    to: rec.node,
                    edge: meta.edge,
                    sent: meta.sent,
                    delivered: now,
                    class: meta.class,
                });
            }
        }
        let from = rec.node;
        for i in rec.sends.0 as usize..rec.sends.1 as usize {
            let (to, _, class, eid) = &shard.sends[i];
            let (to, class, eid) = (*to, *class, *eid);
            let w = global.eff[eid.index()];
            let index = global.cost.messages;
            global.cost.record_send(eid, w, class);
            let dir = u8::from(g.edge(eid).u() != from);
            let decision = global.oracle.decide(&MsgInfo {
                index,
                edge: eid,
                dir,
                weight: w,
                from,
                to,
                sent: now,
            });
            let fate = match decision {
                LinkDecision::Drop => {
                    global.cost.drops += 1;
                    Fate::Drop
                }
                LinkDecision::Deliver { delay } => {
                    let seq = global.seq;
                    global.seq += 1;
                    Fate::Deliver {
                        delay: delay.clamp(1, w.get()),
                        seq,
                    }
                }
            };
            shard.decided.push(fate);
        }
        for _ in rec.arms.0..rec.arms.1 {
            shard.arm_seqs.push(global.seq);
            global.seq += 1;
        }
    }
}

/// Phase C: walk the shard's own records in order, apply the sender-side
/// FIFO floors to every delivered send, and route each push into the
/// per-receiver outbox buffer. Walking in record order keeps each
/// `(sender, receiver)` stream ascending in `seq`, which phase A's merge
/// and the bucket queue's append contract rely on.
fn phase_c<P: Process>(
    shard: &mut Shard<P>,
    me: usize,
    g: &WeightedGraph,
    plan: &ShardPlan,
    channel_local: &[u32],
    t: u64,
) {
    let now = SimTime::new(t);
    let mut send_i = 0usize;
    let mut arm_i = 0usize;
    let sends = std::mem::take(&mut shard.sends);
    let mut payloads = sends.into_iter();
    for rec in &shard.recs {
        let from = rec.node;
        for _ in rec.sends.0..rec.sends.1 {
            let (to, msg, class, eid) = payloads.next().expect("send arena aligned");
            let fate = shard.decided[send_i];
            send_i += 1;
            let Fate::Deliver { delay, seq } = fate else {
                continue;
            };
            let channel = 2 * eid.index() + usize::from(g.edge(eid).u() != from);
            let fl = channel_local[channel] as usize;
            let arrival = (now + delay).max(shard.floors[fl]);
            shard.floors[fl] = arrival;
            shard.outbufs[plan.shard_of(to)].push_back((
                arrival.get(),
                seq,
                Event::Msg(Delivery {
                    to,
                    from,
                    msg,
                    sent: now,
                    class,
                    edge: eid,
                }),
            ));
        }
        for _ in rec.arms.0..rec.arms.1 {
            let (id, delay) = shard.arms[arm_i];
            let seq = shard.arm_seqs[arm_i];
            arm_i += 1;
            shard.outbufs[me].push_back((t + delay, seq, Event::Timer { node: from, id }));
        }
    }
    // Give the (now spent) sends arena its allocation back.
    shard.sends = {
        let mut v = payloads.collect::<Vec<_>>();
        v.clear();
        v
    };
}

/// Phase A: k-way merge the inbox streams by global `seq` into the
/// shard's queue. Each stream is already ascending, so pushes enter
/// every bucket in `seq` order — the append contract `BucketQueue`
/// debug-asserts.
fn merge_inboxes<P: Process>(shard: &mut Shard<P>) {
    let mut streams = std::mem::take(&mut shard.streams);
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(&(_, seq, _)) = stream.front() {
                if best.is_none_or(|(b, _)| seq < b) {
                    best = Some((seq, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let (time, seq, event) = streams[s].pop_front().expect("front peeked");
        shard.queue.push(time, seq, event);
    }
    shard.streams = streams;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{CrashOracle, DropOracle};
    use crate::process::MsgToken;
    use csp_graph::generators::{self, WeightDist};

    /// Flood + timer chatter: every delivery toggles between arming and
    /// cancelling a timer, and timer fires re-arm a bounded number of
    /// times — exercising sends, arms, cancels and cross-shard traffic
    /// in one protocol. State derives `PartialEq` so differential
    /// checks compare final states exactly (including the per-vertex
    /// `TimerId`s and `MsgToken`s baked into them).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Pulse {
        root: bool,
        hops: u32,
        pending: Option<TimerId>,
        last_token: Option<MsgToken>,
        fired: u32,
    }

    impl Pulse {
        fn make(root: NodeId) -> impl FnMut(NodeId, &WeightedGraph) -> Pulse {
            move |v, _| Pulse {
                root: v == root,
                hops: 0,
                pending: None,
                last_token: None,
                fired: 0,
            }
        }
    }

    impl Process for Pulse {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if self.root {
                self.last_token = ctx.send_all(0);
            }
            self.pending = Some(ctx.set_timer(3));
        }

        fn on_message(&mut self, _from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.hops = self.hops.max(msg);
            if msg < 3 {
                self.last_token = ctx.send_all(msg + 1);
            }
            match self.pending.take() {
                Some(id) => ctx.cancel_timer(id),
                None => self.pending = Some(ctx.set_timer(2)),
            }
        }

        fn on_timer(&mut self, _id: TimerId, ctx: &mut Context<'_, u32>) {
            self.pending = None;
            self.fired += 1;
            if self.fired < 3 {
                self.pending = Some(ctx.set_timer(1));
            }
        }
    }

    fn test_graph(n: usize, seed: u64) -> WeightedGraph {
        generators::connected_gnp(n, 0.15, WeightDist::Uniform(1, 16), seed)
    }

    fn assert_runs_match(seq: &Run<Pulse>, par: &Run<Pulse>, what: &str) {
        assert_eq!(seq.cost, par.cost, "{what}: cost");
        assert_eq!(seq.states, par.states, "{what}: states");
        assert_eq!(seq.truncated, par.truncated, "{what}: truncated");
        assert_eq!(seq.trace.events(), par.trace.events(), "{what}: trace");
        assert_eq!(
            seq.trace.dropped(),
            par.trace.dropped(),
            "{what}: trace cap"
        );
    }

    #[test]
    fn sharded_matches_sequential_under_model_oracles() {
        for seed in [1u64, 7, 42] {
            let g = test_graph(40, seed);
            for kind in [CoreKind::Bucket, CoreKind::Heap] {
                let seq = Simulator::new(&g)
                    .delay(DelayModel::Uniform)
                    .seed(seed)
                    .core(kind)
                    .record_trace(4096)
                    .run(Pulse::make(NodeId::new(0)))
                    .unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let par = ShardedSimulator::new(&g)
                        .delay(DelayModel::Uniform)
                        .seed(seed)
                        .core(kind)
                        .record_trace(4096)
                        .threads(threads)
                        .run(Pulse::make(NodeId::new(0)))
                        .unwrap();
                    assert_runs_match(&seq, &par, &format!("seed {seed} k {threads}"));
                }
            }
        }
    }

    #[test]
    fn drops_and_crashes_match() {
        let g = test_graph(32, 11);
        let oracle = || {
            CrashOracle::new(
                DropOracle::new(DelayModel::Uniform, 5, 0.2, 2),
                vec![
                    (NodeId::new(3), SimTime::new(9)),
                    (NodeId::new(10), SimTime::ZERO),
                ],
            )
        };
        let seq = Simulator::new(&g)
            .record_trace(4096)
            .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
            .unwrap();
        for threads in [2usize, 4, 8] {
            let par = ShardedSimulator::new(&g)
                .record_trace(4096)
                .threads(threads)
                .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
                .unwrap();
            assert_runs_match(&seq, &par, &format!("faulty k {threads}"));
        }
        assert!(seq.cost.drops > 0, "drop oracle should have dropped");
        assert_eq!(seq.cost.crashed_nodes, 2);
    }

    #[test]
    fn rejoins_and_drift_match_sequential() {
        use crate::delay::ChurnOracle;
        let g = test_graph(32, 23);
        let oracle = || {
            ChurnOracle::new(
                DropOracle::new(DelayModel::Uniform, 5, 0.1, 2),
                vec![
                    // Crash–rejoin, crash–rejoin–recrash, and plain
                    // crash-stop, spread across shards.
                    (NodeId::new(3), vec![SimTime::new(4), SimTime::new(12)]),
                    (
                        NodeId::new(10),
                        vec![SimTime::new(2), SimTime::new(9), SimTime::new(15)],
                    ),
                    (NodeId::new(17), vec![SimTime::new(7)]),
                ],
                vec![
                    (EdgeId::new(0), SimTime::new(5), Weight::new(3)),
                    (EdgeId::new(1), SimTime::new(11), Weight::new(9)),
                ],
            )
        };
        let seq = Simulator::new(&g)
            .record_trace(4096)
            .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
            .unwrap();
        assert_eq!(seq.cost.recoveries, 2);
        assert_eq!(seq.cost.weight_revisions, 2);
        assert_eq!(seq.cost.crashed_nodes, 3);
        for threads in [2usize, 4, 8] {
            for kind in [CoreKind::Bucket, CoreKind::Heap] {
                let par = ShardedSimulator::new(&g)
                    .record_trace(4096)
                    .threads(threads)
                    .core(kind)
                    .run_with_oracle(&mut oracle(), Pulse::make(NodeId::new(0)))
                    .unwrap();
                assert_runs_match(&seq, &par, &format!("churn k {threads} {kind:?}"));
            }
        }
    }

    #[test]
    fn comm_limit_delegates_to_sequential() {
        let g = test_graph(24, 3);
        let seq = Simulator::new(&g)
            .comm_limit(40)
            .run(Pulse::make(NodeId::new(0)))
            .unwrap();
        let par = ShardedSimulator::new(&g)
            .comm_limit(40)
            .threads(4)
            .run(Pulse::make(NodeId::new(0)))
            .unwrap();
        assert!(seq.truncated, "budget should truncate this workload");
        assert_eq!(seq.cost, par.cost);
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.truncated, par.truncated);
    }

    #[test]
    fn more_shards_than_vertices() {
        let g = generators::path(3, |_| 2);
        let seq = Simulator::new(&g).run(Pulse::make(NodeId::new(1))).unwrap();
        let par = ShardedSimulator::new(&g)
            .threads(8)
            .run(Pulse::make(NodeId::new(1)))
            .unwrap();
        assert_runs_match(&seq, &par, "k > n");
    }

    #[test]
    fn event_limit_error_matches() {
        let g = test_graph(24, 19);
        let seq = Simulator::new(&g)
            .event_limit(10)
            .run(Pulse::make(NodeId::new(0)));
        let par = ShardedSimulator::new(&g)
            .event_limit(10)
            .threads(4)
            .run(Pulse::make(NodeId::new(0)));
        assert_eq!(
            seq.unwrap_err(),
            par.unwrap_err(),
            "budget abort must agree"
        );
    }

    #[test]
    fn explicit_plan_is_honored() {
        let g = test_graph(20, 2);
        let plan = ShardPlan::contiguous(20, 3);
        let seq = Simulator::new(&g).run(Pulse::make(NodeId::new(0))).unwrap();
        let par = ShardedSimulator::new(&g)
            .threads(3)
            .plan(plan)
            .run(Pulse::make(NodeId::new(0)))
            .unwrap();
        assert_runs_match(&seq, &par, "contiguous plan");
    }
}
