//! Integer-keyed event queues that carry their events: the chunked
//! bucket "calendar" behind the hot scheduling path, and the binary-heap
//! reference it is checked against.
//!
//! # Why a bucket queue works here
//!
//! Both executors in this crate schedule events whose keys satisfy two
//! structural properties (see the proofs sketched in DESIGN.md):
//!
//! 1. **Monotone pushes.** Every push happens while the queue's clock
//!    sits at the last popped time `now`, and schedules an arrival
//!    strictly greater than `now` (delays are quantized to ≥ 1 tick, and
//!    the per-channel FIFO floor is itself a previously scheduled
//!    arrival).
//! 2. **Bounded span.** Every pending arrival lies in `(now, now + W]`
//!    where `W` is the maximum edge weight: a fresh arrival is at most
//!    `now + w(e) ≤ now + W`, and a FIFO-floored arrival *equals* an
//!    earlier arrival, which is within the bound by induction.
//!
//! Under these two properties a circular array of `capacity ≥ W + 1`
//! buckets indexed by `time mod capacity` holds every pending event with
//! **at most one distinct timestamp per bucket**, so push is O(1) and
//! pop is a bitmap scan. The global send-order sequence number makes
//! same-time pops identical to the heap's `(time, seq)` order: pushes
//! carry strictly increasing `seq`, so append order inside a bucket *is*
//! seq order. Because every bucketed entry lies in `[clock, clock +
//! capacity)`, a bucket's timestamp follows from its index and the clock
//! and is not stored at all.
//!
//! # Layout: one chunk arena
//!
//! The queue stores the events themselves, not handles to them. Each
//! bucket is a chain of fixed-size chunks of `CHUNK` (16) `(seq, event)`
//! entries, filled front to back; all chunks come from one arena shared
//! by every bucket, and a drained chunk goes back on a free list that
//! any bucket may draw from next. Three reasons shape it:
//!
//! * **No dependent misses.** A per-entry linked list with a separate
//!   payload slot costs two dependent cache misses per pop: the list
//!   node, pushed up to `W` ticks earlier, and then the payload it
//!   names. Here the entry a pop reads *is* the payload, and the entries
//!   of one tick sit side by side, so a same-tick burst streams through
//!   contiguous memory.
//! * **Memory follows the global in-flight peak.** Per-bucket vectors
//!   each keep their own peak; the shared arena never holds more than
//!   one chunk per non-empty bucket plus `in-flight / CHUNK` chunks, and
//!   a recycled chunk is reused while it is still warm in cache. The
//!   arena is a handful of flat allocations, so a pooled simulator and
//!   thousands of short adversary runs reuse it wholesale.
//! * **Checkpoints are sorted lists.** [`BucketQueue::snapshot_sorted`]
//!   writes the pending entries out in `(time, seq)` order and
//!   [`BucketQueue::restore`] re-pushes them, so a checkpoint holds only
//!   what is in flight, in one format both queue kinds accept.
//!
//! Weights larger than the bucket horizon (the capacity is capped — see
//! [`MAX_CAPACITY`]) fall back to an **overflow heap**:
//! entries beyond `cur + capacity` wait there and are merged into the
//! window, in seq order, before any pop that could overtake them. This
//! keeps the queue exact for arbitrarily heavy edges at a small cost on
//! that (rare) path. The window is auto-sized from the workload's
//! maximum delay ([`BucketQueue::new`]), so overflow only engages past
//! `W ≥ MAX_CAPACITY`; [`BucketQueue::overflow_pushes`] counts the
//! entries that took it, and the regression tests pin that a `W = 10⁴`
//! workload stays entirely inside the window.
//!
//! Same-bucket events additionally drain through a **hot-bucket fast
//! path**: after a pop leaves further entries at the same timestamp,
//! subsequent pops take them straight off that bucket's chain — no
//! bitmap re-scan, no overflow probe — until the tick is exhausted.
//! This is what makes batched same-tick delivery (wide simultaneous
//! fan-outs on million-edge graphs) O(1) per event instead of O(scan).
//!
//! [`HeapQueue`] is the retained `BinaryHeap` implementation — the
//! differential reference the proptests and the core microbench run the
//! bucket queue against (`Simulator::core(CoreKind::Heap)`).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Entries per arena chunk. Sixteen `(seq, event)` entries of the
/// simulator's event type span a few cache lines — long enough that a
/// same-tick burst streams through contiguous memory, short enough that
/// a bucket holding one event wastes little.
const CHUNK: usize = 16;

/// Sentinel "no slot / no chunk" index.
const NIL: u32 = u32::MAX;

/// Whether arena slot `slot` is the last of its chunk.
#[inline]
fn last_in_chunk(slot: u32) -> bool {
    (slot as usize + 1).is_multiple_of(CHUNK)
}

/// Hard cap on the bucket array: 2¹⁸ buckets (≈ 2 MiB of headers at
/// full size — but queues are auto-sized from the workload's
/// maximum delay, so only runs that need the full window allocate
/// it). The previous cap of 2⁸ silently routed every workload with
/// `W > 256` through the overflow heap, turning the O(1) hot path
/// into a `BinaryHeap` on exactly the heavy-weighted graphs the
/// cost-sensitive analysis cares about; 2¹⁸ covers the scale-tier
/// weight distributions outright, and delays past the cap still
/// ride the overflow heap and merge back in exactly
/// ([`BucketQueue::overflow_pushes`] counts them). The cap is
/// 64 · 64 · 64, so the three-level bitmap's top level is a single
/// `u64` word.
pub const MAX_CAPACITY: usize = 1 << 18;

/// Smallest bucket array worth the bitmap bookkeeping.
pub const MIN_CAPACITY: usize = 1 << 4;

/// The bucket count [`BucketQueue::new`] would allocate for
/// `max_delay` — lets pools decide whether an existing queue's
/// window already suffices. Window sizing does not depend on the
/// event type, so it lives beside the queue rather than on it.
pub fn capacity_for(max_delay: u64) -> usize {
    (max_delay.saturating_add(1).min(MAX_CAPACITY as u64) as usize)
        .next_power_of_two()
        .clamp(MIN_CAPACITY, MAX_CAPACITY)
}

/// A pending entry with its key, ordered by `(time, seq)` alone so the
/// payload needs no ordering of its own. Used by the overflow heap and
/// by [`HeapQueue`].
#[derive(Debug)]
struct Keyed<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> Keyed<T> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Keyed<T> {}

impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Circular bucket ("calendar") queue with exact `(time, seq)` pop
/// order, an O(1) amortized push, and a two-level-bitmap pop scan. Each
/// entry carries its event `T`; [`pop`](BucketQueue::pop) hands it back
/// by value.
///
/// See the [module docs](self) for the invariants this relies on and
/// the chunk-arena layout; they are asserted in debug builds and pinned
/// against [`HeapQueue`] and the baseline simulator by the proptests
/// below and `tests/flat_core_differential.rs`.
#[derive(Debug)]
pub struct BucketQueue<T> {
    /// Arena slot of each bucket's first pending entry, or [`NIL`] for
    /// an empty bucket.
    head: Vec<u32>,
    /// Arena slot of each bucket's *last* pending entry (never one past
    /// it: a full tail chunk's end would alias the start of the next
    /// chunk in the arena). Meaningless while `head` is [`NIL`].
    tail: Vec<u32>,
    mask: u64,
    /// Bit `b` set ⇔ bucket `b` is non-empty.
    l0: Vec<u64>,
    /// Bit `w` set ⇔ `l0[w] != 0`.
    l1: Vec<u64>,
    /// Bit `w` set ⇔ `l1[w] != 0`. The capacity cap is 2¹⁸ = 64·64·64
    /// buckets, so one third-level word always suffices.
    l2: u64,
    /// Bucket still holding entries at exactly `cur` after the last
    /// pop, or [`NIL`]: the same-tick fast path drains it directly —
    /// no pending entry (bucketed or overflow) can precede its head.
    hot: u32,
    /// Entries currently held in the buckets.
    bucketed: usize,
    /// The chunk arena: chunk `c` owns slots `c·CHUNK .. (c+1)·CHUNK`.
    /// `None` marks a slot outside every bucket's live range.
    slots: Vec<Option<(u64, T)>>,
    /// Per chunk: the next chunk of the same bucket ([`NIL`] at the
    /// tail), or for a free chunk the next free one.
    links: Vec<u32>,
    /// Head of the free-chunk list, or [`NIL`].
    free: u32,
    /// The last popped time; every pending entry is ≥ `cur` and every
    /// bucketed entry is `< cur + capacity`.
    cur: u64,
    /// Entries scheduled at or beyond `cur + capacity`, merged into the
    /// window lazily as `cur` advances.
    overflow: BinaryHeap<Reverse<Keyed<T>>>,
    /// Pushes that landed beyond the window since the last clear.
    overflow_pushes: u64,
}

impl<T> BucketQueue<T> {
    /// Creates a queue sized for delays up to `max_delay` ticks: the
    /// capacity is the next power of two above `max_delay + 1`, clamped
    /// into `[MIN_CAPACITY, MAX_CAPACITY]`, so the common case (maximum
    /// edge weight below the cap) never touches the overflow heap.
    pub fn new(max_delay: u64) -> Self {
        Self::with_capacity(capacity_for(max_delay))
    }

    /// Creates a queue with an explicit bucket count (rounded up to a
    /// power of two and clamped into `[MIN_CAPACITY, MAX_CAPACITY]`) —
    /// mainly for tests that want to force the overflow path.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity
            .next_power_of_two()
            .clamp(MIN_CAPACITY, MAX_CAPACITY);
        let l0_words = capacity.div_ceil(64);
        BucketQueue {
            head: vec![NIL; capacity],
            tail: vec![NIL; capacity],
            mask: capacity as u64 - 1,
            l0: vec![0; l0_words],
            l1: vec![0; l0_words.div_ceil(64)],
            l2: 0,
            hot: NIL,
            bucketed: 0,
            slots: Vec::new(),
            links: Vec::new(),
            free: NIL,
            cur: 0,
            overflow: BinaryHeap::new(),
            overflow_pushes: 0,
        }
    }

    /// Number of buckets (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Total pending entries (bucketed + overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// Whether no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pushes that landed beyond the bucket window and took
    /// the overflow-heap path since the last
    /// [`clear`](BucketQueue::clear) or [`restore`](BucketQueue::restore).
    /// Stays zero for any workload whose maximum delay fits the
    /// auto-sized window — the scale regression pins this for `W = 10⁴`.
    #[inline]
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Chunks the arena has allocated since the last
    /// [`clear`](BucketQueue::clear), in use or free — the queue's
    /// memory high-water mark in units of `CHUNK` entries.
    #[cfg(test)]
    pub(crate) fn arena_chunks(&self) -> usize {
        self.links.len()
    }

    /// Removes every pending entry and rewinds the clock to zero,
    /// keeping all allocations (arena, bitmaps, overflow) for reuse.
    pub fn clear(&mut self) {
        for (w, &word) in self.l0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = (w << 6) | bits.trailing_zeros() as usize;
                self.head[b] = NIL;
                self.tail[b] = NIL;
                bits &= bits - 1;
            }
        }
        self.l0.fill(0);
        self.l1.fill(0);
        self.l2 = 0;
        self.hot = NIL;
        self.bucketed = 0;
        self.slots.clear();
        self.links.clear();
        self.free = NIL;
        self.cur = 0;
        self.overflow.clear();
        self.overflow_pushes = 0;
    }

    #[inline]
    fn set_bit(&mut self, b: usize) {
        let w0 = b >> 6;
        self.l0[w0] |= 1 << (b & 63);
        self.l1[w0 >> 6] |= 1 << (w0 & 63);
        self.l2 |= 1 << (w0 >> 6);
    }

    #[inline]
    fn clear_bit(&mut self, b: usize) {
        let w0 = b >> 6;
        self.l0[w0] &= !(1 << (b & 63));
        if self.l0[w0] == 0 {
            let w1 = w0 >> 6;
            self.l1[w1] &= !(1 << (w0 & 63));
            if self.l1[w1] == 0 {
                self.l2 &= !(1 << w1);
            }
        }
    }

    /// The timestamp of bucket `b`'s entries: the unique time in
    /// `[cur, cur + capacity)` congruent to `b`.
    #[inline]
    fn bucket_time(&self, b: usize) -> u64 {
        self.cur + ((b as u64).wrapping_sub(self.cur) & self.mask)
    }

    /// Takes a chunk off the free list, or grows the arena by one.
    #[inline]
    fn alloc_chunk(&mut self) -> u32 {
        let c = self.free;
        if c != NIL {
            self.free = self.links[c as usize];
            self.links[c as usize] = NIL;
            c
        } else {
            self.links.push(NIL);
            self.slots.resize_with(self.slots.len() + CHUNK, || None);
            (self.links.len() - 1) as u32
        }
    }

    /// Returns chunk `c` to the free list. Its slots are all `None`.
    #[inline]
    fn release_chunk(&mut self, c: usize) {
        self.links[c] = self.free;
        self.free = c as u32;
    }

    /// The slot after `at` within its bucket's chain: the next slot of
    /// the same chunk, or the first slot of the linked chunk.
    #[inline]
    fn next_slot(&self, at: u32) -> u32 {
        if last_in_chunk(at) {
            self.links[at as usize / CHUNK] * CHUNK as u32
        } else {
            at + 1
        }
    }

    /// Appends `(seq, item)` behind bucket `b`'s tail, opening a chunk
    /// when the bucket is empty or its tail chunk is full.
    #[inline]
    fn append(&mut self, b: usize, seq: u64, item: T) {
        let t = self.tail[b];
        let slot = if self.head[b] == NIL {
            let s = self.alloc_chunk() * CHUNK as u32;
            self.head[b] = s;
            self.set_bit(b);
            s
        } else if last_in_chunk(t) {
            debug_assert!(
                self.slots[t as usize].as_ref().is_some_and(|e| e.0 < seq),
                "bucket {b} would break seq order"
            );
            let c = self.alloc_chunk();
            self.links[t as usize / CHUNK] = c;
            c * CHUNK as u32
        } else {
            debug_assert!(
                self.slots[t as usize].as_ref().is_some_and(|e| e.0 < seq),
                "bucket {b} would break seq order"
            );
            t + 1
        };
        self.slots[slot as usize] = Some((seq, item));
        self.tail[b] = slot;
        self.bucketed += 1;
    }

    /// Removes bucket `b`'s head entry (the bucket must be non-empty),
    /// releasing each chunk as it drains. Returns the entry and whether
    /// the bucket still holds more.
    #[inline]
    fn take_head(&mut self, b: usize) -> ((u64, T), bool) {
        let h = self.head[b];
        let entry = self.slots[h as usize]
            .take()
            .expect("a bucket head holds an entry");
        self.bucketed -= 1;
        if h == self.tail[b] {
            self.release_chunk(h as usize / CHUNK);
            self.head[b] = NIL;
            self.tail[b] = NIL;
            self.clear_bit(b);
            return (entry, false);
        }
        let next = self.next_slot(h);
        if last_in_chunk(h) {
            self.release_chunk(h as usize / CHUNK);
        }
        self.head[b] = next;
        (entry, true)
    }

    /// Schedules `item` at `(time, seq)`.
    ///
    /// `time` must be at least the last popped time, and `seq` strictly
    /// greater than every previously pushed seq (both debug-asserted) —
    /// exactly what the simulator's dispatch loop guarantees.
    #[inline]
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(
            time >= self.cur,
            "bucket queue requires monotone pushes: {time} < clock {}",
            self.cur
        );
        if time - self.cur > self.mask {
            self.overflow.push(Reverse(Keyed { time, seq, item }));
            self.overflow_pushes += 1;
            return;
        }
        self.append((time & self.mask) as usize, seq, item);
    }

    /// Merges every overflow entry that now falls inside the bucket
    /// window `[cur, cur + capacity)`. Insertion keeps per-bucket seq
    /// order (overflow entries may pre-date bucketed ones).
    fn merge_overflow(&mut self) {
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| e.time - self.cur <= self.mask)
        {
            let Reverse(Keyed { time, seq, item }) = self.overflow.pop().expect("peeked entry");
            let b = (time & self.mask) as usize;
            let behind_tail = self.head[b] == NIL
                || self.slots[self.tail[b] as usize]
                    .as_ref()
                    .is_some_and(|e| e.0 < seq);
            if behind_tail {
                self.append(b, seq, item);
            } else {
                // The entry pre-dates some bucketed ones: rebuild the
                // bucket in seq order. Rare by construction.
                let mut held = Vec::new();
                while self.head[b] != NIL {
                    held.push(self.take_head(b).0);
                }
                let at = held.partition_point(|e| e.0 < seq);
                held.insert(at, (seq, item));
                for (s, it) in held {
                    self.append(b, s, it);
                }
            }
        }
    }

    /// First non-empty bucket at circular distance ≥ 0 from `start`.
    /// Must only be called while some bucket is non-empty.
    fn next_set_from(&self, start: usize) -> usize {
        let w0 = start >> 6;
        let within = self.l0[w0] & (u64::MAX << (start & 63));
        if within != 0 {
            return (w0 << 6) | within.trailing_zeros() as usize;
        }
        let w0 = self.next_word_from(w0 + 1);
        (w0 << 6) | self.l0[w0].trailing_zeros() as usize
    }

    /// First non-empty `l0` word at circular index ≥ `start`, via the
    /// `l1`/`l2` summaries. `start == l0.len()` wraps to zero. Must only
    /// be called while some bucket is non-empty.
    fn next_word_from(&self, start: usize) -> usize {
        let start = if start >= self.l0.len() { 0 } else { start };
        let w1 = start >> 6;
        let within = self.l1[w1] & (u64::MAX << (start & 63));
        if within != 0 {
            return (w1 << 6) | within.trailing_zeros() as usize;
        }
        // Later `l1` words via `l2`, else wrap to the earliest set word
        // (which may be `w1` itself, with only pre-`start` bits — those
        // come last in circular order, exactly as the wrap implies).
        let hi = if w1 + 1 < 64 { u64::MAX << (w1 + 1) } else { 0 };
        let later = self.l2 & hi;
        let w = if later != 0 {
            later.trailing_zeros() as usize
        } else {
            debug_assert_ne!(self.l2, 0, "scan on an empty bucket queue");
            self.l2.trailing_zeros() as usize
        };
        (w << 6) | self.l1[w].trailing_zeros() as usize
    }

    /// The timestamp the next [`BucketQueue::pop`] will return, without
    /// consuming it.
    ///
    /// A pure peek: it must NOT advance the clock the way [`pop`]'s
    /// window preparation does, because callers (the lock-step runner)
    /// peek ahead and may still schedule sends from an earlier wake-up
    /// pulse. The bucket scan alone is not enough — a pop advances the
    /// window, and an overflow entry the window now covers (but which
    /// [`pop`] has not merged yet) can undercut every bucketed time — so
    /// the peek is the minimum over both sides.
    ///
    /// [`pop`]: BucketQueue::pop
    pub fn next_time(&self) -> Option<u64> {
        let bucketed = (self.bucketed > 0)
            .then(|| self.bucket_time(self.next_set_from((self.cur & self.mask) as usize)));
        let overflowed = self.overflow.peek().map(|Reverse(e)| e.time);
        match (bucketed, overflowed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Makes the bucket window authoritative: jumps the clock onto the
    /// overflow head when the buckets ran dry, then merges every
    /// overflow entry the window now covers. Returns `None` when the
    /// queue is empty.
    fn prepare_window(&mut self) -> Option<()> {
        if self.bucketed == 0 {
            self.cur = self.overflow.peek()?.0.time;
        }
        self.merge_overflow();
        Some(())
    }

    /// Advances the window origin to `t` without popping — for executors
    /// whose clock can jump ahead of the last delivery (the lock-step
    /// runner's wake-up pulses). Valid only when no pending entry is
    /// earlier than `t` (debug-asserted); entries the enlarged window now
    /// covers migrate out of the overflow heap.
    pub fn advance_to(&mut self, t: u64) {
        if t <= self.cur {
            return;
        }
        debug_assert!(self.next_time().is_none_or(|nt| nt >= t));
        self.hot = NIL;
        self.cur = t;
        self.merge_overflow();
    }

    /// Removes and returns the minimum entry by `(time, seq)` as
    /// `(time, seq, item)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let b = if self.hot != NIL {
            // Same-tick fast path: the previous pop left entries at
            // exactly `cur` in this bucket. Nothing can precede them —
            // any overflow entry at `cur` would have been merged before
            // that pop (its span from the pre-pop clock was within the
            // window, like the popped entry's), every other bucket holds
            // strictly later times, and same-tick pushes append behind
            // the tail in seq order. So: no overflow probe, no scan.
            self.hot as usize
        } else {
            // Window preparation only matters while overflow entries
            // exist — skipping it keeps the common path branch-cheap.
            if !self.overflow.is_empty() {
                self.prepare_window()?;
            } else if self.bucketed == 0 {
                return None;
            }
            self.next_set_from((self.cur & self.mask) as usize)
        };
        let time = self.bucket_time(b);
        let ((seq, item), more) = self.take_head(b);
        self.cur = time;
        self.hot = if more { b as u32 } else { NIL };
        Some((time, seq, item))
    }
}

impl<T: Clone> BucketQueue<T> {
    /// Every pending entry in `(time, seq)` order — the checkpoint
    /// serialization of the queue.
    pub fn snapshot_sorted(&self) -> Vec<(u64, u64, T)> {
        let mut out = Vec::with_capacity(self.len());
        if self.bucketed > 0 {
            // Circular bucket order from the clock's bucket is time
            // order, and each chain is in seq order.
            let mut b = self.next_set_from((self.cur & self.mask) as usize);
            loop {
                let time = self.bucket_time(b);
                let mut at = self.head[b];
                loop {
                    let (seq, item) = self.slots[at as usize]
                        .as_ref()
                        .expect("a live slot holds an entry");
                    out.push((time, *seq, item.clone()));
                    if at == self.tail[b] {
                        break;
                    }
                    at = self.next_slot(at);
                }
                if out.len() == self.bucketed {
                    break;
                }
                b = self.next_set_from((b + 1) & self.mask as usize);
            }
        }
        if !self.overflow.is_empty() {
            out.extend(
                self.overflow
                    .iter()
                    .map(|Reverse(e)| (e.time, e.seq, e.item.clone())),
            );
            out.sort_unstable_by_key(|e| (e.0, e.1));
        }
        out
    }

    /// Replaces the contents with `entries` (must be `(time, seq)`
    /// sorted, as produced by [`BucketQueue::snapshot_sorted`]) and sets
    /// the clock to the earliest pending time. The re-pushes are not
    /// counted in [`BucketQueue::overflow_pushes`], which restarts at
    /// zero.
    pub fn restore(&mut self, entries: &[(u64, u64, T)]) {
        self.clear();
        if let Some(&(t0, _, _)) = entries.first() {
            self.cur = t0;
        }
        for (t, s, item) in entries {
            self.push(*t, *s, item.clone());
        }
        self.overflow_pushes = 0;
    }
}

/// The retained `BinaryHeap` scheduling queue — the reference
/// implementation [`BucketQueue`] is differentially tested against, and
/// the core behind [`CoreKind::Heap`](crate::runtime::CoreKind). It
/// carries its events the same way.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Keyed<T>>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every pending entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Schedules `item` at `(time, seq)`.
    #[inline]
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        self.heap.push(Reverse(Keyed { time, seq, item }));
    }

    /// The timestamp the next pop will return.
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Removes and returns the minimum entry by `(time, seq)` as
    /// `(time, seq, item)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.item))
    }
}

impl<T: Clone> HeapQueue<T> {
    /// Every pending entry in `(time, seq)` order.
    pub fn snapshot_sorted(&self) -> Vec<(u64, u64, T)> {
        let mut out: Vec<(u64, u64, T)> = self
            .heap
            .iter()
            .map(|Reverse(e)| (e.time, e.seq, e.item.clone()))
            .collect();
        out.sort_unstable_by_key(|e| (e.0, e.1));
        out
    }

    /// Replaces the contents with `entries`.
    pub fn restore(&mut self, entries: &[(u64, u64, T)]) {
        self.heap.clear();
        for (t, s, item) in entries {
            self.push(*t, *s, item.clone());
        }
    }
}

#[cfg(test)]
impl<T> BucketQueue<T> {
    /// Walks every bucket chain and the free list, checking the layout
    /// invariants: live entries sit exactly in the chains, each chain is
    /// in seq order at one timestamp inside the window, and every chunk
    /// is either on one chain or on the free list.
    fn check_layout(&self) {
        let mut owned = vec![false; self.links.len()];
        let mut claim = |c: usize| {
            assert!(!owned[c], "chunk {c} reachable twice");
            owned[c] = true;
        };
        let mut live = 0;
        for b in 0..self.capacity() {
            let set = self.l0[b >> 6] >> (b & 63) & 1 == 1;
            assert_eq!(set, self.head[b] != NIL, "bitmap of bucket {b}");
            if !set {
                continue;
            }
            let mut at = self.head[b];
            claim(at as usize / CHUNK);
            let mut last_seq = None;
            loop {
                let (seq, _) = self.slots[at as usize].as_ref().expect("live slot");
                assert!(last_seq < Some(*seq), "bucket {b} out of seq order");
                last_seq = Some(*seq);
                live += 1;
                if at == self.tail[b] {
                    break;
                }
                let next = self.next_slot(at);
                if (next as usize).is_multiple_of(CHUNK) {
                    claim(next as usize / CHUNK);
                }
                at = next;
            }
        }
        assert_eq!(live, self.bucketed, "bucketed count");
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(occupied, live, "entries outside every chain");
        let mut c = self.free;
        while c != NIL {
            claim(c as usize);
            c = self.links[c as usize];
        }
        assert!(owned.iter().all(|&o| o), "leaked chunk");
        assert!(self.overflow.iter().all(|Reverse(e)| e.time >= self.cur));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Drives both queues with an identical, simulator-shaped workload
    /// (monotone pushes within a bounded span) and checks every pop.
    fn differential(mut max_delay: u64, capacity: usize, seed: u64, ops: usize) {
        max_delay = max_delay.max(1);
        let mut bucket = BucketQueue::with_capacity(capacity);
        let mut heap = HeapQueue::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = 0u64;
        let mut now = 0u64;
        for i in 0..ops {
            // A burst of pushes from the current clock...
            for _ in 0..rng.random_range(0..4u64) {
                let t = now + rng.random_range(1..=max_delay);
                bucket.push(t, seq, i);
                heap.push(t, seq, i);
                seq += 1;
            }
            // ...then pop one event, as the run loop does.
            assert_eq!(bucket.next_time(), heap.next_time());
            let (b, h) = (bucket.pop(), heap.pop());
            assert_eq!(b, h, "divergence at op {i} (seed {seed})");
            if let Some((t, _, _)) = b {
                now = t;
            }
            assert_eq!(bucket.len(), heap.len());
        }
        // Drain to empty — still identical.
        loop {
            let (b, h) = (bucket.pop(), heap.pop());
            assert_eq!(b, h);
            if b.is_none() {
                break;
            }
        }
        assert!(bucket.is_empty());
    }

    #[test]
    fn matches_heap_when_span_fits_window() {
        for seed in 0..8 {
            differential(60, 64, seed, 500);
        }
    }

    #[test]
    fn matches_heap_through_overflow() {
        // Delays up to 500 on a 16-bucket window: almost everything
        // takes the overflow path and must still pop in exact order.
        for seed in 0..8 {
            differential(500, 16, seed, 400);
        }
    }

    #[test]
    fn same_time_pops_in_seq_order() {
        let mut q = BucketQueue::with_capacity(64);
        for s in 0..10 {
            q.push(5, s, s as usize);
        }
        for s in 0..10 {
            assert_eq!(q.pop(), Some((5, s, s as usize)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_entry_older_than_bucketed_pops_first() {
        // seq 0 lands far out (overflow), seq 1 lands at the same time
        // but is pushed later from a closer clock: the overflow entry
        // must still pop first.
        let mut q = BucketQueue::with_capacity(16);
        q.push(100, 0, 0); // overflow (span 100 > 15)
        q.push(1, 2, 2);
        assert_eq!(q.pop(), Some((1, 2, 2))); // clock now 1
        q.push(100, 3, 3); // within a later window after jumps
        q.push(90, 4, 4); // overflow
        assert_eq!(q.pop(), Some((90, 4, 4)));
        assert_eq!(q.pop(), Some((100, 0, 0)));
        assert_eq!(q.pop(), Some((100, 3, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_merge_splices_into_a_multi_chunk_bucket() {
        // An overflow entry with the smallest seq merges into a bucket
        // that already spans several chunks: it must pop first, and the
        // rest must follow in seq order.
        let mut q = BucketQueue::with_capacity(16);
        q.push(40, 0, 0); // overflow from clock 0
        q.push(30, 1, 1); // overflow
        assert_eq!(q.pop(), Some((30, 1, 1))); // clock 30; 40 merged
        for s in 2..(2 + 2 * CHUNK as u64) {
            q.push(40, s, s as usize);
        }
        q.check_layout();
        for s in std::iter::once(0).chain(2..(2 + 2 * CHUNK as u64)) {
            assert_eq!(q.pop(), Some((40, s, s as usize)));
        }
        assert_eq!(q.pop(), None);
        q.check_layout();
    }

    #[test]
    fn peek_sees_unmerged_overflow_entries_and_keeps_the_clock_still() {
        // A pop advances the window, after which a not-yet-merged
        // overflow entry may undercut every bucketed time: peeking must
        // report it, and must not advance the clock — the lock-step
        // runner peeks ahead and may still push from an earlier pulse.
        let mut q = BucketQueue::with_capacity(16);
        q.push(5, 0, 0);
        q.push(17, 1, 1); // 17 - 0 > 15: overflow
        assert_eq!(q.pop(), Some((5, 0, 0))); // clock 5; 17 unmerged
        q.push(19, 2, 2); // bucketed: 19 - 5 <= 15
        assert_eq!(q.next_time(), Some(17));
        // The peek must not have committed the clock to 17: a push at
        // 6 (> the popped time 5) must still be admissible.
        q.push(6, 3, 3);
        assert_eq!(q.pop(), Some((6, 3, 3)));
        assert_eq!(q.pop(), Some((17, 1, 1)));
        assert_eq!(q.pop(), Some((19, 2, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut q = BucketQueue::with_capacity(32);
        let mut rng = StdRng::seed_from_u64(9);
        let mut now = 0;
        for s in 0..50u64 {
            q.push(now + rng.random_range(1..=200u64), s, s as usize);
            if s % 3 == 0 {
                if let Some((t, _, _)) = q.pop() {
                    now = t;
                }
            }
        }
        let snap = q.snapshot_sorted();
        assert!(
            snap.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "snapshot sorted"
        );
        let mut restored = BucketQueue::with_capacity(32);
        restored.restore(&snap);
        let mut heap = HeapQueue::new();
        heap.restore(&snap);
        assert_eq!(restored.len(), heap.len());
        loop {
            let (a, b) = (restored.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_keeps_queue_reusable() {
        let mut q = BucketQueue::new(100);
        q.push(5, 0, 0);
        q.push(900, 1, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(3, 0, 7);
        assert_eq!(q.pop(), Some((3, 0, 7)));
    }

    #[test]
    fn capacity_is_clamped_and_sized_by_delay() {
        type Q = BucketQueue<()>;
        assert_eq!(Q::new(0).capacity(), MIN_CAPACITY);
        assert_eq!(Q::new(100).capacity(), 128);
        assert_eq!(Q::new(10_000).capacity(), 16_384);
        assert_eq!(Q::new(u64::MAX).capacity(), MAX_CAPACITY);
    }

    #[test]
    fn matches_heap_on_a_wide_window() {
        // Delays up to 10⁵ exercise the three-level bitmap with many
        // l1 words (2¹⁷ buckets → 2048 l0 words → 32 l1 words).
        for seed in 0..4 {
            differential(100_000, 1 << 17, seed, 300);
        }
    }

    #[test]
    fn w_10k_workload_stays_out_of_overflow() {
        // Regression for the former 2⁸ capacity cap, which silently
        // routed every W > 256 workload through the overflow heap: an
        // auto-sized queue for W = 10⁴ must keep every push bucketed
        // and still pop in exact (time, seq) order.
        let mut q = BucketQueue::new(10_000);
        let mut heap = HeapQueue::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..2_000 {
            for _ in 0..rng.random_range(0..3u64) {
                let t = now + rng.random_range(1..=10_000u64);
                q.push(t, seq, seq as usize);
                heap.push(t, seq, seq as usize);
                seq += 1;
            }
            let (b, h) = (q.pop(), heap.pop());
            assert_eq!(b, h);
            if let Some((t, _, _)) = b {
                now = t;
            }
        }
        assert_eq!(q.overflow_pushes(), 0, "W = 10⁴ must fit the window");
    }

    #[test]
    fn overflow_pushes_counts_beyond_window_entries_and_clear_resets() {
        let mut q = BucketQueue::with_capacity(16);
        q.push(5, 0, 0); // bucketed
        q.push(100, 1, 1); // beyond the 16-tick window
        q.push(200, 2, 2); // beyond the window
        assert_eq!(q.overflow_pushes(), 2);
        // Draining merges them back but does not rewrite history.
        while q.pop().is_some() {}
        assert_eq!(q.overflow_pushes(), 2);
        q.clear();
        assert_eq!(q.overflow_pushes(), 0);
    }

    #[test]
    fn same_tick_pushes_interleave_with_hot_drain() {
        // The hot-bucket fast path must still honor seq order when the
        // executor pushes more same-tick events mid-drain (zero-delay
        // fan-out replies land at the tick being delivered).
        let mut q = BucketQueue::with_capacity(64);
        q.push(5, 0, 0);
        q.push(5, 1, 1);
        assert_eq!(q.pop(), Some((5, 0, 0))); // leaves seq 1 hot
        q.push(5, 2, 2); // same tick, behind seq 1
        q.push(6, 3, 3); // later tick, different bucket
        assert_eq!(q.next_time(), Some(5));
        assert_eq!(q.pop(), Some((5, 1, 1)));
        assert_eq!(q.pop(), Some((5, 2, 2)));
        assert_eq!(q.pop(), Some((6, 3, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hot_path_survives_snapshot_and_restore() {
        let mut q = BucketQueue::with_capacity(32);
        for s in 0..6u64 {
            q.push(9, s, s as usize);
        }
        assert_eq!(q.pop(), Some((9, 0, 0))); // hot bucket with 5 left
        let snap = q.snapshot_sorted();
        assert_eq!(snap.len(), 5);
        for s in 1..6u64 {
            assert_eq!(q.pop(), Some((9, s, s as usize)));
        }
        assert_eq!(q.pop(), None);
        let mut restored = BucketQueue::with_capacity(32);
        restored.restore(&snap);
        for s in 1..6u64 {
            assert_eq!(restored.pop(), Some((9, s, s as usize)));
        }
    }

    #[test]
    fn full_tail_chunk_behind_a_higher_indexed_head_chunk() {
        // Bucket 3's chain starts in arena chunk 1 and continues into
        // the recycled chunk 0, which it fills exactly: the tail slot is
        // the last slot of chunk 0, whose one-past-the-end index is the
        // head chunk's first slot. Snapshot and pops must still see
        // every entry.
        let mut q = BucketQueue::with_capacity(16);
        q.push(2, 0, 0); // chunk 0
        let mut seq = 1;
        for _ in 0..CHUNK {
            q.push(3, seq, seq); // chunk 1, filled
            seq += 1;
        }
        assert_eq!(q.pop(), Some((2, 0, 0))); // chunk 0 freed
        for _ in 0..CHUNK {
            q.push(3, seq, seq); // recycled chunk 0, filled
            seq += 1;
        }
        assert_eq!(q.arena_chunks(), 2);
        assert_eq!(q.head[3] as usize / CHUNK, 1);
        assert_eq!(q.tail[3] as usize, CHUNK - 1);
        q.check_layout();
        let snap = q.snapshot_sorted();
        assert_eq!(snap.len(), 2 * CHUNK);
        assert!(snap
            .iter()
            .enumerate()
            .all(|(i, e)| *e == (3, i as u64 + 1, i as u64 + 1)));
        let mut restored = BucketQueue::with_capacity(16);
        restored.restore(&snap);
        for s in 1..seq {
            assert_eq!(q.pop(), Some((3, s, s)));
            assert_eq!(restored.pop(), Some((3, s, s)));
        }
        assert_eq!(q.pop(), None);
        q.check_layout();
    }

    /// The queue under test and its references, driven in lock-step.
    struct Model {
        bucket: BucketQueue<u64>,
        heap: HeapQueue<u64>,
        reference: BinaryHeap<Reverse<(u64, u64, u64)>>,
        now: u64,
        seq: u64,
    }

    /// A payload that differs from its key, so a mixed-up slot shows.
    fn payload(seq: u64) -> u64 {
        seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xa5a5
    }

    /// Replays one random trace of pushes (in bursts that often fill
    /// several chunks of one bucket), pops, peeks, clock advances and
    /// snapshot→restore cycles against a plain `BinaryHeap`, checking
    /// every answer and the arena layout after every step.
    fn run_trace(mut bucket: BucketQueue<u64>, max_delay: u64, seed: u64, steps: usize) {
        let capacity = bucket.capacity();
        bucket.clear();
        let mut m = Model {
            bucket,
            heap: HeapQueue::new(),
            reference: BinaryHeap::new(),
            now: 0,
            seq: 0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..steps {
            match rng.random_range(0..100u32) {
                // A burst, often at one timestamp so chains grow past a
                // chunk; zero delays model same-tick timer arms.
                0..=39 => {
                    let burst = rng.random_range(1..=3 * CHUNK as u64);
                    let same = rng.random_bool(0.5);
                    let fixed = m.now + rng.random_range(0..=max_delay);
                    for _ in 0..burst {
                        let t = if same {
                            fixed
                        } else {
                            m.now + rng.random_range(0..=max_delay)
                        };
                        let (s, p) = (m.seq, payload(m.seq));
                        m.bucket.push(t, s, p);
                        m.heap.push(t, s, p);
                        m.reference.push(Reverse((t, s, p)));
                        m.seq += 1;
                    }
                }
                40..=79 => {
                    let expect = m.reference.pop().map(|Reverse(e)| e);
                    assert_eq!(m.bucket.pop(), expect, "pop at step {step}");
                    assert_eq!(m.heap.pop(), expect, "heap pop at step {step}");
                    if let Some((t, _, _)) = expect {
                        m.now = t;
                    }
                }
                80..=87 => {
                    let expect = m.reference.peek().map(|Reverse(e)| e.0);
                    assert_eq!(m.bucket.next_time(), expect, "peek at step {step}");
                    assert_eq!(m.heap.next_time(), expect);
                }
                88..=93 => {
                    // Jump the clock, never past a pending entry.
                    let limit = m
                        .reference
                        .peek()
                        .map_or(m.now + 2 * max_delay, |Reverse(e)| e.0);
                    let t = rng.random_range(m.now..=limit);
                    m.bucket.advance_to(t);
                    m.now = t;
                }
                _ => {
                    let mut expect: Vec<(u64, u64, u64)> =
                        m.reference.iter().map(|&Reverse(e)| e).collect();
                    expect.sort_unstable();
                    let snap = m.bucket.snapshot_sorted();
                    assert_eq!(snap, expect, "snapshot at step {step}");
                    assert_eq!(m.heap.snapshot_sorted(), expect);
                    // Restore in place (reusing the arena) or into a
                    // fresh queue of the same window.
                    if rng.random_bool(0.5) {
                        m.bucket.restore(&snap);
                    } else {
                        let mut fresh = BucketQueue::with_capacity(capacity);
                        fresh.restore(&snap);
                        m.bucket = fresh;
                    }
                    m.heap.restore(&snap);
                    // A restore sets the clock to the earliest entry.
                    if let Some(&(t0, _, _)) = snap.first() {
                        m.now = t0;
                    }
                }
            }
            assert_eq!(m.bucket.len(), m.reference.len(), "len at step {step}");
            assert_eq!(m.heap.len(), m.reference.len());
            m.bucket.check_layout();
        }
        while let Some(Reverse(e)) = m.reference.pop() {
            assert_eq!(m.bucket.pop(), Some(e));
        }
        assert_eq!(m.bucket.pop(), None);
        m.bucket.check_layout();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Auto-sized windows from `MIN_CAPACITY` (W = 1) up to 2¹⁰:
        /// every delay fits the window, so the bucket path alone is
        /// checked, chunk chains included.
        #[test]
        fn bucket_queue_matches_binary_heap_inside_the_window(
            exp in 0u32..=10,
            seed in any::<u64>(),
        ) {
            let max_delay = (1u64 << exp).max(1);
            let q = BucketQueue::new(max_delay);
            prop_assert!(q.capacity() as u64 > max_delay);
            run_trace(q, max_delay, seed, 400);
        }

        /// A window forced smaller than the delays: most pushes take
        /// the overflow heap and merge back into chunk chains.
        #[test]
        fn bucket_queue_matches_binary_heap_through_overflow(
            cap_exp in 4u32..=6,
            spread in 2u64..=8,
            seed in any::<u64>(),
        ) {
            let q = BucketQueue::with_capacity(1 << cap_exp);
            run_trace(q, spread << cap_exp, seed, 400);
        }
    }
}
