//! The tick engine: one *lane* of the discrete-event simulation.
//!
//! A [`Lane`] owns everything a tick needs — the clock, the crash table,
//! the flight calendar, a [`TimerTable`], the loss / adversary / crash
//! RNG streams and the wire counters — and holds the workspace's only
//! definitions of the tick's phase order ([`Lane::step`]), handler
//! dispatch, the outbox flush, the next-wake computation and the
//! fast-forward jump. How a handler *runs* is the one thing a lane takes
//! from its driver: a [`Handler`] receiving the [`Site`] it runs at, the
//! [`Input`] to handle and the [`Effects`] (sends and timer operations)
//! to fill in.
//!
//! The network is indexed once, in [`LaneEnv::new`]: the driver's
//! environment owns a [`NetworkIndex`] of the topology and the loss
//! configuration — the same index Prim builds the Maximum Reliability
//! Tree on, so a process, a row of neighbours and a link have one
//! position from planner to wire. A send costs the destination's
//! position, one search in the sender's row and one increment at the
//! link's position; the fault script's loss changes write the index in
//! place. The public [`Metrics`] are assembled from those positions only
//! when read ([`LaneEnv::metrics`]).
//!
//! Two drivers step lanes:
//!
//! * [`Simulation`](crate::Simulation) — one lane, stepped inline on the
//!   caller's thread, handlers are [`Actor`](crate::Actor) calls
//!   (`diffuse-net`'s virtual-time fabric is this driver over encoded
//!   frames);
//! * [`ShardedKernel`](crate::ShardedKernel) — `W` lanes over an
//!   id-range partition, one worker thread each, exchanging cross-lane
//!   flights at tick barriers: a lane writes a flight bound for another
//!   lane into a calendar chunk, and the chunk, not the flight, changes
//!   hands.
//!
//! # Determinism contract
//!
//! Each tick proceeds in three phases over the lane's processes:
//!
//! 1. crash/recovery transitions in id order (recoveries run
//!    [`Input::Recover`]);
//! 2. deliveries due this tick, by arrival tick, then source lane, then
//!    the order the source lane emitted them — with one lane, send
//!    order. Nothing compares or numbers flights to get it: each
//!    `(arrival, source lane)` bucket of the flight calendar only grows
//!    at its back, as the lane emits its own flights and as another
//!    lane's batches arrive, one per hand-off, and buckets are taken in
//!    key order;
//! 3. [`Input::Timer`] for every due timer of an up process, by
//!    [`TimerTable::fire_due`]'s rule: passes in `(process, timer)`
//!    order, so a timer armed for the current tick still fires on it.
//!
//! Nothing else wakes a process: a tick on which none of the three is
//! due runs no handler, which is what lets [`Lane::skip_idle`] jump over
//! it. After every handler its timer operations are applied in emission
//! order and its sends are flushed: link lookup, sent count, message
//! adversary, batched loss run ([`LossBatcher`]), same-destination
//! stagger, schedule. All randomness comes from streams seeded at
//! construction and consumed in that fixed order, so equal seeds replay
//! bit-identically — on every driver, because there is no second copy of
//! this code to drift.

use std::collections::{BTreeMap, VecDeque};

use diffuse_model::{
    position_of, Configuration, LinkId, NetworkIndex, Probability, ProcessId, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::MessageAdversary;
use crate::crash::CrashState;
use crate::kernel::{SimMessage, SimOptions};
use crate::loss::LossBatcher;
use crate::metrics::KindCounts;
use crate::{CrashModel, Metrics, SimTime, TimerId, TimerOp, TimerTable};

/// What a lane's driver knows about the run: the network, the crash
/// model, and how the process set is split over lanes. Lanes only read
/// it; drivers mutate it between steps (scripted loss changes).
#[derive(Debug, Clone)]
pub struct LaneEnv {
    /// The simulated network, indexed once from the topology and loss
    /// configuration; not writable from outside except through
    /// [`LaneEnv::set_loss`].
    network: NetworkIndex,
    /// Message latency in ticks. Private so it stays at least 1: a
    /// message sent during tick `t` is never due before `t + 1`, which
    /// the phase order, the shards' end-of-tick exchange and the flight
    /// calendar (nothing lands in the bucket being drained) rely on.
    link_delay: u64,
    /// How processes crash and recover.
    pub crash_model: CrashModel,
    /// First process id of each lane, ascending; empty with a single
    /// lane (every destination is local).
    boundaries: Vec<ProcessId>,
}

impl LaneEnv {
    /// The environment both drivers build from their constructor
    /// arguments. `topology` and `loss` are indexed into a
    /// [`NetworkIndex`] here, once, and not kept (entries for processes
    /// or links the topology lacks are dropped); only the index's loss
    /// probabilities change afterwards, through
    /// [`set_loss`](Self::set_loss). `options.link_delay` is clamped to
    /// at least 1 tick; `boundaries` holds each lane's first process id,
    /// or nothing for a single lane.
    pub fn new(
        topology: &Topology,
        loss: &Configuration,
        options: SimOptions,
        boundaries: Vec<ProcessId>,
    ) -> Self {
        LaneEnv {
            network: NetworkIndex::new(topology, loss),
            link_delay: options.link_delay.max(1),
            crash_model: options.crash_model,
            boundaries,
        }
    }

    /// Number of lanes the process set is split over.
    pub fn lanes(&self) -> usize {
        self.boundaries.len().max(1)
    }

    /// The lane owning process `id` (for an id no lane owns: the lane
    /// whose range it would fall into).
    pub fn lane_of(&self, id: ProcessId) -> usize {
        self.boundaries
            .partition_point(|&b| b <= id)
            .saturating_sub(1)
    }

    /// Overrides one link's loss probability from the next flush on; a
    /// link the topology does not have is ignored.
    pub fn set_loss(&mut self, link: LinkId, p: Probability) {
        self.network.set_loss(link, p);
    }

    /// The run's wire [`Metrics`], assembled from its `lanes`: their
    /// per-link vectors added element-wise, then the map built once
    /// (links that carried nothing get no entry).
    pub fn metrics<'a, M: 'a>(&self, lanes: impl IntoIterator<Item = &'a Lane<M>>) -> Metrics {
        let mut total = Metrics::new();
        let mut sent = vec![0u64; self.network.link_count()];
        for lane in lanes {
            total.merge(&lane.metrics);
            lane.kinds.add_to(&mut total);
            for (sum, &n) in sent.iter_mut().zip(&lane.link_sent) {
                *sum += n;
            }
        }
        let per_link = self.network.link_ids().zip(sent);
        total.set_sent_per_link(per_link.filter(|&(_, n)| n > 0));
        total
    }
}

/// Where a handler runs: which process, at what time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Index of the process within its lane's [`Lane::ids`] — drivers
    /// keep per-process state in a parallel vector.
    pub slot: usize,
    /// The executing process.
    pub id: ProcessId,
    /// Current simulated time.
    pub now: SimTime,
}

/// What a handler is asked to handle.
#[derive(Debug)]
pub enum Input<M> {
    /// Simulation start (time zero), once per process.
    Start,
    /// A message arrived.
    Message {
        /// The sending process.
        from: ProcessId,
        /// The delivered message.
        message: M,
    },
    /// A timer reached its deadline.
    Timer(TimerId),
    /// The process recovered from a crash lasting `down_ticks` ticks.
    Recover {
        /// Length of the outage, in ticks.
        down_ticks: u64,
    },
}

/// How a driver runs one handler: the single thing a [`Lane`] does not
/// do itself.
pub trait Handler<M> {
    /// Handles `input` at `site`, recording sends and timer operations
    /// in `fx`.
    fn handle(&mut self, site: Site, input: Input<M>, fx: &mut Effects<M>);
}

/// What one handler invocation produced: messages to send and timer
/// operations, both in emission order.
#[derive(Debug)]
pub struct Effects<M> {
    /// `(destination, message)` pairs.
    pub outbox: Vec<(ProcessId, M)>,
    /// Arms, re-arms and cancels of the handler's own timers.
    pub timer_ops: Vec<TimerOp>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            outbox: Vec::new(),
            timer_ops: Vec::new(),
        }
    }
}

/// A lane's view of the next tick: when its next event is due and how
/// many forced outages are counting down. A single lane fast-forwards on
/// its own status; shards [`join`](LaneStatus::join) theirs so every
/// lane takes the identical jump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStatus {
    /// Earliest pending delivery or timer deadline.
    pub next_wake: Option<SimTime>,
    /// Processes in a forced outage (fast-forward would skip their
    /// per-tick countdown, so it is disabled while any is active).
    pub forced_outages: usize,
}

impl LaneStatus {
    /// The combined status of two lanes.
    #[must_use]
    pub fn join(self, other: LaneStatus) -> LaneStatus {
        LaneStatus {
            next_wake: self.next_wake.into_iter().chain(other.next_wake).min(),
            forced_outages: self.forced_outages + other.forced_outages,
        }
    }
}

/// A message in flight. Its arrival tick and source lane are the key of
/// the calendar bucket (or outbound batch) holding it, so the record
/// carries neither; within a bucket, position is delivery order.
#[derive(Debug)]
pub(crate) struct Flight<M> {
    from: ProcessId,
    to: ProcessId,
    message: M,
}

/// Most flights a calendar chunk holds. Every chunk of the pool ends up
/// this large once it has served a busy bucket, so a run with many
/// small buckets in the air (staggered bursts) pays for the cap in
/// memory; the flood workloads run as fast at 128 as at 512.
const CHUNK: usize = 128;

/// A run of flights with one key, as a list of chunks of at most
/// [`CHUNK`] flights each, in delivery order.
type Chunks<M> = VecDeque<Vec<Flight<M>>>;

/// The flights one lane addressed to another since the last hand-off,
/// by arrival tick. The receiver appends each tick's chunks, as they
/// are, to its `(arrival, source lane)` bucket ([`Lane::accept`]).
pub(crate) type Batch<M> = BTreeMap<SimTime, Chunks<M>>;

/// The flights in the air, bucketed by `(arrival tick, source lane)`.
///
/// A bucket only ever grows at its back: the lane appends its own
/// flights as it emits them, and another lane's arrive as whole chunks
/// in the batches it handed over, each batch behind the ones before
/// it. Emission order is delivery order, so appending *is* `(arrival,
/// source lane, emission)` order — nothing is numbered or compared —
/// and delivery is popping the first bucket while its tick is due.
///
/// The chunk is the only flight buffer of a run: a lane writes a flight
/// bound for another lane into a chunk of its own free list
/// ([`Calendar::stage`]) and the chunk travels to the receiver's
/// bucket whole. One growing `Vec` per bucket would keep the draining
/// tick's whole allocation alive while the next tick's fills; with
/// chunks the filling bucket takes over the drained one's memory a
/// chunk at a time. A chunk grows like any `Vec` up to the cap, so a
/// run with a handful of flights per tick holds a handful of slots.
/// Drained chunks return to the free list of the lane that drained
/// them; under a one-way flow that lane never stages as many as it
/// receives, so the list keeps at most as many chunks as the calendar
/// ever held live at once and lets the rest go.
struct Calendar<M> {
    /// No bucket is ever empty; a chunk in a bucket may be partly full.
    buckets: BTreeMap<(SimTime, u32), Chunks<M>>,
    free: Vec<Vec<Flight<M>>>,
    /// Chunks in `buckets`, now and at most so far.
    live: usize,
    peak: usize,
}

impl<M> Calendar<M> {
    fn new() -> Self {
        Calendar {
            buckets: BTreeMap::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
        }
    }

    /// Appends one of the lane's own flights to bucket `(at, lane)`.
    fn push(&mut self, at: SimTime, lane: u32, flight: Flight<M>) {
        let chunks = self.buckets.entry((at, lane)).or_default();
        if append(chunks, flight, &mut self.free) {
            self.live += 1;
            self.peak = self.peak.max(self.live);
        }
    }

    /// Writes a flight bound for another lane into `batch`, in a chunk
    /// from this lane's free list.
    fn stage(&mut self, batch: &mut Batch<M>, at: SimTime, flight: Flight<M>) {
        append(batch.entry(at).or_default(), flight, &mut self.free);
    }

    /// Appends the chunks of a batch `lane` handed over, tick by tick,
    /// behind whatever its earlier batches left in the same buckets.
    fn accept(&mut self, lane: u32, batch: Batch<M>) {
        for (at, mut chunks) in batch {
            self.live += chunks.len();
            self.buckets
                .entry((at, lane))
                .or_default()
                .append(&mut chunks);
        }
        self.peak = self.peak.max(self.live);
    }

    /// The earliest arrival tick.
    fn next_at(&self) -> Option<SimTime> {
        self.buckets.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Takes the next chunk, in delivery order, of the flights due at or
    /// before `now`; the caller drains it and gives it back to
    /// [`Calendar::recycle`].
    fn pop_due(&mut self, now: SimTime) -> Option<Vec<Flight<M>>> {
        let mut first = self.buckets.first_entry().filter(|e| e.key().0 <= now)?;
        let chunk = first.get_mut().pop_front();
        if first.get().is_empty() {
            first.remove();
        }
        self.live -= 1;
        chunk
    }

    fn recycle(&mut self, chunk: Vec<Flight<M>>) {
        debug_assert!(chunk.is_empty());
        if self.free.len() < self.peak {
            self.free.push(chunk);
        }
    }

    fn len(&self) -> usize {
        self.buckets.values().flatten().map(Vec::len).sum()
    }
}

/// Appends `flight` to the last chunk of `chunks`, or to a fresh one from
/// `free` if that one is full; returns whether a chunk was opened.
fn append<M>(chunks: &mut Chunks<M>, flight: Flight<M>, free: &mut Vec<Vec<Flight<M>>>) -> bool {
    match chunks.back_mut() {
        Some(chunk) if chunk.len() < CHUNK => {
            chunk.push(flight);
            false
        }
        _ => {
            let mut chunk = free.pop().unwrap_or_default();
            chunk.push(flight);
            chunks.push_back(chunk);
            true
        }
    }
}

/// Per-destination cache for one outbox flush: link position, loss
/// probability, owning lane and stagger offset are resolved once per
/// destination instead of once per message.
#[derive(Clone, Copy)]
struct BurstSlot {
    to: ProcessId,
    /// `None`: invalid destination (non-neighbor, self-loop, unknown).
    link: Option<u32>,
    loss: f64,
    lane: u32,
    stagger: u64,
}

/// One lane of the simulation (see the module docs).
pub struct Lane<M> {
    index: u32,
    /// The lane's processes, ascending; `crash` is parallel to it.
    ids: Vec<ProcessId>,
    /// The network position of `ids[0]`: slot `s` sends from row
    /// `base + s`.
    base: usize,
    crash: Vec<CrashState>,
    forced_outages: usize,
    now: SimTime,
    /// Ticks actually executed by [`Lane::step`] (fast-forwarded ticks
    /// are not counted).
    busy_ticks: u64,
    started: bool,
    rng: StdRng,
    /// Batched per-(sender, destination) loss sampling (see
    /// [`LossBatcher`] for the draw-order contract).
    loss_runs: LossBatcher,
    /// Scheduled message adversary on its own seeded stream. Inactive by
    /// default, so adversary-free runs draw nothing from it.
    adversary: MessageAdversary,
    /// Wire metrics, except that sent copies are counted per link in
    /// `link_sent`, by link position, and sent and delivered copies per
    /// kind in `kinds`; [`LaneEnv::metrics`] joins the three.
    metrics: Metrics,
    link_sent: Vec<u64>,
    kinds: KindCounts,
    in_flight: Calendar<M>,
    /// Flights bound for other lanes, per destination lane, until the
    /// driver moves them ([`Lane::take_outbound`] / [`Lane::accept`]).
    outbound: Vec<Batch<M>>,
    /// Pending timer deadlines, one slot per process.
    timers: TimerTable,
    /// Reused buffers: the handler's effects and the flush's
    /// per-destination slots.
    effects: Effects<M>,
    burst_scratch: Vec<BurstSlot>,
}

impl<M> std::fmt::Debug for Lane<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("index", &self.index)
            .field("now", &self.now)
            .field("processes", &self.ids.len())
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

impl<M: SimMessage> Lane<M> {
    /// Creates lane `index` of `env`'s split, over the processes `env`
    /// assigns to it. `seed` feeds the lane's delivery stream verbatim
    /// and its suppression stream through
    /// [`suppression_seed`](crate::suppression_seed).
    pub fn new(env: &LaneEnv, index: usize, seed: u64) -> Self {
        // The lane's rows run from its own first process to the next
        // lane's.
        let all = env.network.ids();
        let row_of_first = |lane: usize, otherwise: usize| {
            let first = env.boundaries.get(lane);
            first.map_or(otherwise, |&first| all.partition_point(|&id| id < first))
        };
        let base = row_of_first(index, 0);
        let ids = all[base..row_of_first(index + 1, all.len())].to_vec();
        Lane {
            index: index as u32,
            crash: vec![CrashState::new(); ids.len()],
            timers: TimerTable::new(ids.len()),
            ids,
            base,
            forced_outages: 0,
            now: SimTime::ZERO,
            busy_ticks: 0,
            started: false,
            rng: StdRng::seed_from_u64(seed),
            loss_runs: LossBatcher::new(),
            adversary: MessageAdversary::inactive(seed),
            metrics: Metrics::new(),
            link_sent: vec![0; env.network.link_count()],
            kinds: KindCounts::default(),
            in_flight: Calendar::new(),
            outbound: (0..env.lanes()).map(|_| Batch::new()).collect(),
            effects: Effects::default(),
            burst_scratch: Vec::new(),
        }
    }

    /// This lane's position among the run's lanes.
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ticks actually *executed* rather than fast-forwarded.
    pub fn busy_ticks(&self) -> u64 {
        self.busy_ticks
    }

    /// The lane's processes, ascending; [`Site::slot`] indexes it.
    pub fn ids(&self) -> &[ProcessId] {
        &self.ids
    }

    /// The slot of process `id`, or `None` if this lane does not own it.
    pub fn slot_of(&self, id: ProcessId) -> Option<usize> {
        position_of(&self.ids, id)
    }

    /// Returns `true` iff the process is owned by this lane and up.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.slot_of(id).is_some_and(|slot| self.crash[slot].up)
    }

    /// Resets collected metrics (e.g. after warm-up).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
        self.link_sent.fill(0);
        self.kinds.clear();
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection).
    /// No-op for zero ticks or a process this lane does not own.
    pub fn force_down(&mut self, id: ProcessId, ticks: u64) {
        let Some(slot) = self.slot_of(id).filter(|_| ticks > 0) else {
            return;
        };
        if self.crash[slot].forced_down_remaining == 0 {
            self.forced_outages += 1;
        }
        self.crash[slot].force_down(ticks);
    }

    /// (Re)configures the message adversary: from now on it destroys up
    /// to `d` of each sender's emissions per `window` ticks (`d == 0`
    /// deactivates it).
    pub fn set_message_adversary(&mut self, d: u32, window: u64) {
        self.adversary.configure(d, window, self.now);
    }

    /// Emissions destroyed by the message adversary so far.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.adversary.suppressed()
    }

    /// Runs [`Input::Start`] for every process in id order, once;
    /// later calls do nothing.
    pub fn start(&mut self, env: &LaneEnv, handler: &mut (impl Handler<M> + ?Sized)) {
        if self.started {
            return;
        }
        self.started = true;
        for slot in 0..self.ids.len() {
            self.dispatch(env, slot, |site, fx| handler.handle(site, Input::Start, fx));
        }
    }

    /// Runs `run` at process `id` as an external command (e.g.
    /// "broadcast now"), then applies its timer operations and flushes
    /// its sends like any handler's. Returns `false` (running nothing)
    /// if the process is not owned by this lane or is down.
    pub fn command(
        &mut self,
        env: &LaneEnv,
        id: ProcessId,
        run: impl FnOnce(Site, &mut Effects<M>),
    ) -> bool {
        let Some(slot) = self.slot_of(id).filter(|&slot| self.crash[slot].up) else {
            return false;
        };
        self.dispatch(env, slot, run);
        true
    }

    /// Runs one handler, applies its timer operations, flushes its sends.
    fn dispatch(&mut self, env: &LaneEnv, slot: usize, run: impl FnOnce(Site, &mut Effects<M>)) {
        self.run(env, slot, run);
        self.timers.apply(slot, self.effects.timer_ops.drain(..));
    }

    /// Runs one handler and flushes its sends; its timer operations stay
    /// in `self.effects`.
    fn run(&mut self, env: &LaneEnv, slot: usize, run: impl FnOnce(Site, &mut Effects<M>)) {
        let site = Site {
            slot,
            id: self.ids[slot],
            now: self.now,
        };
        run(site, &mut self.effects);
        self.flush_outbox(env, site);
    }

    /// Loss-samples and schedules everything the last handler sent.
    ///
    /// In the paper's model a process sends *one* message per step, so
    /// when a handler emits several messages to the same destination
    /// (e.g. the `m⃗[j]` copies of Algorithm 1), they are staggered one
    /// tick apart. This keeps per-copy failures independent — delivering
    /// a whole burst in one tick would make one receiver-crash sample
    /// destroy every copy at once.
    ///
    /// This is the Monte-Carlo inner loop: the link (the destination's
    /// position, then one search in the sender's row of the
    /// [`NetworkIndex`]), its loss probability and the
    /// owning lane are resolved once per distinct destination of the
    /// burst, and a sent copy is one increment at its link's position.
    /// Loss decisions come from the batched
    /// geometric sampler ([`LossBatcher`]) rather than one `gen_bool` per
    /// message: the RNG is consulted only when a lossy cell needs a fresh
    /// run length, in send order per the sampler's documented total
    /// order, so seeded streams stay frozen.
    fn flush_outbox(&mut self, env: &LaneEnv, site: Site) {
        let from = site.id;
        let row = self.base + site.slot;
        let slots = &mut self.burst_scratch;
        slots.clear();
        for (to, message) in self.effects.outbox.drain(..) {
            let slot_index = match slots.iter().position(|s| s.to == to) {
                Some(i) => i,
                None => {
                    let link = env.network.link_between(row, to);
                    slots.push(BurstSlot {
                        to,
                        link,
                        loss: link.map_or(0.0, |l| env.network.loss(l as usize).value()),
                        lane: env.lane_of(to) as u32,
                        stagger: 0,
                    });
                    slots.len() - 1
                }
            };
            let slot = &mut slots[slot_index];
            let Some(link) = slot.link else {
                self.metrics.record_invalid_batch(1);
                continue;
            };
            // Sent metrics count pre-loss copies.
            self.link_sent[link as usize] += 1;
            self.kinds.count_sent(message.kind());
            // The message adversary acts before link loss and consumes
            // no loss draws (it has its own stream), so surviving
            // messages see the exact loss schedule of an adversary-free
            // run.
            if self.adversary.should_suppress(from, self.now) {
                self.metrics.record_suppressed();
                continue;
            }
            if slot.loss > 0.0
                && self
                    .loss_runs
                    .should_drop(from, to, slot.loss, &mut self.rng)
            {
                self.metrics.record_lost();
                continue;
            }
            let at = self.now + env.link_delay + slot.stagger;
            debug_assert!(at > self.now, "link delay is at least one tick");
            slot.stagger += 1;
            let flight = Flight { from, to, message };
            if slot.lane == self.index {
                self.in_flight.push(at, self.index, flight);
            } else {
                let batch = &mut self.outbound[slot.lane as usize];
                self.in_flight.stage(batch, at, flight);
            }
        }
    }

    /// This lane's next-tick status: its earliest pending delivery or
    /// timer deadline, and its forced-outage count.
    pub fn status(&self) -> LaneStatus {
        let flight = self.in_flight.next_at();
        LaneStatus {
            next_wake: flight.into_iter().chain(self.timers.earliest()).min(),
            forced_outages: self.forced_outages,
        }
    }

    /// The fast-forward decision for a run towards `end`, given the
    /// `status` of every lane of the run. Returns `false` once the
    /// horizon is reached; otherwise the caller must [`Lane::step`].
    ///
    /// When the crash model draws no per-tick randomness and no forced
    /// outage is counting down, the clock jumps to just before the next
    /// delivery or timer deadline (or straight to `end` if none is due
    /// by then). The jump is unobservable — no handler would have run
    /// and no randomness been drawn on the skipped ticks.
    pub fn skip_idle(&mut self, env: &LaneEnv, end: SimTime, status: LaneStatus) -> bool {
        if self.now >= end {
            return false;
        }
        if status.forced_outages == 0 && env.crash_model == CrashModel::AlwaysUp {
            match status.next_wake {
                // Step onto the event rather than past it: the event may
                // re-enable crashes via force_down, so callers re-check
                // each round.
                Some(at) if at <= end => {
                    self.now = self.now.max(SimTime::new(at.ticks().saturating_sub(1)));
                }
                _ => {
                    self.now = end;
                    return false;
                }
            }
        }
        true
    }

    /// Runs a single lane to `end`, fast-forwarding over idle stretches.
    pub fn run_to(
        &mut self,
        env: &LaneEnv,
        end: SimTime,
        handler: &mut (impl Handler<M> + ?Sized),
    ) {
        self.start(env, handler);
        while self.skip_idle(env, end, self.status()) {
            self.step(env, handler);
        }
    }

    /// Advances the lane by one tick (phases 1–3 of the module docs).
    pub fn step(&mut self, env: &LaneEnv, handler: &mut (impl Handler<M> + ?Sized)) {
        self.start(env, handler);
        self.now += 1;
        self.busy_ticks += 1;

        // Phase 1: crash/recovery transitions, id order.
        let mut recovered: Vec<(usize, u64)> = Vec::new();
        for (slot, crash) in self.crash.iter_mut().enumerate() {
            let was_forced = crash.forced_down_remaining > 0;
            if let Some(down_ticks) = crash.advance(&env.crash_model, &mut self.rng) {
                recovered.push((slot, down_ticks));
            }
            if was_forced && crash.forced_down_remaining == 0 {
                self.forced_outages -= 1;
            }
        }
        for (slot, down_ticks) in recovered {
            self.dispatch(env, slot, |site, fx| {
                handler.handle(site, Input::Recover { down_ticks }, fx);
            });
        }

        // Phase 2: deliveries due this tick, in flight-key order. What
        // they send is due on a later tick, so it never joins a bucket
        // being drained.
        while let Some(mut chunk) = self.in_flight.pop_due(self.now) {
            for flight in chunk.drain(..) {
                let Some(slot) = self.slot_of(flight.to).filter(|&s| self.crash[s].up) else {
                    self.metrics.record_dropped_receiver_down();
                    continue;
                };
                self.kinds.count_delivered(flight.message.kind());
                let Flight { from, message, .. } = flight;
                self.dispatch(env, slot, |site, fx| {
                    handler.handle(site, Input::Message { from, message }, fx);
                });
            }
            self.in_flight.recycle(chunk);
        }

        // Phase 3: due timers. Handlers fill the table and cannot change
        // the crash table, so both sit outside `self` while they run.
        let mut timers = std::mem::take(&mut self.timers);
        let crash = std::mem::take(&mut self.crash);
        timers.fire_due(
            self.now,
            |slot| crash[slot].up,
            |timers, slot, timer| {
                self.run(env, slot, |site, fx| {
                    handler.handle(site, Input::Timer(timer), fx)
                });
                timers.apply(slot, self.effects.timer_ops.drain(..));
            },
        );
        (self.timers, self.crash) = (timers, crash);
    }

    /// Takes the batch of flights this lane addressed to lane `dst`
    /// since the last call.
    pub(crate) fn take_outbound(&mut self, dst: usize) -> Batch<M> {
        std::mem::take(&mut self.outbound[dst])
    }

    /// Accepts a batch lane `src` addressed to this one. One source
    /// lane's batches must arrive in the order it handed them over (the
    /// calendar appends them); how the source lanes interleave is
    /// irrelevant.
    pub(crate) fn accept(&mut self, src: usize, batch: Batch<M>) {
        self.in_flight.accept(src as u32, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// The order the flight heap kept by comparing flights — the oracle
    /// the calendar's append order is tested against. `seq` numbers a
    /// source lane's flights in emission order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        at: SimTime,
        lane: u32,
        seq: u64,
    }

    /// A test flight carrying its source lane and sequence number as
    /// its message, so the delivered flight names its oracle key.
    fn flight(lane: u32, seq: u64) -> Flight<u64> {
        Flight {
            from: p(lane),
            to: p(1),
            message: seq,
        }
    }

    #[test]
    fn a_flight_is_its_endpoints_and_message() {
        // The calendar bucket holds the key, so the record carries only
        // 8 bytes besides the message: ~10⁵ of them are alive at once in
        // the large gossip floods.
        assert_eq!(std::mem::size_of::<Flight<()>>(), 8);
    }

    /// One lane of a four-lane run, as the tested calendar (lane 0) sees
    /// it, next to a reference heap. While a tick's flights are
    /// delivered, lane 0 schedules bursts into its own calendar at once;
    /// the three other lanes stage theirs into a batch bound for lane 0
    /// (from a calendar of their own, whose free list lends the chunks),
    /// and lane 0 accepts one batch per source lane after the tick. A
    /// burst either staggers up to 40 copies one tick apart (one flight
    /// per arrival tick: partly filled chunks, and buckets that grow over
    /// many exchanges) or fans up to 300 copies out on one arrival tick
    /// (chunks that fill and spill over).
    fn calendar_matches_heap(seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let link_delay = rng.gen_range(1..=5u64);
        let mut lanes: Vec<Calendar<u64>> = (0..4).map(|_| Calendar::new()).collect();
        let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        let mut next_seq = [0u64; 4];
        let mut burst = |rng: &mut rand::rngs::StdRng, now: u64, lane: u32| {
            let fan = rng.gen_range(0..5) == 0;
            let copies = rng.gen_range(0..=if fan { 300 } else { 40 });
            let first = next_seq[lane as usize];
            next_seq[lane as usize] += copies;
            (0..copies).map(move |k| {
                let at = SimTime::new(now + link_delay + if fan { 0 } else { k });
                let seq = first + k;
                (Key { at, lane, seq }, flight(lane, seq))
            })
        };
        for (key, flight) in burst(&mut rng, 0, 0) {
            heap.push(Reverse(key));
            lanes[0].push(key.at, 0, flight);
        }
        for now in 1..=12u64 {
            let now_t = SimTime::new(now);
            let calendar = &mut lanes[0];
            assert_eq!(calendar.next_at(), heap.peek().map(|Reverse(key)| key.at));
            while let Some(mut chunk) = calendar.pop_due(now_t) {
                for delivered in chunk.drain(..) {
                    let key = Key {
                        at: now_t,
                        lane: delivered.from.index(),
                        seq: delivered.message,
                    };
                    assert_eq!(heap.pop(), Some(Reverse(key)));
                    // Capped, or replies to replies grow without bound.
                    if heap.len() < 2_000 && rng.gen_range(0..10) < 3 {
                        for (key, flight) in burst(&mut rng, now, 0) {
                            heap.push(Reverse(key));
                            calendar.push(key.at, 0, flight);
                        }
                    }
                }
                calendar.recycle(chunk);
            }
            assert!(heap.peek().is_none_or(|Reverse(key)| key.at > now_t));
            for lane in 1..4u32 {
                let mut batch = Batch::new();
                for _ in 0..rng.gen_range(0..3) {
                    for (key, flight) in burst(&mut rng, now, lane) {
                        heap.push(Reverse(key));
                        lanes[lane as usize].stage(&mut batch, key.at, flight);
                    }
                }
                lanes[0].accept(lane, batch);
            }
            assert_eq!(lanes[0].len(), heap.len());
            assert_eq!(lanes[0].live, chunk_count(&lanes[0]));
        }
    }

    /// The chunks in a calendar's buckets, counted.
    fn chunk_count<M>(calendar: &Calendar<M>) -> usize {
        calendar.buckets.values().map(VecDeque::len).sum()
    }

    proptest! {
        #[test]
        fn prop_calendar_delivers_in_heap_order(seed in any::<u64>()) {
            calendar_matches_heap(seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "large case count; CI runs it in release via --include-ignored"]
        fn prop_calendar_delivers_in_heap_order_at_scale(seed in any::<u64>()) {
            calendar_matches_heap(seed);
        }
    }

    /// Forwards every message with hops left to one other process.
    struct PassOn {
        ids: Vec<ProcessId>,
    }

    impl Handler<u64> for PassOn {
        fn handle(&mut self, site: Site, input: Input<u64>, fx: &mut Effects<u64>) {
            if let Input::Message { message: hops, .. } = input {
                if hops > 0 {
                    let n = self.ids.len();
                    let step = 1 + hops as usize % (n - 1);
                    fx.outbox.push((self.ids[(site.slot + step) % n], hops - 1));
                }
            }
        }
    }

    fn complete(n: u32) -> Topology {
        let mut topology = Topology::new();
        for a in 0..n {
            for b in a + 1..n {
                topology.add_link(p(a), p(b)).unwrap();
            }
        }
        topology
    }

    #[test]
    fn drained_chunks_are_refilled_not_reallocated() {
        let n = 40u32;
        let env = LaneEnv::new(
            &complete(n),
            &Configuration::new(),
            SimOptions::default(),
            Vec::new(),
        );
        let mut lane: Lane<u64> = Lane::new(&env, 0, 1);
        let mut handler = PassOn {
            ids: lane.ids().to_vec(),
        };
        // Every process sends one 60-hop message to every other: a
        // steady n(n-1) flights in the air for 60 ticks.
        for &from in &handler.ids.clone() {
            lane.command(&env, from, |site, fx| {
                let others = handler.ids.iter().filter(|&&to| to != site.id);
                fx.outbox.extend(others.map(|&to| (to, 60)));
            });
        }
        let (mut peak, mut live_buckets) = (lane.in_flight.len(), 1);
        for _ in 0..70 {
            lane.step(&env, &mut handler);
            peak = peak.max(lane.in_flight.len());
            live_buckets = live_buckets.max(lane.in_flight.buckets.len());
        }
        assert_eq!(lane.in_flight.len(), 0);
        let delivered = env.metrics([&lane]).delivered_total();
        assert_eq!(delivered, u64::from(n * (n - 1)) * 61);
        assert!(delivered as usize > 50 * peak);
        // Empty again, every chunk ever allocated is on the free list:
        // what the peak needed, plus the partly filled tail of each live
        // bucket and the chunk being drained.
        let allocated = lane.in_flight.free.len();
        assert_eq!(lane.in_flight.live, 0);
        assert!(
            allocated <= peak.div_ceil(CHUNK) + live_buckets + 1,
            "{allocated} chunks for a peak of {peak} flights in {live_buckets} buckets"
        );
    }

    /// Handles everything by doing nothing.
    struct Sink;

    impl Handler<u64> for Sink {
        fn handle(&mut self, _: Site, _: Input<u64>, _: &mut Effects<u64>) {}
    }

    #[test]
    fn a_one_way_flow_keeps_the_receivers_free_list_bounded() {
        // Process 0 (lane 0) sends one message to each of 300 neighbours
        // (lane 1) every tick: lane 1 drains three chunks a tick and
        // stages none, so every chunk it recycles is one lane 0 let go.
        let fan = 300u32;
        let mut star = Topology::new();
        for leaf in 1..=fan {
            star.add_link(p(0), p(leaf)).unwrap();
        }
        let env = LaneEnv::new(
            &star,
            &Configuration::new(),
            SimOptions::default(),
            vec![p(0), p(1)],
        );
        let mut lanes: Vec<Lane<u64>> = (0..2).map(|index| Lane::new(&env, index, 1)).collect();
        let held = |lanes: &[Lane<u64>]| -> usize {
            let calendars = lanes.iter().map(|lane| &lane.in_flight);
            calendars.map(|c| chunk_count(c) + c.free.len()).sum()
        };
        let mut most = 0;
        for tick in 0..1000u64 {
            lanes[0].command(&env, p(0), |_, fx| {
                fx.outbox.extend((1..=fan).map(|leaf| (p(leaf), tick)));
            });
            let batch = lanes[0].take_outbound(1);
            lanes[1].accept(0, batch);
            for lane in &mut lanes {
                lane.step(&env, &mut Sink);
            }
            most = most.max(held(&lanes));
        }
        let delivered = env.metrics(&lanes).delivered_total();
        assert_eq!(delivered, 1000 * u64::from(fan));
        // Three chunks live while a tick's batch waits, three free after
        // it is drained: 1 000 ticks must not leave 3 000 behind.
        assert!(most <= 6, "{most} chunks held");
    }

    /// A graph whose ids are not `0..n`, with an isolated process.
    fn sparse() -> Topology {
        let mut topology = Topology::new();
        for (a, b) in [(40, 3), (3, 11), (11, 40), (10, 11), (7, 90)] {
            topology.add_link(p(a), p(b)).unwrap();
        }
        topology.add_process(p(5));
        topology
    }

    #[test]
    fn set_loss_writes_one_link_and_ignores_links_outside_the_topology() {
        let link = |a, b| LinkId::new(p(a), p(b)).unwrap();
        let mut env = LaneEnv::new(
            &sparse(),
            &Configuration::new(),
            SimOptions::default(),
            Vec::new(),
        );
        let losses = |env: &LaneEnv| -> Vec<Probability> {
            let network = &env.network;
            (0..network.link_count())
                .map(|at| network.loss(at))
                .collect()
        };
        let before = losses(&env);
        // Both endpoints exist but are not adjacent; one endpoint
        // unknown; both unknown.
        for outside in [link(3, 10), link(5, 7), link(3, 99), link(1, 2)] {
            env.set_loss(outside, Probability::ONE);
        }
        assert_eq!(losses(&env), before);
        let half = Probability::new(0.5).unwrap();
        env.set_loss(link(40, 11), half);
        let position = env.network.link_ids().position(|l| l == link(11, 40));
        let mut expected = before;
        expected[position.unwrap()] = half;
        assert_eq!(losses(&env), expected);
    }

    #[test]
    fn lanes_take_their_rows_from_the_boundaries() {
        let env = LaneEnv::new(
            &sparse(),
            &Configuration::new(),
            SimOptions::default(),
            vec![p(3), p(10), p(40)],
        );
        assert_eq!(env.lanes(), 3);
        let ids = |index| Lane::<u64>::new(&env, index, 1).ids;
        assert_eq!(ids(0), vec![p(3), p(5), p(7)]);
        assert_eq!(ids(1), vec![p(10), p(11)]);
        assert_eq!(ids(2), vec![p(40), p(90)]);
        assert_eq!(Lane::<u64>::new(&env, 1, 1).base, 3);
        for id in sparse().processes() {
            assert!(ids(env.lane_of(id)).contains(&id), "{id}");
        }
    }

    #[test]
    fn statuses_join_to_the_earliest_wake_and_total_outages() {
        let a = LaneStatus {
            next_wake: Some(SimTime::new(7)),
            forced_outages: 1,
        };
        let b = LaneStatus {
            next_wake: None,
            forced_outages: 2,
        };
        let c = LaneStatus {
            next_wake: Some(SimTime::new(3)),
            forced_outages: 0,
        };
        assert_eq!(a.join(b).next_wake, Some(SimTime::new(7)));
        assert_eq!(a.join(b).join(c).next_wake, Some(SimTime::new(3)));
        assert_eq!(a.join(b).join(c).forced_outages, 3);
        assert_eq!(
            LaneStatus::default().join(LaneStatus::default()).next_wake,
            None
        );
    }

    #[test]
    fn skip_idle_jumps_to_just_before_the_wake_and_never_backwards() {
        let env = LaneEnv::new(
            &Topology::new(),
            &Configuration::new(),
            SimOptions::default(),
            Vec::new(),
        );
        let wake = |at| LaneStatus {
            next_wake: Some(SimTime::new(at)),
            forced_outages: 0,
        };
        let end = SimTime::new(100);
        let mut lane: Lane<u64> = Lane::new(&env, 0, 1);
        // An overdue wake (even at tick zero) steps from where we are.
        assert!(lane.skip_idle(&env, end, wake(0)));
        assert_eq!(lane.now(), SimTime::ZERO);
        assert!(lane.skip_idle(&env, end, wake(40)));
        assert_eq!(lane.now(), SimTime::new(39));
        assert!(lane.skip_idle(&env, end, wake(10)));
        assert_eq!(lane.now(), SimTime::new(39));
        // A forced outage anywhere pins the run to tick-by-tick.
        let outage = LaneStatus {
            forced_outages: 1,
            ..wake(90)
        };
        assert!(lane.skip_idle(&env, end, outage));
        assert_eq!(lane.now(), SimTime::new(39));
        // Nothing due by the horizon: land on it and stop.
        assert!(!lane.skip_idle(&env, end, wake(101)));
        assert_eq!(lane.now(), end);
        assert!(!lane.skip_idle(&env, end, LaneStatus::default()));
    }
}
