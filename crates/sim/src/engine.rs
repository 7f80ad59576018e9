//! The tick engine: one *lane* of the discrete-event simulation.
//!
//! A [`Lane`] owns everything a tick needs — the clock, the crash table,
//! the flight heap, the timer table, the loss / adversary / crash RNG
//! streams and the wire [`Metrics`] — and holds the workspace's only
//! definitions of the tick's phase order ([`Lane::step`]), handler
//! dispatch, the outbox flush, timer-op application, the due-timer loop,
//! the next-wake computation and the fast-forward jump. How a handler
//! *runs* is the one thing a lane takes from its driver: a [`Handler`]
//! receiving the [`Site`] it runs at, the [`Input`] to handle and the
//! [`Effects`] (sends and timer operations) to fill in.
//!
//! Two drivers step lanes:
//!
//! * [`Simulation`](crate::Simulation) — one lane, stepped inline on the
//!   caller's thread, handlers are [`Actor`](crate::Actor) calls
//!   (`diffuse-net`'s virtual-time fabric is this driver over encoded
//!   frames);
//! * [`ShardedKernel`](crate::ShardedKernel) — `W` lanes over an
//!   id-range partition, one worker thread each, exchanging cross-lane
//!   flights at tick barriers.
//!
//! # Determinism contract
//!
//! Each tick proceeds in three phases over the lane's processes:
//!
//! 1. crash/recovery transitions in id order (recoveries run
//!    [`Input::Recover`]);
//! 2. deliveries due this tick, in `(arrival, source lane, sequence)`
//!    order — with one lane, send order;
//! 3. [`Input::Timer`] for every due timer of an up process, in
//!    `(process, timer)` order, looping so timers armed for the current
//!    tick still fire on it.
//!
//! Nothing else wakes a process: a tick on which none of the three is
//! due runs no handler, which is what lets [`Lane::skip_idle`] jump over
//! it. After every handler its timer operations are applied in emission
//! order and its sends are flushed: link check, sent count, message
//! adversary, batched loss run ([`LossBatcher`]), same-destination
//! stagger, schedule. All randomness comes from streams seeded at
//! construction and consumed in that fixed order, so equal seeds replay
//! bit-identically — on every driver, because there is no second copy of
//! this code to drift.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use diffuse_model::{Configuration, LinkId, ProcessId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::MessageAdversary;
use crate::crash::CrashState;
use crate::kernel::{SimMessage, SimOptions};
use crate::loss::LossBatcher;
use crate::{CrashModel, Metrics, SimTime, TimerId};

/// What a lane's driver knows about the run: the network, the crash
/// model, and how the process set is split over lanes. Lanes only read
/// it; drivers mutate it between steps (e.g. scripted loss changes).
#[derive(Debug, Clone)]
pub struct LaneEnv {
    /// The simulated network graph.
    pub topology: Topology,
    /// Current per-link loss probabilities.
    pub loss: Configuration,
    /// Message latency in ticks. Private so it stays at least 1: a
    /// message sent during tick `t` is never due before `t + 1`, which
    /// both the phase order and the shards' end-of-tick exchange rely on.
    link_delay: u64,
    /// How processes crash and recover.
    pub crash_model: CrashModel,
    /// First process id of each lane, ascending. With a single lane the
    /// content is irrelevant (every destination is local).
    pub boundaries: Vec<ProcessId>,
}

impl LaneEnv {
    /// The environment both drivers build from their constructor
    /// arguments; `options.link_delay` is clamped to at least 1 tick.
    pub fn new(
        topology: Topology,
        loss: Configuration,
        options: SimOptions,
        boundaries: Vec<ProcessId>,
    ) -> Self {
        LaneEnv {
            topology,
            loss,
            link_delay: options.link_delay.max(1),
            crash_model: options.crash_model,
            boundaries,
        }
    }

    /// The lane owning process `id` (for an id no lane owns: the lane
    /// whose range it would fall into).
    pub fn lane_of(&self, id: ProcessId) -> usize {
        self.boundaries
            .partition_point(|&b| b <= id)
            .saturating_sub(1)
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
    /// `(timer, Some(deadline))` arms or re-arms; `(timer, None)` cancels.
    pub timer_ops: Vec<(TimerId, Option<SimTime>)>,
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
            next_wake: earliest(self.next_wake, other.next_wake),
            forced_outages: self.forced_outages + other.forced_outages,
        }
    }
}

fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// A message in flight, ordered by `(arrival, source lane, sequence)` —
/// a merge key no thread interleaving can perturb. With one lane it
/// reduces to `(arrival, sequence)`: global send order.
#[derive(Debug)]
pub struct Flight<M> {
    at: SimTime,
    lane: u32,
    seq: u64,
    from: ProcessId,
    to: ProcessId,
    message: M,
}

impl<M> PartialEq for Flight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<M> Eq for Flight<M> {}

impl<M> PartialOrd for Flight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Flight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.lane, self.seq).cmp(&(other.at, other.lane, other.seq))
    }
}

/// Per-destination cache for one outbox flush: link validity, loss
/// probability, owning lane, stagger offset and per-kind sent counts are
/// resolved once per destination instead of once per message.
struct BurstSlot {
    to: ProcessId,
    /// `None`: invalid destination (non-neighbor, self-loop, unknown).
    link: Option<LinkId>,
    loss: f64,
    lane: u32,
    stagger: u64,
    sent: Vec<(&'static str, u64)>,
}

/// One lane of the simulation (see the module docs).
pub struct Lane<M> {
    index: u32,
    /// The lane's processes, ascending; `crash` is parallel to it.
    ids: Vec<ProcessId>,
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
    metrics: Metrics,
    next_seq: u64,
    in_flight: BinaryHeap<Reverse<Flight<M>>>,
    /// Flights bound for other lanes, per destination lane, until the
    /// driver moves them ([`Lane::take_outbound`] / [`Lane::accept`]).
    outbound: Vec<Vec<Flight<M>>>,
    /// Pending timer deadlines, one per `(process, timer)` pair …
    timers: BTreeMap<(ProcessId, TimerId), SimTime>,
    /// … mirrored as a deadline-ordered queue for due-scans and wakes.
    timer_queue: BTreeSet<(SimTime, ProcessId, TimerId)>,
    /// Reused buffers: the handler's effects, the due-timer pass, and
    /// the flush's per-destination slots (steady state allocates nothing).
    effects: Effects<M>,
    due_scratch: Vec<(ProcessId, TimerId, usize)>,
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
    /// Creates lane `index` of `lanes` over the ascending process ids
    /// `ids`. `seed` feeds the lane's delivery stream verbatim and its
    /// suppression stream through [`suppression_seed`](crate::suppression_seed).
    pub fn new(index: usize, lanes: usize, ids: Vec<ProcessId>, seed: u64) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        Lane {
            index: index as u32,
            crash: vec![CrashState::new(); ids.len()],
            ids,
            forced_outages: 0,
            now: SimTime::ZERO,
            busy_ticks: 0,
            started: false,
            rng: StdRng::seed_from_u64(seed),
            loss_runs: LossBatcher::new(),
            adversary: MessageAdversary::inactive(seed),
            metrics: Metrics::new(),
            next_seq: 0,
            in_flight: BinaryHeap::new(),
            outbound: (0..lanes).map(|_| Vec::new()).collect(),
            timers: BTreeMap::new(),
            timer_queue: BTreeSet::new(),
            effects: Effects::default(),
            due_scratch: Vec::new(),
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
        self.ids.binary_search(&id).ok()
    }

    /// Returns `true` iff the process is owned by this lane and up.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.slot_of(id).is_some_and(|slot| self.crash[slot].up)
    }

    /// Collected wire metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets collected metrics (e.g. after warm-up).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
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
        let site = Site {
            slot,
            id: self.ids[slot],
            now: self.now,
        };
        run(site, &mut self.effects);
        self.apply_timer_ops(site.id);
        self.flush_outbox(env, site.id);
    }

    /// Applies the last handler's set/cancel timer operations for `id`.
    fn apply_timer_ops(&mut self, id: ProcessId) {
        for (timer, op) in self.effects.timer_ops.drain(..) {
            let key = (id, timer);
            if let Some(old) = self.timers.remove(&key) {
                self.timer_queue.remove(&(old, id, timer));
            }
            if let Some(at) = op {
                self.timers.insert(key, at);
                self.timer_queue.insert((at, id, timer));
            }
        }
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
    /// This is the Monte-Carlo inner loop: link validation, loss
    /// probability and owning lane are resolved once per distinct
    /// destination of the burst (a small linear cache instead of
    /// per-message map walks), and sent-message metrics are recorded in
    /// per-destination batches. Loss decisions come from the batched
    /// geometric sampler ([`LossBatcher`]) rather than one `gen_bool` per
    /// message: the RNG is consulted only when a lossy cell needs a fresh
    /// run length, in send order per the sampler's documented total
    /// order, so seeded streams stay frozen.
    fn flush_outbox(&mut self, env: &LaneEnv, from: ProcessId) {
        // Slots from previous flushes are recycled in place (their
        // per-kind Vecs keep their allocations); `live` marks how many
        // belong to *this* flush.
        let slots = &mut self.burst_scratch;
        let mut live = 0usize;
        let mut invalid = 0u64;
        for (to, message) in self.effects.outbox.drain(..) {
            let slot_index = match slots[..live].iter().position(|s| s.to == to) {
                Some(i) => i,
                None => {
                    let link = LinkId::new(from, to)
                        .ok()
                        .filter(|&l| env.topology.contains_link(l));
                    let mut fresh = BurstSlot {
                        to,
                        link,
                        loss: link.map(|l| env.loss.loss(l).value()).unwrap_or(0.0),
                        lane: env.lane_of(to) as u32,
                        stagger: 0,
                        sent: Vec::new(),
                    };
                    if live == slots.len() {
                        slots.push(fresh);
                    } else {
                        fresh.sent = std::mem::take(&mut slots[live].sent);
                        fresh.sent.clear();
                        slots[live] = fresh;
                    }
                    live += 1;
                    live - 1
                }
            };
            let slot = &mut slots[slot_index];
            if slot.link.is_none() {
                invalid += 1;
                continue;
            }
            // Sent metrics count pre-loss copies, batched per kind.
            let kind = message.kind();
            match slot.sent.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => slot.sent.push((kind, 1)),
            }
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
            let flight = Flight {
                at: self.now + env.link_delay + slot.stagger,
                lane: self.index,
                seq: self.next_seq,
                from,
                to,
                message,
            };
            slot.stagger += 1;
            self.next_seq += 1;
            if slot.lane == self.index {
                self.in_flight.push(Reverse(flight));
            } else {
                self.outbound[slot.lane as usize].push(flight);
            }
        }
        if invalid > 0 {
            self.metrics.record_invalid_batch(invalid);
        }
        for slot in slots[..live].iter() {
            if let Some(link) = slot.link {
                for &(kind, n) in &slot.sent {
                    self.metrics.record_sent_batch(link, kind, n);
                }
            }
        }
    }

    /// Fires every pending timer with a deadline at or before `now` whose
    /// process is up, ordered by `(process, timer)`. Loops so that timers
    /// armed by recoveries or deliveries for the current tick still fire
    /// on it; timers of down processes stay pending until recovery.
    fn fire_due_timers(&mut self, env: &LaneEnv, handler: &mut (impl Handler<M> + ?Sized)) {
        loop {
            let mut due = std::mem::take(&mut self.due_scratch);
            due.clear();
            for &(at, id, timer) in self.timer_queue.iter() {
                if at > self.now {
                    break;
                }
                if let Some(slot) = self.slot_of(id).filter(|&s| self.crash[s].up) {
                    due.push((id, timer, slot));
                }
            }
            if due.is_empty() {
                self.due_scratch = due;
                return;
            }
            due.sort_unstable();
            for &(id, timer, slot) in due.iter() {
                // An earlier handler in this pass may have cancelled or
                // re-armed this timer; fire only if it is still due.
                let Some(&at) = self.timers.get(&(id, timer)) else {
                    continue;
                };
                if at > self.now {
                    continue;
                }
                self.timers.remove(&(id, timer));
                self.timer_queue.remove(&(at, id, timer));
                self.dispatch(env, slot, |site, fx| {
                    handler.handle(site, Input::Timer(timer), fx)
                });
            }
            self.due_scratch = due;
        }
    }

    /// This lane's next-tick status: its earliest pending delivery or
    /// timer deadline, and its forced-outage count.
    pub fn status(&self) -> LaneStatus {
        let flight = self.in_flight.peek().map(|Reverse(f)| f.at);
        let timer = self.timer_queue.first().map(|&(at, _, _)| at);
        LaneStatus {
            next_wake: earliest(flight, timer),
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

        // Phase 2: deliveries due this tick, in flight-key order.
        while self
            .in_flight
            .peek()
            .is_some_and(|Reverse(flight)| flight.at <= self.now)
        {
            let Reverse(flight) = self.in_flight.pop().expect("peeked");
            let Some(slot) = self.slot_of(flight.to).filter(|&s| self.crash[s].up) else {
                self.metrics.record_dropped_receiver_down();
                continue;
            };
            self.metrics.record_delivered(flight.message.kind());
            let Flight { from, message, .. } = flight;
            self.dispatch(env, slot, |site, fx| {
                handler.handle(site, Input::Message { from, message }, fx);
            });
        }

        // Phase 3: timers due this tick, in (process, timer) order.
        self.fire_due_timers(env, handler);
    }

    /// Takes the flights this lane addressed to lane `dst` since the
    /// last call, leaving the (allocated) batch buffer behind.
    pub fn take_outbound(&mut self, dst: usize) -> std::vec::Drain<'_, Flight<M>> {
        self.outbound[dst].drain(..)
    }

    /// Accepts flights another lane addressed to this one. The heap's
    /// key makes the arrival order of batches irrelevant.
    pub fn accept(&mut self, flights: impl IntoIterator<Item = Flight<M>>) {
        self.in_flight.extend(flights.into_iter().map(Reverse));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight(at: u64, lane: u32, seq: u64) -> Flight<u64> {
        Flight {
            at: SimTime::new(at),
            lane,
            seq,
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            message: 0,
        }
    }

    #[test]
    fn flights_order_by_arrival_then_lane_then_sequence() {
        assert!(flight(1, 9, 9) < flight(2, 0, 0));
        assert!(flight(2, 0, 9) < flight(2, 1, 0));
        assert!(flight(2, 1, 0) < flight(2, 1, 1));
        // The record carries 32 bytes besides the message: ~10⁵ of them
        // are alive at once in the large gossip floods.
        assert_eq!(std::mem::size_of::<Flight<()>>(), 32);
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
            Topology::new(),
            Configuration::new(),
            SimOptions::default(),
            Vec::new(),
        );
        let wake = |at| LaneStatus {
            next_wake: Some(SimTime::new(at)),
            forced_outages: 0,
        };
        let end = SimTime::new(100);
        let mut lane: Lane<u64> = Lane::new(0, 1, vec![ProcessId::new(0)], 1);
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
