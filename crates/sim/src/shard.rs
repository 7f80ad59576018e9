//! The sharded simulation executor: engine lanes, stepped in parallel.
//!
//! [`ShardedKernel`] partitions the process set into `W` contiguous
//! id-range shards and gives each one [`Lane`] of the tick engine and one
//! worker thread. Within a tick every worker steps its lane — the
//! engine's phases over its own processes, its own flight calendar and
//! its own RNG stream; cross-shard sends are batched by the lane and
//! exchanged at a tick barrier. Since the link delay is at least one
//! tick, a message sent during tick `t` is never due before `t + 1`, so
//! the end-of-tick exchange always lands in time.
//!
//! What this module adds to the engine is only what is genuinely a
//! thread driver's own: the id-range partition, the mailbox grid, the two
//! barriers, the global wake consensus, and coordinator-side commands.
//! The tick itself lives in [`crate::Lane`] and is the code the
//! single-threaded [`crate::Simulation`] runs.
//!
//! # Determinism contract
//!
//! The sharded executor is **self-reproducible by construction**:
//!
//! * Every lane draws from a private RNG seeded by
//!   [`crate::shard_seed`]`(run_seed, shard)` — a pure function of the
//!   run seed and the stable shard id, never of thread scheduling.
//! * Flights are delivered by arrival tick, then source lane, then the
//!   order the source lane emitted them: the lane's calendar keeps one
//!   bucket per `(arrival, source lane)` and appends each source lane's
//!   batches in the order it handed them over, so the merge order is
//!   independent of which worker published first.
//! * The fast-forward decision is taken by *global consensus*: each
//!   lane publishes its [`LaneStatus`] at the barrier, and every worker
//!   feeds the identical combined status to [`Lane::skip_idle`]. The
//!   per-lane clocks advance in lockstep.
//!
//! Hence a given `(seed, topology, W)` replays byte-identically on every
//! re-run. With `W = 1` the single lane receives the run seed verbatim,
//! so the run *is* the kernel's — the same lane code with the same
//! stream, stepped from a worker thread instead of inline. For `W > 1`
//! the loss draws are distributed over per-shard streams, so individual
//! runs differ from the kernel's stream while remaining statistically
//! equivalent — and on loss-free, crash-free scenarios (which draw no
//! randomness at all) the delivered message *sets* and wire metrics
//! equal the kernel's exactly; only the within-tick arrival order of
//! same-tick messages from different shards may permute.
//!
//! # Synchronization shape
//!
//! Two `std::sync::Barrier` waits per executed tick; a `W × W` mailbox
//! grid of `Mutex` slots, each locked at most once per tick by its
//! single producer and once by its single consumer, on opposite sides
//! of a barrier — the per-message hot path touches no lock. What a slot
//! holds is one tick's batch, moved whole: the calendar chunks, keyed by
//! arrival tick, that the source lane wrote its flights into as it sent
//! them. The receiver appends those chunks to its calendar's buckets as
//! they are, so a cross-shard flight is written once and never copied,
//! and a slot keeps no buffer of its own between ticks. This
//! module is classified `relaxed-determinism` in `diffuse-lint`'s policy
//! table: threading and per-shard streams are allowed, wall-clock reads
//! and unordered iteration remain banned. The engine module it drives
//! is strict-deterministic.

use std::sync::{Barrier, Mutex};

use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};

use crate::engine::{Batch, Lane, LaneEnv, LaneStatus};
use crate::kernel::{Actor, Context, SimOptions};
use crate::shard_rng::shard_seed;
use crate::{Metrics, SimTime};

/// One worker's slice of the system: a lane over a contiguous id range
/// and that range's actors (parallel to the lane's id list).
struct Shard<A: Actor> {
    lane: Lane<A::Message>,
    actors: Vec<A>,
}

/// Cross-shard coordination state for one `run_ticks` segment.
struct Shared<M> {
    /// `W × W` single-producer/single-consumer mailbox slots, indexed
    /// `dst * W + src`, each holding at most one tick's batch. Producer
    /// and consumer sides are separated by a barrier, so each lock is
    /// uncontended by construction.
    mailboxes: Vec<Mutex<Batch<M>>>,
    barrier: Barrier,
    /// Each lane's next-tick status, published at the barrier so every
    /// worker takes the identical fast-forward decision.
    status: Mutex<Vec<LaneStatus>>,
}

impl<A: Actor> Shard<A> {
    /// The worker body for one `run_ticks` segment: the single-lane run
    /// loop ([`Lane::run_to`]) with the fast-forward decision fed from
    /// the globally published statuses, and a flight exchange after
    /// every step.
    fn run_segment(&mut self, env: &LaneEnv, shared: &Shared<A::Message>, end: SimTime) {
        let workers = env.lanes();
        let index = self.lane.index();
        // Prime the status board so the first decision sees every shard.
        shared.status.lock().expect(PANICKED)[index] = self.lane.status();
        shared.barrier.wait();
        loop {
            let global = shared
                .status
                .lock()
                .expect(PANICKED)
                .iter()
                .fold(LaneStatus::default(), |all, &one| all.join(one));
            // Every lane sees the same clock and the same status, so all
            // workers leave the loop on the same iteration.
            if !self.lane.skip_idle(env, end, global) {
                break;
            }
            self.lane.step(env, &mut self.actors[..]);
            // Hand the tick's outbound batches to their destination
            // mailboxes; the consumer side takes them after the barrier,
            // so every slot is empty again by now.
            for dst in (0..workers).filter(|&dst| dst != index) {
                let mut slot = shared.mailboxes[dst * workers + index]
                    .lock()
                    .expect(PANICKED);
                debug_assert!(slot.is_empty(), "last tick's batch was taken");
                *slot = self.lane.take_outbound(dst);
            }
            shared.barrier.wait();
            // Source lanes land in separate calendar buckets, so the
            // order they are accepted in is irrelevant; what delivery
            // order relies on is that one source's batches arrive in the
            // order it handed them over, one per tick.
            for src in (0..workers).filter(|&src| src != index) {
                let mut slot = shared.mailboxes[index * workers + src]
                    .lock()
                    .expect(PANICKED);
                self.lane.accept(src, std::mem::take(&mut *slot));
            }
            shared.status.lock().expect(PANICKED)[index] = self.lane.status();
            shared.barrier.wait();
        }
    }
}

const PANICKED: &str = "a sibling shard panicked";

/// A parallel executor for [`Actor`] systems: the kernel's semantics,
/// sharded across worker threads.
///
/// See the module-level docs for the determinism contract. Use the
/// sharded executor for large-`n` sweeps where wall-clock matters and
/// per-run self-reproducibility (rather than kernel bit-compatibility)
/// suffices — or with `workers == 1`, where the two are draw-for-draw
/// identical.
pub struct ShardedKernel<A: Actor> {
    env: LaneEnv,
    shards: Vec<Shard<A>>,
}

impl<A: Actor> std::fmt::Debug for ShardedKernel<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("now", &self.now())
            .field("workers", &self.shards.len())
            .field(
                "processes",
                &self.shards.iter().map(|s| s.actors.len()).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}

impl<A: Actor> ShardedKernel<A> {
    /// Creates a sharded simulation over `topology` with `workers`
    /// shards (clamped to `1..=process count`). Mirrors
    /// [`crate::Simulation::new`] otherwise: `loss` supplies per-link
    /// loss probabilities, `make_actor` builds each process's protocol
    /// instance (called in ascending id order), and crashes come from
    /// [`SimOptions::crash_model`].
    pub fn new(
        topology: &Topology,
        loss: &Configuration,
        mut make_actor: impl FnMut(ProcessId) -> A,
        options: SimOptions,
        workers: usize,
    ) -> Self {
        let ids: Vec<ProcessId> = topology.processes().collect();
        let workers = workers.clamp(1, ids.len().max(1));
        let base = ids.len() / workers;
        let extra = ids.len() % workers;
        // Shard `index` starts `index` base-sized chunks in, plus one
        // process for every earlier shard that took an extra.
        let boundaries = (0..workers)
            .map(|index| ids.get(index * base + index.min(extra)).copied())
            .map(|first| first.unwrap_or(ProcessId::new(0)))
            .collect();
        let seed = options.seed;
        let env = LaneEnv::new(topology, loss, options, boundaries);
        let shards = (0..workers)
            .map(|index| {
                let lane = Lane::new(&env, index, shard_seed(seed, index as u32));
                Shard {
                    actors: lane.ids().iter().copied().map(&mut make_actor).collect(),
                    lane,
                }
            })
            .collect();
        ShardedKernel { env, shards }
    }

    /// Number of worker shards (after clamping).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Current simulated time (lane clocks advance in lockstep).
    pub fn now(&self) -> SimTime {
        self.shards[0].lane.now()
    }

    /// Ticks actually executed (fast-forwarded ticks are not counted).
    /// Lane clocks advance in lockstep, so any lane's count is the run's.
    pub fn busy_ticks(&self) -> u64 {
        self.shards[0].lane.busy_ticks()
    }

    /// Wire metrics aggregated over all shards, assembled on every call
    /// (see [`crate::Simulation::metrics`]).
    pub fn metrics(&self) -> Metrics {
        self.env
            .metrics(self.shards.iter().map(|shard| &shard.lane))
    }

    /// Resets every shard's collected metrics (e.g. after warm-up).
    pub fn reset_metrics(&mut self) {
        for shard in &mut self.shards {
            shard.lane.reset_metrics();
        }
    }

    /// Immutable access to a process's actor.
    pub fn node(&self, id: ProcessId) -> Option<&A> {
        let shard = &self.shards[self.env.lane_of(id)];
        shard.lane.slot_of(id).map(|slot| &shard.actors[slot])
    }

    /// Iterates over `(id, actor)` pairs in ascending id order (shards
    /// hold contiguous ascending ranges, so chaining them preserves the
    /// global order).
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &A)> {
        self.shards
            .iter()
            .flat_map(|s| s.lane.ids().iter().copied().zip(&s.actors))
    }

    /// Returns `true` iff the process is currently up. Unknown processes
    /// are reported as down.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.shards[self.env.lane_of(id)].lane.is_up(id)
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection).
    /// Applied between run segments — i.e. at a tick barrier.
    pub fn force_down(&mut self, id: ProcessId, ticks: u64) {
        self.shards[self.env.lane_of(id)].lane.force_down(id, ticks);
    }

    /// Overrides one link's loss probability. Applied between run
    /// segments, so every shard observes the change at the same tick.
    pub fn set_loss(&mut self, link: LinkId, p: Probability) {
        self.env.set_loss(link, p);
    }

    /// (Re)configures every shard's message adversary (see
    /// [`crate::Simulation::set_message_adversary`]). Applied between
    /// run segments; lane clocks are in lockstep, so every shard's
    /// window 0 starts at the same tick. Senders are shard-owned, so
    /// per-sender budgets never straddle shards.
    pub fn set_message_adversary(&mut self, d: u32, window: u64) {
        for shard in &mut self.shards {
            shard.lane.set_message_adversary(d, window);
        }
    }

    /// Emissions destroyed by the message adversary, summed over shards.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lane.suppressed_by_adversary())
            .sum()
    }

    /// Runs a closure against one process's actor with a live context,
    /// as an external command. Returns `false` (and does nothing) if the
    /// process is unknown or down. Commands execute on the coordinator
    /// between segments; any sends route into the owning shards'
    /// calendars immediately.
    pub fn command(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Message>),
    ) -> bool {
        self.ensure_started();
        let s = self.env.lane_of(id);
        let Shard { lane, actors } = &mut self.shards[s];
        let ran = lane.command(&self.env, id, |site, fx| {
            f(&mut actors[site.slot], &mut Context::new(site, fx));
        });
        self.route_from(s);
        ran
    }

    /// Coordinator-side flight exchange (no worker is running): moves
    /// whatever shard `s` addressed to its siblings into their calendars.
    fn route_from(&mut self, s: usize) {
        for dst in (0..self.shards.len()).filter(|&dst| dst != s) {
            let batch = self.shards[s].lane.take_outbound(dst);
            self.shards[dst].lane.accept(s, batch);
        }
    }

    /// Runs every actor's `on_start` in global ascending id order,
    /// exactly like the kernel: shards hold contiguous ascending ranges,
    /// visited in shard order.
    fn ensure_started(&mut self) {
        for s in 0..self.shards.len() {
            let Shard { lane, actors } = &mut self.shards[s];
            lane.start(&self.env, &mut actors[..]);
            self.route_from(s);
        }
    }
}

impl<A: Actor + Send> ShardedKernel<A>
where
    A::Message: Send,
{
    /// Runs `n` ticks across all shards.
    ///
    /// Spawns one scoped worker per shard for the duration of the
    /// segment; workers synchronize twice per executed tick and take
    /// fast-forward jumps by global consensus (see the module docs).
    /// Faults and commands applied between calls therefore land at a
    /// tick barrier on every shard simultaneously.
    pub fn run_ticks(&mut self, n: u64) {
        self.ensure_started();
        if n == 0 {
            return;
        }
        let end = self.now() + n;
        let workers = self.shards.len();
        let env = &self.env;
        let shared: Shared<A::Message> = Shared {
            mailboxes: (0..workers * workers)
                .map(|_| Mutex::new(Batch::new()))
                .collect(),
            barrier: Barrier::new(workers),
            status: Mutex::new(vec![LaneStatus::default(); workers]),
        };
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                let shared = &shared;
                scope.spawn(move || shard.run_segment(env, shared, end));
            }
        });
        debug_assert!(self.shards.iter().all(|s| s.lane.now() == end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, TimerId};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn ring(n: u32) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_link(p(i), p((i + 1) % n)).unwrap();
        }
        t
    }

    /// Flood actor: forwards hop-decremented copies to all
    /// neighbors; every delivery is recorded.
    struct Relay {
        neighbors: Vec<ProcessId>,
        received: Vec<(ProcessId, u64)>,
    }

    fn make_relay(topology: &Topology) -> impl FnMut(ProcessId) -> Relay + '_ {
        |id| Relay {
            neighbors: topology.neighbors(id).collect(),
            received: Vec::new(),
        }
    }

    impl Actor for Relay {
        type Message = u64;

        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, n: u64) {
            self.received.push((from, n));
            if n > 0 {
                for &to in self.neighbors.clone().iter() {
                    ctx.send(to, n - 1);
                }
            }
        }
    }

    /// Periodic beeper for timer/fast-forward coverage.
    struct Beeper {
        period: u64,
        beats: Vec<SimTime>,
    }

    impl Actor for Beeper {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(TimerId::new(0), ctx.now() + self.period);
        }

        fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, timer: TimerId) {
            self.beats.push(ctx.now());
            ctx.set_timer(timer, ctx.now() + self.period);
        }
    }

    /// Per-process received logs: (receiver, [(sender, payload)]).
    type ReceivedLogs = Vec<(ProcessId, Vec<(ProcessId, u64)>)>;

    fn run_sharded(
        topology: &Topology,
        loss: &Configuration,
        seed: u64,
        workers: usize,
        ticks: u64,
    ) -> (ReceivedLogs, Metrics) {
        let mut sharded = ShardedKernel::new(
            topology,
            loss,
            make_relay(topology),
            SimOptions::default().with_seed(seed),
            workers,
        );
        sharded.command(p(0), |_, ctx| ctx.send(p(1), 6));
        sharded.run_ticks(ticks);
        let received = sharded
            .nodes()
            .map(|(id, a)| (id, a.received.clone()))
            .collect();
        (received, sharded.metrics())
    }

    #[test]
    fn single_worker_is_draw_for_draw_identical_to_the_kernel() {
        let topology = ring(8);
        let mut loss = Configuration::new();
        for link in topology.links() {
            loss.set_loss(link, Probability::new(0.3).unwrap());
        }
        let mut kernel = Simulation::new(
            &topology,
            &loss,
            make_relay(&topology),
            SimOptions::default().with_seed(42),
        );
        kernel.command(p(0), |_, ctx| ctx.send(p(1), 6));
        kernel.run_ticks(40);
        let kernel_received: Vec<_> = kernel
            .nodes()
            .map(|(id, a)| (id, a.received.clone()))
            .collect();

        let (sharded_received, sharded_metrics) = run_sharded(&topology, &loss, 42, 1, 40);
        assert_eq!(kernel_received, sharded_received);
        assert_eq!(kernel.metrics(), sharded_metrics);
    }

    /// `SimOptions::link_delay` is a public field; a zero there must not
    /// let a message arrive in the tick it was sent (the precondition of
    /// the end-of-tick exchange, see the module docs) on either driver.
    #[test]
    fn zero_link_delay_behaves_as_one_on_both_drivers() {
        let topology = ring(6);
        // (kernel, W = 2) wire metrics after `ticks` ticks of a flood.
        let run = |link_delay: u64, ticks: u64| {
            let options = SimOptions {
                link_delay,
                ..SimOptions::default()
            };
            let mut kernel = Simulation::new(
                &topology,
                &Configuration::new(),
                make_relay(&topology),
                options.clone(),
            );
            kernel.command(p(0), |_, ctx| ctx.send(p(1), 6));
            kernel.run_ticks(ticks);
            let mut sharded = ShardedKernel::new(
                &topology,
                &Configuration::new(),
                make_relay(&topology),
                options,
                2,
            );
            sharded.command(p(0), |_, ctx| ctx.send(p(1), 6));
            sharded.run_ticks(ticks);
            (kernel.metrics(), sharded.metrics())
        };
        // One tick delivers the one message sent before it and none of
        // the copies forwarded during it.
        let (kernel, sharded) = run(0, 1);
        assert_eq!(kernel.delivered_total(), 1);
        assert_eq!(sharded.delivered_total(), 1);
        for ticks in [1, 3, 40] {
            assert_eq!(run(0, ticks), run(1, ticks), "after {ticks} ticks");
        }
    }

    #[test]
    fn same_seed_same_workers_replays_byte_identically() {
        let topology = ring(12);
        let mut loss = Configuration::new();
        for link in topology.links() {
            loss.set_loss(link, Probability::new(0.25).unwrap());
        }
        let a = run_sharded(&topology, &loss, 7, 4, 60);
        let b = run_sharded(&topology, &loss, 7, 4, 60);
        assert_eq!(a, b);
        let c = run_sharded(&topology, &loss, 8, 4, 60);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn loss_free_runs_match_the_kernel_exactly_at_any_worker_count() {
        // No loss and no crashes → zero RNG draws anywhere → every
        // worker count delivers *exactly* the kernel's message set and
        // wire metrics. (Within one tick, a receiver may see same-tick
        // messages from different shards in shard order rather than
        // global send order, so the per-receiver delivery *sequence* is
        // compared as a multiset.)
        let topology = ring(10);
        let loss = Configuration::new();
        let mut kernel = Simulation::new(
            &topology,
            &loss,
            make_relay(&topology),
            SimOptions::default().with_seed(1),
        );
        kernel.command(p(0), |_, ctx| ctx.send(p(1), 6));
        kernel.run_ticks(40);
        let expected: Vec<_> = kernel
            .nodes()
            .map(|(id, a)| {
                let mut received = a.received.clone();
                received.sort_unstable();
                (id, received)
            })
            .collect();
        for workers in [1, 2, 3, 4, 10] {
            let (mut received, metrics) = run_sharded(&topology, &loss, 1, workers, 40);
            for (_, r) in received.iter_mut() {
                r.sort_unstable();
            }
            assert_eq!(expected, received, "W={workers}");
            assert_eq!(kernel.metrics(), metrics, "W={workers}");
        }
    }

    #[test]
    fn timers_and_fast_forward_run_in_lockstep() {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            &topology,
            &Configuration::new(),
            |id| Beeper {
                period: 10 + u64::from(id.index()) % 3,
                beats: Vec::new(),
            },
            SimOptions::default(),
            3,
        );
        sharded.run_ticks(1000);
        assert_eq!(sharded.now(), SimTime::new(1000));
        // Fast-forward skipped the idle gaps between deadlines.
        assert!(sharded.busy_ticks() < 400, "{}", sharded.busy_ticks());
        for (id, beeper) in sharded.nodes() {
            let period = 10 + u64::from(id.index()) % 3;
            assert_eq!(beeper.beats.first(), Some(&SimTime::new(period)), "{id}");
            assert!(beeper.beats.len() as u64 >= 1000 / period - 1, "{id}");
        }
    }

    #[test]
    fn forced_outages_apply_at_segment_boundaries() {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            &topology,
            &Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            3,
        );
        sharded.force_down(p(3), 5);
        assert!(!sharded.is_up(p(3)));
        sharded.command(p(2), |_, ctx| ctx.send(p(3), 0));
        sharded.run_ticks(3);
        assert_eq!(sharded.metrics().dropped_receiver_down(), 1);
        assert!(!sharded.is_up(p(3)));
        sharded.run_ticks(3);
        assert!(sharded.is_up(p(3)));
    }

    #[test]
    fn partition_and_membership_queries() {
        let topology = ring(10);
        let sharded = ShardedKernel::new(
            &topology,
            &Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            3,
        );
        assert_eq!(sharded.workers(), 3);
        for id in topology.processes() {
            assert!(sharded.node(id).is_some(), "{id}");
            assert!(sharded.is_up(id));
        }
        assert!(sharded.node(p(99)).is_none());
        assert!(!sharded.is_up(p(99)));
        let ids: Vec<ProcessId> = sharded.nodes().map(|(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "nodes() iterates in id order");
        // Worker counts beyond the process count are clamped.
        let wide = ShardedKernel::new(
            &topology,
            &Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            64,
        );
        assert_eq!(wide.workers(), 10);
    }

    #[test]
    fn commands_on_down_or_unknown_processes_are_refused() {
        let topology = ring(6);
        let mut sharded = ShardedKernel::new(
            &topology,
            &Configuration::new(),
            make_relay(&topology),
            SimOptions::default(),
            2,
        );
        sharded.force_down(p(1), 4);
        assert!(!sharded.command(p(1), |_, ctx| ctx.send(p(2), 1)));
        assert!(!sharded.command(p(42), |_, ctx| ctx.send(p(2), 1)));
        assert!(sharded.command(p(2), |_, ctx| ctx.send(p(3), 1)));
    }
}
