//! The discrete-event simulation kernel.

use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};

use crate::engine::{Effects, Handler, Input, Lane, LaneEnv, Site};
use crate::{CrashModel, Metrics, SimTime, TimerId};

/// A message that can travel through the simulated network.
///
/// The `kind` string labels metrics (e.g. `"data"`, `"ack"`,
/// `"heartbeat"`) so experiments can count message categories separately,
/// as the paper's figures require.
pub trait SimMessage: Clone {
    /// Metric label for this message.
    fn kind(&self) -> &'static str {
        "message"
    }
}

impl SimMessage for String {}
impl SimMessage for u64 {}

/// A protocol instance living at one process of the simulated system.
///
/// An actor runs when a message, one of its timers or its recovery is
/// due, and at no other time. Handlers run only while the process is up.
/// Crashes are omission windows: a down process receives nothing and its
/// timers wait; on recovery [`Actor::on_recover`] reports how long the
/// outage lasted (the input to the paper's Event 4).
pub trait Actor {
    /// The message type this actor exchanges.
    type Message: SimMessage;

    /// Called once at simulation start (time zero).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a message is delivered to this process.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: ProcessId,
        message: Self::Message,
    );

    /// Called when a timer scheduled through [`Context::set_timer`]
    /// reaches its deadline (while the process is up). Timers that come
    /// due during a crash fire on the recovery tick, after
    /// [`Actor::on_recover`].
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// Called when the process recovers from a crash lasting `down_ticks`
    /// ticks, before any other handler on the recovery tick.
    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Message>, down_ticks: u64) {
        let _ = (ctx, down_ticks);
    }
}

/// Handler context: the executing process's identity, the current time,
/// an outbox for sending messages to neighbors, and timer controls.
#[derive(Debug)]
pub struct Context<'a, M> {
    site: Site,
    fx: &'a mut Effects<M>,
}

impl<'a, M> Context<'a, M> {
    /// Crate-internal constructor, shared with the sharded executor so
    /// both drivers hand actors the exact same handler surface.
    pub(crate) fn new(site: Site, fx: &'a mut Effects<M>) -> Self {
        Context { site, fx }
    }
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.site.now
    }

    /// The identity of the executing process.
    pub fn id(&self) -> ProcessId {
        self.site.id
    }

    /// Sends `message` to neighbor `to`.
    ///
    /// The message is subject to link loss and the configured link delay.
    /// Sending to a non-neighbor is counted in
    /// [`Metrics::dropped_invalid`] and otherwise ignored.
    pub fn send(&mut self, to: ProcessId, message: M) {
        self.fx.outbox.push((to, message));
    }

    /// Schedules (or re-schedules) this actor's named timer to fire at
    /// the absolute time `at`. One at or before the current tick fires on
    /// it if its timer phase is not over, else on the next tick, in the
    /// order [`TimerTable::fire_due`](crate::TimerTable::fire_due) gives.
    pub fn set_timer(&mut self, timer: TimerId, at: SimTime) {
        self.fx.timer_ops.push((timer, Some(at)));
    }

    /// Cancels this actor's named timer if it is pending.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.fx.timer_ops.push((timer, None));
    }
}

/// Options controlling a [`Simulation`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// RNG seed; equal seeds yield bit-identical runs.
    pub seed: u64,
    /// Message latency in ticks (the engine raises 0 to 1).
    pub link_delay: u64,
    /// How processes crash and recover.
    pub crash_model: CrashModel,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0xD1FF,
            link_delay: 1,
            crash_model: CrashModel::AlwaysUp,
        }
    }
}

impl SimOptions {
    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the link delay (the engine raises 0 to 1).
    #[must_use]
    pub fn with_link_delay(mut self, ticks: u64) -> Self {
        self.link_delay = ticks;
        self
    }

    /// Replaces the crash model.
    #[must_use]
    pub fn with_crash_model(mut self, model: CrashModel) -> Self {
        self.crash_model = model;
        self
    }
}

/// A deterministic discrete-event simulation of a distributed system.
///
/// The simulation owns one [`Actor`] per process and steps a single
/// [`Lane`] of the tick engine inline on the caller's thread: the lane
/// holds the lossy network derived from a [`Topology`] plus per-link loss
/// probabilities, the crash model, and the one seeded RNG that drives
/// all randomness in deterministic order, so equal seeds reproduce runs
/// exactly. [`ShardedKernel`](crate::ShardedKernel) drives the same lane
/// code from worker threads; `diffuse-net`'s virtual-time fabric is this
/// type over actors that exchange encoded frames.
///
/// Each tick runs the engine's phases ([`Lane::step`]): recoveries
/// ([`Actor::on_recover`]), deliveries in send order, then due timers
/// ([`Actor::on_timer`]); every handler's sends are loss-sampled and
/// scheduled `link_delay` ticks ahead.
///
/// When the crash model is [`CrashModel::AlwaysUp`] and no forced outage
/// is counting down, [`Simulation::run_ticks`] and
/// [`Simulation::run_until_every`] *fast-forward*: ticks on which no
/// delivery, timer, or forced recovery is due are skipped wholesale,
/// which costs nothing and changes nothing (no handler would have run
/// and no randomness would have been drawn).
///
/// # Example
///
/// ```
/// use diffuse_model::{ProcessId, Topology};
/// use diffuse_sim::{Actor, Context, SimOptions, Simulation};
///
/// struct Echo;
/// impl Actor for Echo {
///     type Message = u64;
///     fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, n: u64) {
///         if n > 0 {
///             ctx.send(from, n - 1);
///         }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut topology = Topology::new();
/// topology.add_link(ProcessId::new(0), ProcessId::new(1))?;
///
/// let mut sim = Simulation::new(
///     &topology,
///     &Default::default(), // lossless
///     |_| Echo,
///     SimOptions::default(),
/// );
/// sim.command(ProcessId::new(0), |_, ctx| {
///     let peer = ProcessId::new(1);
///     ctx.send(peer, 10);
/// });
/// sim.run_ticks(30);
/// assert_eq!(sim.metrics().sent_total(), 11); // 10, 9, …, 0
/// # Ok(())
/// # }
/// ```
pub struct Simulation<A: Actor> {
    env: LaneEnv,
    lane: Lane<A::Message>,
    /// One actor per process, parallel to the lane's id list.
    actors: Vec<A>,
}

/// Runs the [`Actor`] callback an [`Input`] stands for — how both
/// actor-based drivers (this kernel and the sharded executor) run a
/// handler.
impl<A: Actor> Handler<A::Message> for [A] {
    fn handle(&mut self, site: Site, input: Input<A::Message>, fx: &mut Effects<A::Message>) {
        let actor = &mut self[site.slot];
        let ctx = &mut Context::new(site, fx);
        match input {
            Input::Start => actor.on_start(ctx),
            Input::Message { from, message } => actor.on_message(ctx, from, message),
            Input::Timer(timer) => actor.on_timer(ctx, timer),
            Input::Recover { down_ticks } => actor.on_recover(ctx, down_ticks),
        }
    }
}

impl<A: Actor> std::fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("lane", &self.lane)
            .field("metrics", &self.metrics())
            .finish_non_exhaustive()
    }
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `topology` with per-link loss
    /// probabilities taken from `loss` (its crash probabilities are
    /// ignored — crashes come from [`SimOptions::crash_model`]).
    ///
    /// `make_actor` constructs the protocol instance for each process.
    pub fn new(
        topology: &Topology,
        loss: &Configuration,
        make_actor: impl FnMut(ProcessId) -> A,
        options: SimOptions,
    ) -> Self {
        let seed = options.seed;
        let env = LaneEnv::new(topology, loss, options, Vec::new());
        let lane = Lane::new(&env, 0, seed);
        let actors: Vec<A> = lane.ids().iter().copied().map(make_actor).collect();
        Simulation { env, lane, actors }
    }

    /// How many ticks were actually *executed* (crash/delivery/timer
    /// phases run) rather than fast-forwarded: the gap to `now()` is the
    /// number of skipped idle ticks.
    pub fn busy_ticks(&self) -> u64 {
        self.lane.busy_ticks()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.lane.now()
    }

    /// Collected metrics, assembled from the lane's dense counters on
    /// every call: read them once per report, not per tick.
    pub fn metrics(&self) -> Metrics {
        self.env.metrics([&self.lane])
    }

    /// Resets collected metrics (e.g. after warm-up).
    pub fn reset_metrics(&mut self) {
        self.lane.reset_metrics();
    }

    /// Immutable access to a process's actor.
    pub fn node(&self, id: ProcessId) -> Option<&A> {
        self.lane.slot_of(id).map(|slot| &self.actors[slot])
    }

    /// Iterates over `(id, actor)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &A)> {
        self.lane.ids().iter().copied().zip(&self.actors)
    }

    /// Returns `true` iff the process is currently up.
    ///
    /// Unknown processes are reported as down.
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.lane.is_up(id)
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection).
    pub fn force_down(&mut self, id: ProcessId, ticks: u64) {
        self.lane.force_down(id, ticks);
    }

    /// Overrides the loss probability of one link (e.g. to heal or break
    /// a path mid-run). A link the topology does not have is ignored.
    pub fn set_loss(&mut self, link: LinkId, p: Probability) {
        self.env.set_loss(link, p);
    }

    /// (Re)configures the message adversary: from now on it destroys up
    /// to `d` of each sender's emissions per `window` ticks. `d == 0`
    /// deactivates it. The adversary draws from its own seeded stream,
    /// so toggling it never perturbs loss sampling for surviving
    /// messages.
    pub fn set_message_adversary(&mut self, d: u32, window: u64) {
        self.lane.set_message_adversary(d, window);
    }

    /// Emissions destroyed by the message adversary so far.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.lane.suppressed_by_adversary()
    }

    /// Runs a closure against one process's actor with a live context, as
    /// an external command (e.g. "broadcast now"). Returns `false` (and
    /// does nothing) if the process is unknown or down.
    pub fn command(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Message>),
    ) -> bool {
        self.lane.start(&self.env, &mut self.actors[..]);
        let actors = &mut self.actors;
        self.lane.command(&self.env, id, |site, fx| {
            f(&mut actors[site.slot], &mut Context::new(site, fx));
        })
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        self.lane.step(&self.env, &mut self.actors[..]);
    }

    /// Runs `n` ticks.
    ///
    /// When the crash model draws no per-tick randomness and no forced
    /// outage is counting down, eventless stretches are fast-forwarded:
    /// the clock jumps straight to the next message delivery or timer
    /// deadline. The jump is unobservable — no handler runs and no
    /// randomness is drawn on the skipped ticks — so runs are
    /// bit-identical to tick-by-tick execution ([`Simulation::step`]).
    pub fn run_ticks(&mut self, n: u64) {
        let end = self.lane.now() + n;
        self.lane.run_to(&self.env, end, &mut self.actors[..]);
    }

    /// Runs until `predicate` holds, evaluating it only at multiples of
    /// `check_every` ticks (and before the first step, when the current
    /// time is such a multiple), giving up after `max_ticks`. Returns the
    /// time at which the predicate first held, or `None` on timeout.
    ///
    /// Between checkpoints the simulation advances with
    /// [`Simulation::run_ticks`], so eventless stretches fast-forward.
    pub fn run_until_every(
        &mut self,
        mut predicate: impl FnMut(&Simulation<A>) -> bool,
        check_every: u64,
        max_ticks: u64,
    ) -> Option<SimTime> {
        self.lane.start(&self.env, &mut self.actors[..]);
        let check_every = check_every.max(1);
        let end = self.now() + max_ticks;
        if self.now().ticks() % check_every == 0 && predicate(self) {
            return Some(self.now());
        }
        while self.now() < end {
            let now = self.now().ticks();
            let next_check = now - now % check_every + check_every;
            self.run_ticks(next_check.min(end.ticks()) - now);
            if self.now().ticks() % check_every == 0 && predicate(self) {
                return Some(self.now());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Counts everything it receives; forwards `hops`-decremented copies
    /// to all neighbors when asked.
    struct Counter {
        received: Vec<(ProcessId, u64)>,
        recovered_after: Vec<u64>,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                received: Vec::new(),
                recovered_after: Vec::new(),
            }
        }
    }

    impl Actor for Counter {
        type Message = u64;

        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, from: ProcessId, n: u64) {
            self.received.push((from, n));
        }

        fn on_recover(&mut self, _ctx: &mut Context<'_, u64>, down_ticks: u64) {
            self.recovered_after.push(down_ticks);
        }
    }

    fn pair_topology() -> Topology {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t
    }

    #[test]
    fn message_arrives_after_link_delay() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default().with_link_delay(3),
        );
        sim.command(p(0), |_, ctx| ctx.send(p(1), 42));
        sim.run_ticks(2);
        assert!(sim.node(p(1)).unwrap().received.is_empty());
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received, vec![(p(0), 42)]);
        assert_eq!(sim.metrics().sent_total(), 1);
        assert_eq!(sim.metrics().delivered_total(), 1);
    }

    #[test]
    fn total_loss_link_delivers_nothing() {
        let topology = pair_topology();
        let mut loss = Configuration::new();
        loss.set_loss(LinkId::new(p(0), p(1)).unwrap(), Probability::ONE);
        let mut sim = Simulation::new(&topology, &loss, |_| Counter::new(), SimOptions::default());
        for _ in 0..10 {
            sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        }
        sim.run_ticks(5);
        assert_eq!(sim.metrics().sent_total(), 10);
        assert_eq!(sim.metrics().lost_in_link(), 10);
        assert_eq!(sim.metrics().delivered_total(), 0);
        assert!(sim.node(p(1)).unwrap().received.is_empty());
    }

    #[test]
    fn partial_loss_matches_probability() {
        let topology = pair_topology();
        let mut loss = Configuration::new();
        loss.set_loss(
            LinkId::new(p(0), p(1)).unwrap(),
            Probability::new(0.3).unwrap(),
        );
        let mut sim = Simulation::new(
            &topology,
            &loss,
            |_| Counter::new(),
            SimOptions::default().with_seed(99),
        );
        for _ in 0..10_000 {
            sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        }
        sim.run_ticks(2);
        let lost = sim.metrics().lost_in_link() as f64 / 10_000.0;
        assert!((lost - 0.3).abs() < 0.02, "loss fraction {lost}");
    }

    #[test]
    fn sends_to_non_neighbors_are_rejected() {
        let mut topology = pair_topology();
        topology.add_process(p(2));
        let mut sim = Simulation::new(
            &topology,
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.command(p(0), |_, ctx| {
            ctx.send(p(2), 1); // not a neighbor
            ctx.send(p(0), 2); // self-loop
            ctx.send(p(9), 3); // unknown
        });
        sim.run_ticks(2);
        assert_eq!(sim.metrics().dropped_invalid(), 3);
        assert_eq!(sim.metrics().sent_total(), 0);
    }

    #[test]
    fn crashed_receiver_drops_messages_and_recovers() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.force_down(p(1), 5);
        sim.command(p(0), |_, ctx| ctx.send(p(1), 7));
        sim.run_ticks(3);
        assert_eq!(sim.metrics().dropped_receiver_down(), 1);
        assert!(!sim.is_up(p(1)));
        sim.run_ticks(3);
        assert!(sim.is_up(p(1)));
        assert_eq!(sim.node(p(1)).unwrap().recovered_after, vec![5]);
    }

    #[test]
    fn command_on_down_process_is_refused() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.force_down(p(0), 2);
        // force_down takes effect immediately for commands.
        assert!(!sim.command(p(0), |_, ctx| ctx.send(p(1), 1)));
        assert!(sim.command(p(1), |_, ctx| ctx.send(p(0), 1)));
        // An unknown process is refused like a down one.
        assert!(!sim.command(p(9), |_, ctx| ctx.send(p(1), 1)));
    }

    #[test]
    fn same_seed_reproduces_identical_runs() {
        let run = |seed: u64| {
            let topology = pair_topology();
            let mut loss = Configuration::new();
            loss.set_loss(
                LinkId::new(p(0), p(1)).unwrap(),
                Probability::new(0.5).unwrap(),
            );
            let mut sim = Simulation::new(
                &topology,
                &loss,
                |_| Counter::new(),
                SimOptions::default()
                    .with_seed(seed)
                    .with_crash_model(CrashModel::Bernoulli {
                        p: Probability::new(0.1).unwrap(),
                    }),
            );
            for _ in 0..200 {
                sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
                sim.step();
            }
            sim.metrics()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn set_loss_changes_future_transmissions() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
        sim.set_loss(LinkId::new(p(0), p(1)).unwrap(), Probability::ONE);
        sim.command(p(0), |_, ctx| ctx.send(p(1), 2));
        sim.run_ticks(3);
        let received = &sim.node(p(1)).unwrap().received;
        assert_eq!(received, &vec![(p(0), 1)]);
    }

    #[test]
    fn metrics_list_only_links_that_carried_traffic_and_reset_to_zero() {
        let mut topology = pair_topology();
        topology.add_link(p(1), p(2)).unwrap();
        topology.add_link(p(0), p(2)).unwrap();
        let mut sim = Simulation::new(
            &topology,
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        let used = LinkId::new(p(1), p(2)).unwrap();
        sim.command(p(2), |_, ctx| ctx.send(p(1), 1));
        sim.command(p(1), |_, ctx| ctx.send(p(2), 2));
        sim.run_ticks(2);
        let metrics = sim.metrics();
        assert_eq!(metrics.per_link().collect::<Vec<_>>(), vec![(used, 2)]);
        assert_eq!(metrics.sent_of_kind("message"), 2);
        assert_eq!(metrics.delivered_total(), 2);
        assert_eq!(metrics, sim.metrics());

        sim.reset_metrics();
        assert_eq!(sim.metrics(), Metrics::new());
        sim.command(p(0), |_, ctx| ctx.send(p(1), 3));
        assert_eq!(sim.metrics().sent_over(used), 0);
        assert_eq!(sim.metrics().sent_total(), 1);
    }

    #[test]
    fn set_loss_outside_the_topology_is_ignored() {
        let mut topology = pair_topology();
        topology.add_process(p(2));
        let mut sim = Simulation::new(
            &topology,
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        sim.set_loss(LinkId::new(p(0), p(2)).unwrap(), Probability::ONE);
        sim.set_loss(LinkId::new(p(1), p(9)).unwrap(), Probability::ONE);
        sim.command(p(0), |_, ctx| {
            ctx.send(p(1), 1);
            ctx.send(p(2), 2);
        });
        sim.run_ticks(2);
        // p0-p2 is still not a link, and p0-p1 still lossless.
        assert_eq!(sim.metrics().dropped_invalid(), 1);
        assert_eq!(sim.metrics().lost_in_link(), 0);
        assert_eq!(sim.node(p(1)).unwrap().received, vec![(p(0), 1)]);
    }

    #[test]
    fn same_destination_bursts_are_staggered() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        // One handler invocation sends three copies to p1.
        sim.command(p(0), |_, ctx| {
            ctx.send(p(1), 1);
            ctx.send(p(1), 2);
            ctx.send(p(1), 3);
        });
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received.len(), 1);
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received.len(), 2);
        sim.run_ticks(1);
        assert_eq!(sim.node(p(1)).unwrap().received.len(), 3);
    }

    /// Echoes every message after a per-message timer, plus a periodic
    /// "beat" timer.
    struct TimerEcho {
        beat_period: u64,
        beats: Vec<SimTime>,
        fired: Vec<(SimTime, TimerId)>,
    }

    const BEAT: TimerId = TimerId::new(0);
    const ONESHOT: TimerId = TimerId::new(1);

    impl TimerEcho {
        fn new(beat_period: u64) -> Self {
            TimerEcho {
                beat_period,
                beats: Vec::new(),
                fired: Vec::new(),
            }
        }
    }

    impl Actor for TimerEcho {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if self.beat_period > 0 {
                ctx.set_timer(BEAT, ctx.now() + self.beat_period);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, _n: u64) {
            ctx.set_timer(ONESHOT, ctx.now() + 5);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, timer: TimerId) {
            self.fired.push((ctx.now(), timer));
            if timer == BEAT {
                self.beats.push(ctx.now());
                ctx.set_timer(BEAT, ctx.now() + self.beat_period);
            }
        }
    }

    #[test]
    fn timers_fire_at_their_deadlines() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| TimerEcho::new(10),
            SimOptions::default(),
        );
        sim.run_ticks(25);
        let node = sim.node(p(0)).unwrap();
        assert_eq!(node.beats, vec![SimTime::new(10), SimTime::new(20)]);
    }

    #[test]
    fn fast_forward_skips_idle_ticks_without_changing_behavior() {
        let run = |period, kick: bool, ticks| {
            let mut sim = Simulation::new(
                &pair_topology(),
                &Configuration::new(),
                |_| TimerEcho::new(period),
                SimOptions::default(),
            );
            if kick {
                sim.command(p(0), |_, ctx| ctx.send(p(1), 1));
            }
            sim.run_ticks(ticks);
            (
                sim.now(),
                sim.busy_ticks(),
                sim.node(p(0)).unwrap().beats.clone(),
                sim.node(p(1)).unwrap().fired.clone(),
                sim.metrics(),
            )
        };
        let (now, busy, beats, fired, metrics) = run(100, true, 1000);
        // The clock still lands exactly on the horizon.
        assert_eq!(now, SimTime::new(1000));
        // Executed: the delivery, the one-shot and the ten beats.
        assert_eq!(busy, 12);
        assert_eq!(beats.len(), 10);
        // The message at tick 1 armed p1's one-shot for tick 6.
        assert!(fired.contains(&(SimTime::new(6), ONESHOT)));
        assert_eq!(metrics.sent_total(), 1);
        assert_eq!(metrics.delivered_total(), 1);

        // Two actors without a timer and nothing in flight: an idle
        // stretch executes not few ticks but none.
        let (now, busy, beats, fired, metrics) = run(0, false, 100_000);
        assert_eq!(now, SimTime::new(100_000));
        assert_eq!(busy, 0);
        assert!(beats.is_empty() && fired.is_empty());
        assert_eq!(metrics, Metrics::new());
    }

    #[test]
    fn timer_rearm_and_cancel_are_respected() {
        struct Canceller {
            fired: u32,
        }
        impl Actor for Canceller {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.set_timer(TimerId::new(3), SimTime::new(4));
                ctx.set_timer(TimerId::new(3), SimTime::new(8)); // re-arm
                ctx.set_timer(TimerId::new(4), SimTime::new(5));
                ctx.cancel_timer(TimerId::new(4));
            }
            fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, timer: TimerId) {
                assert_eq!(timer, TimerId::new(3));
                self.fired += 1;
            }
        }
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| Canceller { fired: 0 },
            SimOptions::default(),
        );
        sim.run_ticks(6);
        assert_eq!(sim.node(p(0)).unwrap().fired, 0);
        sim.run_ticks(2);
        assert_eq!(sim.node(p(0)).unwrap().fired, 1);
    }

    #[test]
    fn timers_of_a_down_process_fire_on_recovery() {
        let mut sim = Simulation::new(
            &pair_topology(),
            &Configuration::new(),
            |_| TimerEcho::new(10),
            SimOptions::default(),
        );
        sim.run_ticks(5);
        sim.force_down(p(0), 10); // covers the beat due at tick 10
        sim.run_ticks(20);
        let node = sim.node(p(0)).unwrap();
        // The tick-10 beat was deferred to the recovery tick (15), and
        // the following beat fired normally at 25.
        assert_eq!(node.beats, vec![SimTime::new(15), SimTime::new(25)]);
        // The peer kept its own schedule.
        assert_eq!(
            sim.node(p(1)).unwrap().beats,
            vec![SimTime::new(10), SimTime::new(20)]
        );
    }

    #[test]
    fn run_until_every_checks_only_at_multiples() {
        // The first beat fires at tick 7: seen at the next multiple of
        // `check_every` — on tick 7 itself when every tick is checked.
        for (check_every, first_hit) in [(5, 10), (1, 7)] {
            let mut sim = Simulation::new(
                &pair_topology(),
                &Configuration::new(),
                |_| TimerEcho::new(7),
                SimOptions::default(),
            );
            let mut checked_at: Vec<u64> = Vec::new();
            let hit = sim.run_until_every(
                |s| {
                    checked_at.push(s.now().ticks());
                    !s.node(p(0)).unwrap().beats.is_empty()
                },
                check_every,
                100,
            );
            assert_eq!(hit, Some(SimTime::new(first_hit)));
            assert_eq!(sim.now(), SimTime::new(first_hit));
            assert!(checked_at.iter().all(|t| t % check_every == 0));
            // Timeout: no hit, and the clock stops at the horizon.
            assert_eq!(sim.run_until_every(|_| false, check_every, 5), None);
            assert_eq!(sim.now(), SimTime::new(first_hit + 5));
        }
    }

    #[test]
    fn nodes_iterates_in_id_order() {
        let mut topology = Topology::new();
        topology.add_link(p(2), p(0)).unwrap();
        topology.add_link(p(1), p(2)).unwrap();
        let sim = Simulation::new(
            &topology,
            &Configuration::new(),
            |_| Counter::new(),
            SimOptions::default(),
        );
        let ids: Vec<ProcessId> = sim.nodes().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![p(0), p(1), p(2)]);
        assert!(sim.node(p(9)).is_none());
        assert!(!sim.is_up(p(9)));
    }
}
