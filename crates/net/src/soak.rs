//! Soak harness: a sustained broadcast stream over a live UDP cluster
//! under churn or adversarial interference.
//!
//! [`run_soak`] launches an n-process cluster (n ≥ 8) and keeps a
//! broadcast stream flowing while the harness injects one of two fault
//! profiles:
//!
//! * the **churn profile** (default): a cluster-wide loss spike, a
//!   partition that later heals, and a hard crash + restart of one
//!   node (SIGKILL, fresh process, same port), over the gossip
//!   protocol;
//! * the **adversary profile** ([`SoakOptions::adversary`]): one
//!   scripted lying node (its `Adversary`-wrapped protocol rewrites
//!   heartbeats inside a corruption window) plus a cluster-wide
//!   message adversary (deterministic bounded egress suppression),
//!   over the adaptive protocol — gossip emits no heartbeats, so only
//!   the adaptive regime gives a liar something to lie about.
//!
//! The delivery guarantee under test is the paper's: every broadcast
//! accepted from a correct origin must eventually be delivered by
//! every correct process. A node that was hard-killed is not correct
//! for the run (its in-memory protocol state died with it), and a
//! lying node is not correct by definition, so the assertion
//! quantifies over the remaining processes and over broadcasts whose
//! origin stayed correct. While the message adversary is active the
//! rotating stream issues its broadcasts from the (exempt) liar:
//! adaptive data diffusion is one-shot tree propagation, so a
//! suppressed data frame is not retransmitted and no delivery
//! guarantee can attach to broadcasts issued under suppression. The
//! lying node's corruption window, by contrast, runs with the full
//! guaranteed stream flowing — heartbeat lies must never stop the data
//! plane (that is the containment claim).
//!
//! The stream stops early enough that the forwarding horizon (gossip
//! TTL, or the adaptive repair margin) plus the settle window can
//! drain every in-flight rumor before the cluster is stopped — the
//! harness checks completeness of an eventually-quiescent run, not
//! liveness under perpetual load.

use std::collections::BTreeSet;
use std::time::Duration;

use diffuse_core::scenario::{Executor, FaultSink};
use diffuse_core::{Containment, CorruptionMode};
use diffuse_model::{Probability, ProcessId, Topology};

use crate::cluster::{ProtocolSpec, UdpCluster, UdpClusterOptions};
use crate::NetError;

/// Tuning for one soak run. The defaults are the CI profile (see
/// [`SoakOptions::quick`]); `repro soak` without `--quick` runs the
/// longer standard profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakOptions {
    /// Cluster size; must be at least 8 (the issue's floor for a
    /// meaningful multi-process run).
    pub nodes: u32,
    /// Wall-clock length of one logical tick.
    pub tick_interval: Duration,
    /// Ticks of sustained load (broadcasts + faults all happen in this
    /// window).
    pub load_ticks: u64,
    /// Ticks between consecutive broadcasts in the stream.
    pub broadcast_period: u64,
    /// Baseline per-link loss probability applied from the start.
    /// Ignored (forced to zero) on the adversary profile: adaptive
    /// data diffusion is probabilistically reliable against ambient
    /// loss by design, so an exact delivery guarantee is only
    /// assertable when the interference comes from the adversaries
    /// alone.
    pub base_loss: f64,
    /// RNG/cluster seed.
    pub seed: u64,
    /// Run the adversary profile (lying node + message adversary over
    /// the adaptive protocol) instead of the churn profile.
    pub adversary: bool,
}

impl SoakOptions {
    /// The CI profile: 8 nodes, short load window — finishes in a few
    /// seconds while still exercising the full fault profile.
    pub fn quick() -> Self {
        SoakOptions {
            nodes: 8,
            tick_interval: Duration::from_millis(3),
            load_ticks: 300,
            broadcast_period: 10,
            base_loss: 0.03,
            seed: 7,
            adversary: false,
        }
    }

    /// The standard profile: a larger cluster under a longer window.
    /// With [`SoakOptions::adversary`] this is the nightly adversarial
    /// soak entry point (`repro soak --adversary`).
    pub fn standard() -> Self {
        SoakOptions {
            nodes: 10,
            tick_interval: Duration::from_millis(3),
            load_ticks: 900,
            broadcast_period: 6,
            base_loss: 0.05,
            seed: 7,
            adversary: false,
        }
    }

    /// Switches this profile to the adversary fault family.
    #[must_use]
    pub fn with_adversary(mut self) -> Self {
        self.adversary = true;
        self
    }
}

/// What one soak run did and observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Broadcasts accepted from origins that stayed correct the whole
    /// run — the set the delivery guarantee covers.
    pub accepted: u64,
    /// Broadcasts requested of the exempt node (the crashing node on
    /// the churn profile, the liar on the adversary profile) — not
    /// covered by the delivery guarantee.
    pub accepted_exempt: u64,
    /// Processes that stayed correct (everyone but the exempt node).
    pub correct: Vec<ProcessId>,
    /// The node that was hard-killed and restarted mid-run (churn
    /// profile only).
    pub crashed: Option<ProcessId>,
    /// The scripted lying node (adversary profile only).
    pub liar: Option<ProcessId>,
    /// `(process, missing broadcasts)` pairs — empty iff the delivery
    /// guarantee held.
    pub missing: Vec<(ProcessId, u64)>,
    /// Malformed wire frames counted (and survived) across all workers.
    pub malformed_frames: u64,
    /// Total wire messages sent, from the merged chaos metrics.
    pub sent_total: u64,
    /// Scenario containment metrics (all zero on the churn profile).
    pub containment: Containment,
    /// Adversarial fault injections the cluster could not execute
    /// (always zero unless a worker died mid-run).
    pub skipped_faults: u64,
}

impl SoakReport {
    /// True iff every correct process delivered every broadcast
    /// accepted from a correct origin.
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// True iff the adversary profile's interference was real and
    /// contained: the liar emitted corrupted heartbeats, the message
    /// adversary suppressed frames, every fault executed, and no
    /// correct node adopted a corrupted entry past the distortion
    /// bound. Vacuously false on the churn profile (nothing was
    /// injected, so nothing was contained).
    pub fn contained(&self) -> bool {
        self.liar.is_some()
            && self.skipped_faults == 0
            && self.containment.corrupt_emissions > 0
            && self.containment.suppressed_emissions > 0
            && self.containment.bound_violations == 0
    }
}

/// Runs the soak: a sustained stream plus either the churn profile
/// (loss spike + partition/heal + one hard crash+restart) or the
/// adversary profile (lying node + message adversary), then checks the
/// delivery guarantee.
///
/// Returns the report; the caller asserts
/// [`SoakReport::complete`] (the `repro soak` CLI and the
/// `udp_cluster` integration test both do) and, on the adversary
/// profile, [`SoakReport::contained`].
///
/// # Errors
///
/// Fails if the cluster cannot launch (see
/// [`UdpCluster::launch`](crate::UdpCluster::launch)) or the crashed
/// worker cannot be restarted.
///
/// # Panics
///
/// Panics if `options.nodes < 8` — smaller clusters don't exercise the
/// concurrency this harness exists to soak.
pub fn run_soak(options: SoakOptions) -> Result<SoakReport, NetError> {
    assert!(
        options.nodes >= 8,
        "soak requires at least 8 nodes, got {}",
        options.nodes
    );
    let n = options.nodes;

    // Churn profile: circulant topology with skips {1, 2} — degree 4,
    // diameter ~n/4, stays connected when any single node dies.
    // Adversary profile: complete graph — every correct node is
    // adjacent to both endpoints of every link, so honest first-hand
    // estimates (distortion 0) structurally displace the liar's
    // forgeries (stored at distortion 1) everywhere, and estimates
    // re-converge after the corruption window. On a sparse graph a
    // forged estimate of a *remote* link, adopted at distortion 1,
    // could never be displaced: honest relays of that link arrive at
    // distortion ≥ 2 and `adopt_if_better` is strict. That pinning is
    // the containment *limit* — lies stay distortion-bounded but are
    // not self-healing beyond the endpoints' neighborhoods.
    let mut topology = Topology::new();
    for i in 0..n {
        topology.add_process(ProcessId::new(i));
    }
    if options.adversary {
        for i in 0..n {
            for j in (i + 1)..n {
                let _ = topology.add_link(ProcessId::new(i), ProcessId::new(j));
            }
        }
    } else {
        for i in 0..n {
            for skip in [1u32, 2] {
                let j = (i + skip) % n;
                let _ = topology.add_link(ProcessId::new(i), ProcessId::new(j));
            }
        }
    }
    let base = if options.adversary {
        // Adaptive trees hit a *target* reliability against ambient
        // loss; the exact delivery guarantee below needs the only
        // interference to be the (bounded, exempted) adversaries.
        Probability::ZERO
    } else {
        Probability::new(options.base_loss).expect("base_loss in [0, 1]")
    };
    let config = diffuse_model::Configuration::uniform(&topology, Probability::ZERO, base);

    // Churn profile: gossip TTL spans every fault window
    // (steps × step_period = 80 ticks of forwarding per rumor, against
    // a 15-tick spike and a ~12%-of-load partition). Adversary
    // profile: adaptive, because the liar corrupts heartbeats and
    // gossip has none.
    let protocol = if options.adversary {
        ProtocolSpec::Adaptive
    } else {
        ProtocolSpec::Gossip {
            steps: 40,
            step_period: 2,
        }
    };
    // The cluster run must outlast the last broadcast by the
    // forwarding horizon + margin so the stream drains fully before
    // STOP (adaptive delivery is immediate on receipt; the same window
    // lets its heartbeat repair settle).
    let drain_ticks = 40 * 2 + 60;
    // Gossip re-forwards every rumor for 80 ticks, so frames dropped
    // while a worker is starved off-CPU are re-sent; adaptive's data
    // plane is one-shot and never re-sends. On small hosts (CI runners
    // are often 1-2 cores) n+1 processes time-slice one core, a
    // starved worker's socket backlog grows by a full heartbeat fanout
    // per tick, and once it crosses the kernel buffer the drops are
    // unrecoverable. Pace the adversary profile so backlog stays
    // bounded between schedule slices.
    let tick_interval = if options.adversary {
        options.tick_interval.max(Duration::from_millis(25))
    } else {
        options.tick_interval
    };
    let cluster_options = UdpClusterOptions {
        tick_interval,
        run_ticks: options.load_ticks + drain_ticks,
        settle: Duration::from_millis(250),
        handshake_timeout: Duration::from_secs(10),
    };
    let mut cluster =
        UdpCluster::launch(&topology, &config, options.seed, protocol, cluster_options)?;

    // Fault plans, as fractions of the load window. Exactly one of the
    // two profiles runs; `exempt` is the node the delivery guarantee
    // does not cover (the crasher or the liar).
    let crashed = ProcessId::new(n - 1);
    let liar = ProcessId::new(n / 2);
    let exempt = if options.adversary { liar } else { crashed };
    // Churn plan.
    let spike_at = options.load_ticks / 5;
    let spike_len = 15;
    let partition_at = options.load_ticks * 2 / 5;
    let partition_len = options.load_ticks / 8;
    let kill_at = options.load_ticks * 7 / 10;
    let restart_at = kill_at + options.load_ticks / 10;
    // The partition cuts the two lowest-numbered nodes off from the
    // rest (their mutual links stay up).
    let island: BTreeSet<ProcessId> = [ProcessId::new(0), ProcessId::new(1)].into();
    let cut: Vec<diffuse_model::LinkId> = topology
        .links()
        .filter(|l| island.contains(&l.lo()) != island.contains(&l.hi()))
        .collect();
    // Adversary plan: the liar's corruption window opens at L/5, the
    // message adversary's suppression window at 3L/5. The adaptive
    // data plane is one-shot (no retransmission), so on a real UDP
    // loopback any burst loss during interference is unrecoverable:
    // poisoned/suppression-inflated loss estimates pump waterfilled
    // copy counts, and the resulting frame bursts can overflow kernel
    // socket buffers. The *strong* claim — lies never cost a delivery
    // on an ideal network — is asserted by the sim-substrate
    // containment suite; here the guaranteed stream runs outside both
    // windows (after a cold-estimate warmup) and the post-window
    // segments prove re-convergence: once a window closes, estimates
    // recover and deliveries succeed again. During the windows the
    // stream keeps flowing from the liar itself (exempt — no
    // guarantee attaches), keeping the data plane under load while
    // the adversaries act.
    let corrupt_at = options.load_ticks / 5;
    let corrupt_window = options.load_ticks / 4;
    let corrupt_end = corrupt_at + corrupt_window;
    let adv_start = options.load_ticks * 3 / 5;
    let adv_end = options.load_ticks * 4 / 5;
    // Warmup: belief estimators start from a flat prior, and adaptive
    // defers knowledge-incomplete broadcasts to later wakeups, so the
    // first ticks' trees are built from cold estimates.
    let warmup = 40;
    // No guaranteed broadcast within `stream_gap` ticks *before* a
    // window (none in flight when interference starts) or
    // `resume_margin` ticks *after* it (over-suspicion corrections —
    // `undo_decrease` on the next heartbeat exchange — land before
    // guaranteed trees are sized again).
    let stream_gap = 10;
    let resume_margin = 20;

    // The plan below is walked by hand rather than as a `Scenario`:
    // SIGKILL and restart are not `FaultAction`s. Time still passes the
    // one way it does for every cluster run — `Executor::advance`.
    let mut accepted = 0u64;
    let mut accepted_exempt = 0u64;
    let mut skipped_faults = 0u64;
    let mut killed = false;
    let mut seq = 0u64;
    for tick in 0..options.load_ticks {
        if options.adversary {
            if tick == adv_start && !cluster.set_message_adversary(1, 50) {
                skipped_faults += 1;
            }
            if tick == adv_end && !cluster.set_message_adversary(0, 50) {
                skipped_faults += 1;
            }
            if tick == corrupt_at
                && !cluster.inject_corrupt(
                    liar,
                    CorruptionMode::UnderstateDistortion,
                    corrupt_window,
                )
            {
                skipped_faults += 1;
            }
        } else {
            if tick == spike_at {
                // Cluster-wide loss spike: every link to 0.3 for
                // spike_len ticks (restored below).
                for link in topology.links() {
                    cluster.set_loss(link, Probability::new(0.3).expect("0.3 is a probability"));
                }
            }
            if tick == spike_at + spike_len {
                for link in topology.links() {
                    cluster.set_loss(link, config.loss(link));
                }
            }
            if tick == partition_at {
                for &link in &cut {
                    cluster.set_loss(link, Probability::ONE);
                }
            }
            if tick == partition_at + partition_len {
                for &link in &cut {
                    cluster.set_loss(link, config.loss(link));
                }
            }
            if tick == kill_at {
                cluster.kill(crashed);
                killed = true;
            }
            if tick == restart_at {
                cluster.restart(crashed)?;
            }
        }

        if tick % options.broadcast_period == 0 {
            // Rotate origins over the whole ring. Broadcasts the
            // exempt node *accepts* are tracked separately (no
            // guarantee attaches to them): the crasher's while it is
            // still alive, and — on the adversary profile — the whole
            // stream during warmup and both adversarial windows, when
            // one-shot data trees can lose frames unrecoverably.
            let in_window =
                |start: u64, end: u64| tick + stream_gap >= start && tick < end + resume_margin;
            let suppressing = options.adversary
                && (tick < warmup
                    || in_window(corrupt_at, corrupt_end)
                    || in_window(adv_start, adv_end));
            let origin = if suppressing {
                liar
            } else if options.adversary {
                // Guaranteed spans are scarce on this profile: rotate
                // over the correct nodes only (liar-origin broadcasts
                // are exempt and prove nothing here).
                let idx = (seq % u64::from(n - 1)) as u32;
                ProcessId::new(if idx >= liar.index() { idx + 1 } else { idx })
            } else {
                ProcessId::new((seq % u64::from(n)) as u32)
            };
            seq += 1;
            let payload = format!("soak-{seq}").into_bytes();
            if origin == exempt {
                if !killed && cluster.broadcast(origin, &payload) {
                    accepted_exempt += 1;
                }
            } else if cluster.broadcast(origin, &payload) {
                accepted += 1;
            }
        }
        cluster.advance(1);
    }
    // Quiesce: let the last rumors run out their TTL, then settle and
    // stop.
    cluster.advance(drain_ticks);

    let correct: Vec<ProcessId> = topology.processes().filter(|&p| p != exempt).collect();
    let report = cluster.finish();
    // The harness scripted the liar, so the harness names it.
    let liars: BTreeSet<ProcessId> = options.adversary.then_some(liar).into_iter().collect();

    // The guarantee: every correct process delivered every broadcast
    // accepted from a correct origin. Origins deliver locally too, so
    // one uniform bound covers all correct processes.
    let mut missing = Vec::new();
    for &p in &correct {
        let got = report
            .delivered_ids
            .get(&p)
            .map(|set| set.iter().filter(|(origin, _)| *origin != exempt).count() as u64)
            .unwrap_or(0);
        if got < accepted {
            missing.push((p, accepted - got));
        }
    }

    let seen = &report.observed;
    Ok(SoakReport {
        accepted,
        accepted_exempt,
        correct,
        crashed: (!options.adversary).then_some(crashed),
        liar: options.adversary.then_some(liar),
        missing,
        malformed_frames: report.malformed_frames,
        sent_total: seen.metrics.sent_total(),
        containment: Containment::assemble(&liars, &seen.audits, seen.suppressed),
        skipped_faults,
    })
}
