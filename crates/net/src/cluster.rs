//! The third scenario substrate: real OS processes over loopback UDP.
//!
//! [`run_scenario_on_udp_cluster`] runs the *same* [`Scenario`] value
//! that drives the simulation kernel and the thread fabric — but every
//! node is a separate OS process, speaking the v2 wire codec over a
//! [`UdpTransport`](crate::UdpTransport) wrapped in a
//! [`ChaosTransport`](crate::ChaosTransport) — the node a wall-fabric
//! thread runs, on a socket instead of a channel. The scripts are walked
//! by the same `ScenarioRun` driver as on every other substrate — a live
//! [`UdpCluster`] is one more [`Executor`] — so all of them execute the
//! same events; fault actions land where they do on the wall fabric
//! (loss/partition → per-link egress loss in the worker's chaos policy,
//! the message adversary → chaos-level egress suppression, crash → the
//! node runtime's cooperative crash window, lying nodes → a corruption
//! window on the worker's [`Adversary`]-wrapped protocol), and nothing
//! is ever skipped ([`ScenarioReport::skipped_faults`] is zero).
//!
//! # Worker processes
//!
//! Workers are re-executions of the **host binary** (rusty-fork style):
//! the parent spawns `current_exe()` with the [`UDP_WORKER_ENV`]
//! environment variable carrying a serialized node spec, and the child
//! detects the variable at startup and becomes a node instead of the
//! host program. Any binary that drives a cluster must therefore call
//! [`maybe_run_udp_worker`] at the very top of `main()` — the `repro`
//! CLI, the `udp_cluster` example and the cluster integration test all
//! do.
//!
//! The parent talks to each worker over its stdin/stdout pipes (an
//! ordered, reliable control channel, deliberately *not* the lossy UDP
//! data plane): the peer address book and then [`WorkerCommand`] lines —
//! workload broadcasts, fault updates, the stop request — go down; the
//! bound address, per-delivery records and final wire metrics and audits
//! come back. Workers exit cleanly on
//! `STOP`, on EOF (parent death), and report — never panic over —
//! malformed wire input.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use diffuse_core::scenario::{
    Executor, FaultSink, Observed, Scenario, ScenarioReport, ScenarioRun,
};
use diffuse_core::{
    AdaptiveBroadcast, AdaptiveParams, Adversary, BroadcastOutcome, CorruptionMode,
    NetworkKnowledge, OptimalBroadcast, Payload, Protocol, ProtocolAudit, ReferenceGossip,
};
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{Metrics, SimTime};

use crate::clock::{monotonic_now, WallClock, WallSession};
use crate::{spawn_node, ChaosTransport, NetError, UdpTransport};

/// Environment variable that turns the host binary into a cluster node
/// worker; see [`maybe_run_udp_worker`].
pub const UDP_WORKER_ENV: &str = "DIFFUSE_UDP_NODE";

/// Which protocol a cluster node runs — the cross-process counterpart
/// of the `make` closure the in-process substrates take. (A closure
/// cannot cross an `exec` boundary, so the cluster takes a serializable
/// spec and each worker constructs its own protocol instance from it.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// [`ReferenceGossip`] with a TTL of `steps` forwarding rounds,
    /// one round every `step_period` ticks.
    Gossip {
        /// Forwarding rounds before the rumor dies out locally.
        steps: u32,
        /// Logical ticks between forwarding rounds.
        step_period: u64,
    },
    /// [`OptimalBroadcast`] with exact network knowledge and target
    /// reliability `k`.
    Optimal {
        /// Target delivery probability per process.
        k: f64,
    },
    /// [`AdaptiveBroadcast`] with default [`AdaptiveParams`].
    Adaptive,
}

impl ProtocolSpec {
    fn encode(&self) -> String {
        match self {
            ProtocolSpec::Gossip { steps, step_period } => format!("gossip:{steps}:{step_period}"),
            ProtocolSpec::Optimal { k } => format!("optimal:{k}"),
            ProtocolSpec::Adaptive => "adaptive".to_string(),
        }
    }

    fn decode(s: &str) -> Result<Self, NetError> {
        let mut parts = s.split(':');
        let spec = match parts.next() {
            Some("gossip") => ProtocolSpec::Gossip {
                steps: parse_num(parts.next())?,
                step_period: parse_num(parts.next())?,
            },
            Some("optimal") => ProtocolSpec::Optimal {
                k: parse_num(parts.next())?,
            },
            Some("adaptive") => ProtocolSpec::Adaptive,
            _ => return Err(NetError::Invalid("unknown protocol spec")),
        };
        if parts.next().is_some() {
            return Err(NetError::Invalid("trailing protocol spec fields"));
        }
        Ok(spec)
    }

    /// Builds the protocol instance for one node. Every variant is
    /// constructible on every substrate, which is what lets one
    /// `Scenario` run unmodified on kernel, fabric and cluster.
    fn build(&self, id: ProcessId, topology: &Topology, config: &Configuration) -> ClusterProtocol {
        let neighbors: Vec<ProcessId> = topology.neighbors(id).collect();
        match *self {
            ProtocolSpec::Gossip { steps, step_period } => ClusterProtocol::Gossip(
                ReferenceGossip::new(id, neighbors, steps).with_step_period(step_period),
            ),
            ProtocolSpec::Optimal { k } => ClusterProtocol::Optimal(OptimalBroadcast::new(
                id,
                NetworkKnowledge::exact(topology.clone(), config.clone()),
                k,
            )),
            ProtocolSpec::Adaptive => ClusterProtocol::Adaptive(Box::new(AdaptiveBroadcast::new(
                id,
                topology.processes().collect(),
                neighbors,
                AdaptiveParams::default(),
            ))),
        }
    }
}

/// The worker-side protocol: a closed enum over the workspace's
/// protocols, delegating the [`Protocol`] trait by match. The adaptive
/// variant is boxed — it carries full network knowledge and dwarfs the
/// other two.
#[derive(Debug)]
enum ClusterProtocol {
    Gossip(ReferenceGossip),
    Optimal(OptimalBroadcast),
    Adaptive(Box<AdaptiveBroadcast>),
}

macro_rules! delegate {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            ClusterProtocol::Gossip($p) => $body,
            ClusterProtocol::Optimal($p) => $body,
            ClusterProtocol::Adaptive($p) => $body,
        }
    };
}

impl Protocol for ClusterProtocol {
    fn id(&self) -> ProcessId {
        delegate!(self, p => p.id())
    }

    fn on_start(&mut self, now: SimTime, actions: &mut diffuse_core::Actions) {
        delegate!(self, p => p.on_start(now, actions))
    }

    fn on_event(
        &mut self,
        now: SimTime,
        event: diffuse_core::Event,
        actions: &mut diffuse_core::Actions,
    ) {
        delegate!(self, p => p.on_event(now, event, actions))
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut diffuse_core::Actions,
    ) -> Result<diffuse_core::BroadcastId, diffuse_core::CoreError> {
        delegate!(self, p => p.broadcast(now, payload, actions))
    }

    fn delivered(&self) -> &[(diffuse_core::BroadcastId, Payload)] {
        delegate!(self, p => p.delivered())
    }

    fn audit(&self) -> ProtocolAudit {
        delegate!(self, p => p.audit())
    }
}

// ---------------------------------------------------------------------
// Node spec: the serialized form a worker process is born from.
// ---------------------------------------------------------------------

/// Everything a worker needs to become a node: identity, timing, seed,
/// bind address, protocol, and the scenario's topology + base config.
#[derive(Debug, Clone)]
struct NodeSpec {
    id: ProcessId,
    /// Holds the clamped tick: the node's runtime, the corruption window
    /// and the message adversary's window all take their tick from here.
    clock: WallClock,
    seed: u64,
    bind: SocketAddr,
    protocol: ProtocolSpec,
    topology: Topology,
    config: Configuration,
}

fn parse_num<T: std::str::FromStr>(field: Option<&str>) -> Result<T, NetError> {
    field
        .and_then(|s| s.parse().ok())
        .ok_or(NetError::Invalid("malformed numeric field in node spec"))
}

impl NodeSpec {
    /// One line: `1|id|tick_us|seed|bind|proto|procs|links|loss`.
    fn encode(&self) -> String {
        let procs = self
            .topology
            .processes()
            .map(|p| p.index().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let links = self
            .topology
            .links()
            .map(|l| format!("{}-{}", l.lo().index(), l.hi().index()))
            .collect::<Vec<_>>()
            .join(",");
        let loss = self
            .config
            .loss_entries()
            .map(|(l, p)| format!("{}-{}={}", l.lo().index(), l.hi().index(), p.value()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "1|{}|{}|{}|{}|{}|{}|{}|{}",
            self.id.index(),
            self.clock.tick_interval().as_micros(),
            self.seed,
            self.bind,
            self.protocol.encode(),
            procs,
            links,
            loss
        )
    }

    fn decode(s: &str) -> Result<Self, NetError> {
        let fields: Vec<&str> = s.split('|').collect();
        if fields.len() != 9 || fields[0] != "1" {
            return Err(NetError::Invalid("unknown node spec version or shape"));
        }
        let id = ProcessId::new(parse_num(Some(fields[1]))?);
        let clock = WallClock::new(Duration::from_micros(parse_num(Some(fields[2]))?));
        let seed = parse_num(Some(fields[3]))?;
        let bind: SocketAddr = fields[4]
            .parse()
            .map_err(|_| NetError::Invalid("malformed bind address in node spec"))?;
        let protocol = ProtocolSpec::decode(fields[5])?;
        let mut topology = Topology::new();
        for p in fields[6].split(',').filter(|s| !s.is_empty()) {
            topology.add_process(ProcessId::new(parse_num(Some(p))?));
        }
        for l in fields[7].split(',').filter(|s| !s.is_empty()) {
            let (a, b) = parse_pair(l)?;
            topology
                .add_link(a, b)
                .map_err(|_| NetError::Invalid("self-loop in node spec topology"))?;
        }
        let mut config = Configuration::new();
        for entry in fields[8].split(',').filter(|s| !s.is_empty()) {
            let (link_s, p_s) = entry
                .split_once('=')
                .ok_or(NetError::Invalid("malformed loss entry in node spec"))?;
            let (a, b) = parse_pair(link_s)?;
            let link =
                LinkId::new(a, b).map_err(|_| NetError::Invalid("self-loop in node spec loss"))?;
            let p: f64 = parse_num(Some(p_s))?;
            config.set_loss(
                link,
                Probability::new(p).map_err(|_| NetError::Invalid("loss out of range"))?,
            );
        }
        Ok(NodeSpec {
            id,
            clock,
            seed,
            bind,
            protocol,
            topology,
            config,
        })
    }
}

fn parse_pair(s: &str) -> Result<(ProcessId, ProcessId), NetError> {
    let (a, b) = s
        .split_once('-')
        .ok_or(NetError::Invalid("malformed link endpoints in node spec"))?;
    Ok((
        ProcessId::new(parse_num(Some(a))?),
        ProcessId::new(parse_num(Some(b))?),
    ))
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble < 16"));
        out.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble < 16"));
    }
    out
}

fn hex_decode(s: &str) -> Result<Vec<u8>, NetError> {
    if s.len() % 2 != 0 {
        return Err(NetError::Invalid("odd-length hex payload"));
    }
    let nibble = |c: char| {
        c.to_digit(16)
            .ok_or(NetError::Invalid("non-hex digit in payload"))
    };
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = nibble(pair[0] as char)?;
            let lo = nibble(pair[1] as char)?;
            Ok((hi * 16 + lo) as u8)
        })
        .collect()
}

/// Interns a wire-kind string reported over the control channel back to
/// the `&'static str` values [`frame_kind`](crate::codec::frame_kind)
/// produces, so cross-process metrics merge into the same counters.
fn intern_kind(s: &str) -> &'static str {
    match s {
        "data" => "data",
        "ack" => "ack",
        "heartbeat" => "heartbeat",
        _ => "message",
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Becomes a cluster node worker if [`UDP_WORKER_ENV`] is set —
/// otherwise returns immediately. **Never returns** in worker mode.
///
/// Call this at the very top of `main()` in any binary that launches a
/// [`UdpCluster`] (directly or through [`run_scenario_on_udp_cluster`]);
/// the cluster re-executes its own binary to spawn node processes, and
/// without this hook the children would run the host program instead of
/// becoming nodes. Launch fails with a diagnostic naming this function
/// when the hook is missing.
pub fn maybe_run_udp_worker() {
    let Ok(spec) = std::env::var(UDP_WORKER_ENV) else {
        return;
    };
    let code = match worker_main(&spec) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("udp cluster worker: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Parent → worker control commands: one line each on the worker's
/// stdin, written by [`fmt::Display`] and read back by [`parse_command`].
#[derive(Debug, PartialEq)]
enum WorkerCommand {
    Broadcast(Vec<u8>),
    Crash(u64),
    Loss(LinkId, Probability),
    Delay(Option<(Duration, Duration)>),
    Duplicate(Probability),
    /// Open a lying-node window: `CORRUPT <mode> <window_ticks>`.
    Corrupt(CorruptionMode, u64),
    /// (Re)configure the message adversary: `ADV <d> <window_ticks>`.
    Adversary(u32, u64),
    Stop,
}

impl fmt::Display for WorkerCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerCommand::Broadcast(payload) => write!(f, "BCAST {}", hex_encode(payload)),
            WorkerCommand::Crash(ticks) => write!(f, "CRASH {ticks}"),
            WorkerCommand::Loss(link, p) => {
                let (lo, hi) = (link.lo().index(), link.hi().index());
                write!(f, "LOSS {lo} {hi} {}", p.value())
            }
            WorkerCommand::Delay(Some((min, max))) => {
                write!(f, "DELAY {} {}", min.as_micros(), max.as_micros())
            }
            WorkerCommand::Delay(None) => f.write_str("DELAY off"),
            WorkerCommand::Duplicate(p) => write!(f, "DUP {}", p.value()),
            WorkerCommand::Corrupt(mode, window) => write!(f, "CORRUPT {mode} {window}"),
            WorkerCommand::Adversary(d, window) => write!(f, "ADV {d} {window}"),
            WorkerCommand::Stop => f.write_str("STOP"),
        }
    }
}

fn parse_command(line: &str) -> Result<WorkerCommand, NetError> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("BCAST") => Ok(WorkerCommand::Broadcast(hex_decode(
            words.next().unwrap_or(""),
        )?)),
        Some("CRASH") => Ok(WorkerCommand::Crash(parse_num(words.next())?)),
        Some("LOSS") => {
            let a = ProcessId::new(parse_num(words.next())?);
            let b = ProcessId::new(parse_num(words.next())?);
            let p: f64 = parse_num(words.next())?;
            Ok(WorkerCommand::Loss(
                LinkId::new(a, b).map_err(|_| NetError::Invalid("LOSS on a self-loop"))?,
                Probability::new(p).map_err(|_| NetError::Invalid("LOSS out of range"))?,
            ))
        }
        Some("DELAY") => match words.next() {
            Some("off") => Ok(WorkerCommand::Delay(None)),
            min => {
                let min_us: u64 = parse_num(min)?;
                let max_us: u64 = parse_num(words.next())?;
                Ok(WorkerCommand::Delay(Some((
                    Duration::from_micros(min_us),
                    Duration::from_micros(max_us),
                ))))
            }
        },
        Some("DUP") => {
            let p: f64 = parse_num(words.next())?;
            Ok(WorkerCommand::Duplicate(
                Probability::new(p).map_err(|_| NetError::Invalid("DUP out of range"))?,
            ))
        }
        Some("CORRUPT") => {
            let mode: CorruptionMode = words
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(NetError::Invalid("unknown CORRUPT mode"))?;
            Ok(WorkerCommand::Corrupt(mode, parse_num(words.next())?))
        }
        Some("ADV") => Ok(WorkerCommand::Adversary(
            parse_num(words.next())?,
            parse_num(words.next())?,
        )),
        Some("STOP") => Ok(WorkerCommand::Stop),
        _ => Err(NetError::Invalid("unknown control command")),
    }
}

/// The worker process body: bind, report READY, receive the address
/// book, run the node, stream deliveries up, and dump metrics on STOP.
fn worker_main(spec: &str) -> Result<(), NetError> {
    let spec = NodeSpec::decode(spec)?;
    let transport = UdpTransport::bind(spec.id, spec.bind, BTreeMap::new())?;
    let local = transport.local_addr()?;
    let (mut chaos, control) =
        ChaosTransport::for_node(transport, spec.seed, &spec.topology, &spec.config);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "READY {local}").map_err(NetError::Io)?;
    out.flush().map_err(NetError::Io)?;

    // First command must be the address book; nothing can be sent
    // before it arrives, and the runtime starts sending immediately.
    let mut peers_line = String::new();
    if std::io::stdin().read_line(&mut peers_line)? == 0 {
        return Err(NetError::Invalid("control channel closed before PEERS"));
    }
    let Some(book) = peers_line.trim_end().strip_prefix("PEERS ") else {
        return Err(NetError::Invalid("first control command must be PEERS"));
    };
    for entry in book.split(',').filter(|s| !s.is_empty()) {
        let (p_s, addr_s) = entry
            .split_once('=')
            .ok_or(NetError::Invalid("malformed PEERS entry"))?;
        let peer = ProcessId::new(parse_num(Some(p_s))?);
        let addr: SocketAddr = addr_s
            .parse()
            .map_err(|_| NetError::Invalid("malformed PEERS address"))?;
        chaos.inner_mut().register_peer(peer, addr);
    }

    // Any worker can be scripted to lie; outside a corruption window the
    // adversary is the protocol it wraps, bit for bit.
    let protocol = spec.protocol.build(spec.id, &spec.topology, &spec.config);
    let tick = spec.clock.tick_interval();
    let handle = spawn_node(Adversary::new(protocol, spec.seed), chaos, tick);

    // Remaining commands arrive on a reader thread so the main loop can
    // pump deliveries concurrently; EOF (parent death) reads as Stop.
    let (cmd_tx, cmd_rx) = unbounded::<WorkerCommand>();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            match parse_command(&line) {
                Ok(cmd) => {
                    let stop = matches!(cmd, WorkerCommand::Stop);
                    if cmd_tx.send(cmd).is_err() || stop {
                        break;
                    }
                }
                Err(e) => eprintln!("udp cluster worker: ignoring command: {e}"),
            }
        }
        let _ = cmd_tx.send(WorkerCommand::Stop);
    });

    let mut delivered_count = 0u64;
    'run: loop {
        loop {
            match cmd_rx.try_recv() {
                Ok(WorkerCommand::Broadcast(bytes)) => {
                    let _ = handle.broadcast(Payload::from(bytes));
                }
                Ok(WorkerCommand::Crash(ticks)) => {
                    let _ = handle.inject_crash(ticks);
                }
                Ok(WorkerCommand::Loss(link, p)) => control.set_link_loss(link, p),
                Ok(WorkerCommand::Delay(range)) => control.set_delay(range),
                Ok(WorkerCommand::Duplicate(p)) => control.set_duplicate(p),
                Ok(WorkerCommand::Corrupt(mode, window)) => {
                    let _ = handle.inject_corrupt(mode, window);
                }
                Ok(WorkerCommand::Adversary(d, window)) => {
                    control.set_message_adversary(d, window, tick);
                }
                Ok(WorkerCommand::Stop) => break 'run,
                Err(_) => break,
            }
        }
        while let Ok(Some((id, _payload))) = handle.next_delivery(Duration::from_millis(5)) {
            delivered_count += 1;
            writeln!(out, "D {} {}", id.origin.index(), id.seq).map_err(NetError::Io)?;
            out.flush().map_err(NetError::Io)?;
        }
    }

    // Final drain: the parent settles before sending STOP, so whatever
    // is still queued is already complete.
    while let Ok(Some((id, _payload))) = handle.next_delivery(Duration::from_millis(2)) {
        delivered_count += 1;
        writeln!(out, "D {} {}", id.origin.index(), id.seq).map_err(NetError::Io)?;
    }
    let malformed = handle.malformed_frames();
    let audit = handle.shutdown_with_audit();

    for (link, kind, n) in control.sent_cells() {
        writeln!(
            out,
            "M SENT {} {} {kind} {n}",
            link.lo().index(),
            link.hi().index()
        )
        .map_err(NetError::Io)?;
    }
    for (kind, n) in control.delivered_cells() {
        writeln!(out, "M DELIV {kind} {n}").map_err(NetError::Io)?;
    }
    writeln!(out, "M LOST {}", control.lost()).map_err(NetError::Io)?;
    writeln!(out, "M SUPP {}", control.suppressed()).map_err(NetError::Io)?;
    // Adversary-containment audit, all of it the protocol's own: what
    // it emitted inside a corruption window, what it was offered.
    writeln!(out, "A CE {}", audit.corrupt_emissions).map_err(NetError::Io)?;
    writeln!(out, "A FUT {}", audit.future_acks_rejected).map_err(NetError::Io)?;
    for (sender, sa) in &audit.per_sender {
        writeln!(
            out,
            "A S {} {} {} {}",
            sender.index(),
            sa.offered,
            sa.adopted,
            sa.bound_violations
        )
        .map_err(NetError::Io)?;
    }
    writeln!(out, "MAL {malformed}").map_err(NetError::Io)?;
    writeln!(out, "DONE {delivered_count}").map_err(NetError::Io)?;
    out.flush().map_err(NetError::Io)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// Worker → parent events, parsed off each child's stdout by a reader
/// thread.
#[derive(Debug)]
enum WorkerEvent {
    Ready(SocketAddr),
    Delivery(ProcessId, u64),
    Sent(LinkId, &'static str, u64),
    Delivered(&'static str, u64),
    Lost(u64),
    Suppressed(u64),
    /// Heartbeats the worker's protocol emitted inside a corruption
    /// window (lying nodes only).
    AuditEmissions(u64),
    /// Future-stamped acks the worker's protocol rejected.
    AuditFuture(u64),
    /// Per-sender offer/adoption counters: `(sender, offered, adopted,
    /// bound_violations)`.
    AuditSender(ProcessId, u64, u64, u64),
    Malformed(u64),
    Done(u64),
    Exited,
}

fn parse_event(line: &str) -> Option<WorkerEvent> {
    let mut words = line.split_whitespace();
    match words.next()? {
        "READY" => Some(WorkerEvent::Ready(words.next()?.parse().ok()?)),
        "D" => Some(WorkerEvent::Delivery(
            ProcessId::new(words.next()?.parse().ok()?),
            words.next()?.parse().ok()?,
        )),
        "M" => match words.next()? {
            "SENT" => {
                let a = ProcessId::new(words.next()?.parse().ok()?);
                let b = ProcessId::new(words.next()?.parse().ok()?);
                Some(WorkerEvent::Sent(
                    LinkId::new(a, b).ok()?,
                    intern_kind(words.next()?),
                    words.next()?.parse().ok()?,
                ))
            }
            "DELIV" => Some(WorkerEvent::Delivered(
                intern_kind(words.next()?),
                words.next()?.parse().ok()?,
            )),
            "LOST" => Some(WorkerEvent::Lost(words.next()?.parse().ok()?)),
            "SUPP" => Some(WorkerEvent::Suppressed(words.next()?.parse().ok()?)),
            _ => None,
        },
        "A" => match words.next()? {
            "CE" => Some(WorkerEvent::AuditEmissions(words.next()?.parse().ok()?)),
            "FUT" => Some(WorkerEvent::AuditFuture(words.next()?.parse().ok()?)),
            "S" => Some(WorkerEvent::AuditSender(
                ProcessId::new(words.next()?.parse().ok()?),
                words.next()?.parse().ok()?,
                words.next()?.parse().ok()?,
                words.next()?.parse().ok()?,
            )),
            _ => None,
        },
        "MAL" => Some(WorkerEvent::Malformed(words.next()?.parse().ok()?)),
        "DONE" => Some(WorkerEvent::Done(words.next()?.parse().ok()?)),
        _ => None,
    }
}

/// Options for a UDP cluster scenario run. Mirrors
/// [`FabricScenarioOptions`](crate::FabricScenarioOptions), with extra
/// process-level knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpClusterOptions {
    /// Wall-clock length of one logical tick.
    pub tick_interval: Duration,
    /// How many logical ticks to run before collecting the report.
    pub run_ticks: u64,
    /// Extra wall-clock settle time after the last tick, letting
    /// in-flight datagrams and deliveries drain.
    pub settle: Duration,
    /// How long to wait for a spawned worker to report its bound
    /// address before declaring the launch failed.
    pub handshake_timeout: Duration,
}

impl Default for UdpClusterOptions {
    fn default() -> Self {
        UdpClusterOptions {
            tick_interval: Duration::from_millis(3),
            run_ticks: 300,
            settle: Duration::from_millis(200),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// One worker process and its control pipe.
#[derive(Debug)]
struct ClusterNode {
    child: Child,
    stdin: ChildStdin,
    alive: bool,
}

impl ClusterNode {
    /// Sends one control line; a worker that cannot take it is dead.
    fn write_line(&mut self, line: &dyn fmt::Display) -> bool {
        self.alive =
            self.alive && writeln!(self.stdin, "{line}").is_ok() && self.stdin.flush().is_ok();
        self.alive
    }
}

/// A running multi-process UDP cluster: one OS process per scenario
/// process, plus the control plumbing to drive workloads and faults
/// into it. Most callers go through [`run_scenario_on_udp_cluster`] or
/// the soak harness ([`run_soak`](crate::run_soak)); the handle is
/// public for custom drivers (process kill/restart, ad-hoc chaos).
#[derive(Debug)]
pub struct UdpCluster {
    topology: Topology,
    base_config: Configuration,
    seed: u64,
    protocol: ProtocolSpec,
    options: UdpClusterOptions,
    nodes: BTreeMap<ProcessId, ClusterNode>,
    addrs: BTreeMap<ProcessId, SocketAddr>,
    events_rx: Receiver<(ProcessId, WorkerEvent)>,
    events_tx: Sender<(ProcessId, WorkerEvent)>,
    delivered_ids: BTreeMap<ProcessId, BTreeSet<(ProcessId, u64)>>,
    metrics: Metrics,
    malformed: u64,
    done_counts: BTreeMap<ProcessId, u64>,
    /// Per-worker adversary-containment audits, merged from `A` lines.
    audits: BTreeMap<ProcessId, ProtocolAudit>,
    /// Emissions destroyed by the message adversary, cluster-wide.
    suppressed: u64,
    /// Pins logical tick zero to the moment the launch handshake ended.
    session: WallSession,
    /// The logical tick the driver has advanced to.
    tick: SimTime,
}

/// What a finished cluster run saw, for drivers that walk their own
/// plan (the soak harness) instead of a [`Scenario`]'s scripts.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Unique broadcasts delivered per process, per-worker audits, the
    /// suppression count and merged best-effort wire [`Metrics`] — what
    /// the scenario driver builds a [`ScenarioReport`] from.
    pub observed: Observed,
    /// Exactly which `(origin, seq)` broadcasts each process delivered
    /// — what the soak harness's completeness assertion runs on.
    pub delivered_ids: BTreeMap<ProcessId, BTreeSet<(ProcessId, u64)>>,
    /// Malformed wire frames dropped (and counted) across all workers.
    pub malformed_frames: u64,
}

impl UdpCluster {
    /// Spawns one worker process per process of `topology` and
    /// completes the address-book handshake.
    ///
    /// # Errors
    ///
    /// Fails if workers cannot be spawned or do not report `READY`
    /// within the handshake timeout — most commonly because the host
    /// binary does not call [`maybe_run_udp_worker`] at the top of
    /// `main()`.
    pub fn launch(
        topology: &Topology,
        config: &Configuration,
        seed: u64,
        protocol: ProtocolSpec,
        options: UdpClusterOptions,
    ) -> Result<Self, NetError> {
        let (events_tx, events_rx) = unbounded();
        let mut cluster = UdpCluster {
            topology: topology.clone(),
            base_config: config.clone(),
            seed,
            protocol,
            options,
            nodes: BTreeMap::new(),
            addrs: BTreeMap::new(),
            events_rx,
            events_tx,
            delivered_ids: BTreeMap::new(),
            metrics: Metrics::new(),
            malformed: 0,
            done_counts: BTreeMap::new(),
            audits: BTreeMap::new(),
            suppressed: 0,
            session: WallClock::new(options.tick_interval).begin(),
            tick: SimTime::ZERO,
        };
        let ids: Vec<ProcessId> = topology.processes().collect();
        for &id in &ids {
            cluster.delivered_ids.insert(id, BTreeSet::new());
            let bind: SocketAddr = "127.0.0.1:0".parse().expect("literal address parses");
            cluster.spawn_worker(id, bind)?;
        }
        // Collect every READY, then distribute the address book.
        let deadline = monotonic_now() + options.handshake_timeout;
        while cluster.addrs.len() < ids.len() {
            let remaining = deadline.saturating_duration_since(monotonic_now());
            match cluster.events_rx.recv_timeout(remaining) {
                Ok((id, WorkerEvent::Ready(addr))) => {
                    cluster.addrs.insert(id, addr);
                }
                Ok((id, WorkerEvent::Exited)) => {
                    cluster.abort();
                    let _ = id;
                    return Err(NetError::Invalid(
                        "UDP cluster worker exited before READY — does the host \
                         binary call diffuse_net::maybe_run_udp_worker() at the \
                         top of main()?",
                    ));
                }
                Ok((id, event)) => cluster.absorb(id, event),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    cluster.abort();
                    return Err(NetError::Invalid(
                        "UDP cluster worker did not report READY in time — does \
                         the host binary call diffuse_net::maybe_run_udp_worker() \
                         at the top of main()?",
                    ));
                }
            }
        }
        for &id in &ids {
            let book = cluster.peers_line(id);
            cluster.write_line(id, &book);
        }
        cluster.session = WallClock::new(options.tick_interval).begin();
        Ok(cluster)
    }

    fn peers_line(&self, id: ProcessId) -> String {
        let book = self
            .addrs
            .iter()
            .filter(|(&p, _)| p != id)
            .map(|(p, a)| format!("{}={a}", p.index()))
            .collect::<Vec<_>>()
            .join(",");
        format!("PEERS {book}")
    }

    fn spawn_worker(&mut self, id: ProcessId, bind: SocketAddr) -> Result<(), NetError> {
        let spec = NodeSpec {
            id,
            clock: WallClock::new(self.options.tick_interval),
            seed: self.seed,
            bind,
            protocol: self.protocol,
            topology: self.topology.clone(),
            config: self.base_config.clone(),
        };
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .env(UDP_WORKER_ENV, spec.encode())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = self.events_tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(event) = parse_event(&line) {
                    if tx.send((id, event)).is_err() {
                        return;
                    }
                }
            }
            let _ = tx.send((id, WorkerEvent::Exited));
        });
        self.nodes.insert(
            id,
            ClusterNode {
                child,
                stdin,
                alive: true,
            },
        );
        Ok(())
    }

    /// Kills every worker (launch-failure cleanup).
    fn abort(&mut self) {
        for node in self.nodes.values_mut() {
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
    }

    fn write_line(&mut self, id: ProcessId, line: &dyn fmt::Display) -> bool {
        self.nodes
            .get_mut(&id)
            .is_some_and(|node| node.write_line(line))
    }

    /// Sends `command` to every worker; `true` iff a live one took it.
    fn write_all(&mut self, command: WorkerCommand) -> bool {
        self.nodes
            .values_mut()
            .fold(false, |reached, node| node.write_line(&command) | reached)
    }

    /// Folds one worker event into the cluster's accumulated state.
    fn absorb(&mut self, id: ProcessId, event: WorkerEvent) {
        match event {
            WorkerEvent::Ready(addr) => {
                self.addrs.insert(id, addr);
            }
            WorkerEvent::Delivery(origin, seq) => {
                self.delivered_ids
                    .entry(id)
                    .or_default()
                    .insert((origin, seq));
            }
            WorkerEvent::Sent(link, kind, n) => self.metrics.record_sent_batch(link, kind, n),
            WorkerEvent::Delivered(kind, n) => self.metrics.record_delivered_batch(kind, n),
            WorkerEvent::Lost(n) => self.metrics.record_lost_batch(n),
            WorkerEvent::Suppressed(n) => self.suppressed += n,
            WorkerEvent::AuditEmissions(n) => {
                self.audits.entry(id).or_default().corrupt_emissions += n;
            }
            WorkerEvent::AuditFuture(n) => {
                self.audits.entry(id).or_default().future_acks_rejected += n;
            }
            WorkerEvent::AuditSender(sender, offered, adopted, violations) => {
                let sa = self.audits.entry(id).or_default().sender(sender);
                sa.offered += offered;
                sa.adopted += adopted;
                sa.bound_violations += violations;
            }
            WorkerEvent::Malformed(n) => self.malformed += n,
            WorkerEvent::Done(n) => {
                self.done_counts.insert(id, n);
            }
            WorkerEvent::Exited => {
                if let Some(node) = self.nodes.get_mut(&id) {
                    node.alive = false;
                }
            }
        }
    }

    /// Drains all immediately available worker events into the
    /// accumulated state (deliveries, metrics, exits).
    pub fn pump(&mut self) {
        while let Ok((id, event)) = self.events_rx.try_recv() {
            self.absorb(id, event);
        }
    }

    /// Asks `origin` to broadcast `payload`; returns whether the
    /// command reached a live worker.
    pub fn broadcast(&mut self, origin: ProcessId, payload: &[u8]) -> bool {
        self.write_line(origin, &WorkerCommand::Broadcast(payload.to_vec()))
    }

    /// Applies an ingress delay/reorder window to every node's chaos
    /// policy (`None` clears it). A real-network fault with no kernel
    /// counterpart, so it lives outside `FaultScript`.
    pub fn set_delay_all(&mut self, range: Option<(Duration, Duration)>) {
        self.write_all(WorkerCommand::Delay(range));
    }

    /// Sets the egress duplication probability on every node's chaos
    /// policy. Like delay, a real-network-only fault.
    pub fn set_duplicate_all(&mut self, p: Probability) {
        self.write_all(WorkerCommand::Duplicate(p));
    }

    /// Whether `id`'s worker process is still believed alive.
    pub fn alive(&self, id: ProcessId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.alive)
    }

    /// Hard-kills one worker process (SIGKILL — no cooperative
    /// shutdown, no metrics report). Peers' sends to it will draw ICMP
    /// port-unreachable, which the transport treats as loss.
    pub fn kill(&mut self, id: ProcessId) {
        if let Some(node) = self.nodes.get_mut(&id) {
            let _ = node.child.kill();
            let _ = node.child.wait();
            node.alive = false;
        }
    }

    /// Respawns a previously killed worker on its **original** port, so
    /// the other workers' address books stay valid. The new process
    /// starts from blank protocol state (a real crash+restart, unlike
    /// the cooperative crash window) and gets a fresh address book.
    ///
    /// # Errors
    ///
    /// Fails if the worker cannot be spawned, does not report `READY`
    /// in time, or comes back on a different address.
    pub fn restart(&mut self, id: ProcessId) -> Result<(), NetError> {
        let addr = *self.addrs.get(&id).ok_or(NetError::UnknownPeer(id))?;
        self.spawn_worker(id, addr)?;
        let deadline = monotonic_now() + self.options.handshake_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(monotonic_now());
            match self.events_rx.recv_timeout(remaining) {
                Ok((from, WorkerEvent::Ready(ready_addr))) if from == id => {
                    if ready_addr != addr {
                        return Err(NetError::Invalid(
                            "restarted worker bound a different address",
                        ));
                    }
                    break;
                }
                Ok((from, event)) => self.absorb(from, event),
                Err(_) => {
                    return Err(NetError::Invalid(
                        "restarted UDP cluster worker did not report READY in time",
                    ))
                }
            }
        }
        let book = self.peers_line(id);
        self.write_line(id, &book);
        Ok(())
    }

    /// Waits out the settle window (in-flight datagrams and deliveries
    /// drain), stops every worker, and folds their final deliveries,
    /// metrics and audits into the accumulated state.
    fn stop(&mut self) {
        self.session.settle(self.options.settle);
        self.write_all(WorkerCommand::Stop);
        // Each live worker answers STOP with metrics + DONE and exits;
        // readers signal Exited on EOF. Give the slowest a generous but
        // bounded window.
        let deadline = monotonic_now() + self.options.handshake_timeout;
        let mut finished: BTreeSet<ProcessId> = self
            .nodes
            .iter()
            .filter(|(_, n)| !n.alive)
            .map(|(&id, _)| id)
            .collect();
        while finished.len() < self.nodes.len() {
            let remaining = deadline.saturating_duration_since(monotonic_now());
            match self.events_rx.recv_timeout(remaining) {
                Ok((id, WorkerEvent::Exited)) => {
                    finished.insert(id);
                    self.absorb(id, WorkerEvent::Exited);
                }
                Ok((id, event)) => self.absorb(id, event),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for node in self.nodes.values_mut() {
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
        self.pump();
    }

    /// Settles, stops every worker, and hands back everything the
    /// cluster saw.
    pub fn finish(mut self) -> ClusterReport {
        self.stop();
        ClusterReport {
            observed: self.observed(),
            delivered_ids: self.delivered_ids.clone(),
            malformed_frames: self.malformed,
        }
    }
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        self.abort();
    }
}

/// [`FaultSink`] over a live cluster: loss overrides fan out to both
/// link endpoints' chaos policies (each worker applies egress loss on
/// its own side), crashes and lies become windows in the target
/// worker's node runtime. The per-variant fault semantics live in
/// [`FaultAction::apply`](diffuse_core::scenario::FaultAction::apply) —
/// the same code path as on every other executor.
impl FaultSink for UdpCluster {
    fn set_loss(&mut self, link: LinkId, loss: Probability) {
        let command = WorkerCommand::Loss(link, loss);
        self.write_line(link.lo(), &command);
        self.write_line(link.hi(), &command);
    }

    fn force_down(&mut self, process: ProcessId, down_ticks: u64) {
        self.write_line(process, &WorkerCommand::Crash(down_ticks));
    }

    fn inject_corrupt(&mut self, process: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        self.write_line(process, &WorkerCommand::Corrupt(mode, window))
    }

    fn set_message_adversary(&mut self, d: u32, window: u64) -> bool {
        // A cluster-wide policy: every worker's chaos layer suppresses
        // its own egress. Reaching any live worker counts as executed —
        // dead workers have no emissions left to suppress.
        self.write_all(WorkerCommand::Adversary(d, window))
    }
}

/// The cluster as an [`Executor`]: a script tick is a real sleep on the
/// parent, after which whatever the workers reported meanwhile is folded
/// in; deliveries are unique `(origin, seq)` broadcasts per process, and
/// metrics and audits arrive when the workers stop.
impl Executor for UdpCluster {
    fn now(&self) -> SimTime {
        self.tick
    }

    fn advance(&mut self, ticks: u64) {
        self.tick += ticks;
        self.session.sleep_until(self.tick);
        self.pump();
    }

    /// A worker retries a broadcast it cannot issue yet inside its node
    /// runtime, so the only failure visible from here is a dead worker.
    fn issue(&mut self, origin: ProcessId, payload: &Payload) -> BroadcastOutcome {
        if self.broadcast(origin, payload.as_bytes()) {
            BroadcastOutcome::Issued
        } else {
            BroadcastOutcome::Failed
        }
    }

    fn observed(&self) -> Observed {
        Observed {
            delivered: self
                .delivered_ids
                .iter()
                .map(|(&id, set)| (id, set.len() as u64))
                .collect(),
            audits: self.audits.clone(),
            suppressed: self.suppressed,
            metrics: self.metrics.clone(),
        }
    }
}

/// Runs `scenario` on a multi-process UDP cluster and reports
/// deliveries — the same contract as
/// [`run_scenario_on_fabric`](crate::run_scenario_on_fabric), one
/// substrate further out: real processes, real sockets, real loss.
///
/// Metrics are best effort and **not kernel-comparable** (real
/// scheduling, per-node RNG streams, delivered-at-transport-release
/// semantics); delivery counts are unique `(origin, seq)` broadcasts
/// per process. Every fault executes — loss and partitions at the
/// transport, crashes cooperatively in the worker runtimes — so
/// `skipped_faults` is zero.
///
/// # Errors
///
/// Fails only at launch (see [`UdpCluster::launch`] — most commonly a
/// missing [`maybe_run_udp_worker`] hook in the host binary).
pub fn run_scenario_on_udp_cluster(
    scenario: &Scenario,
    options: UdpClusterOptions,
    protocol: ProtocolSpec,
) -> Result<ScenarioReport, NetError> {
    let cluster = UdpCluster::launch(
        &scenario.topology,
        &scenario.config,
        scenario.seed,
        protocol,
        options,
    )?;
    let mut run = ScenarioRun::over(scenario, cluster);
    run.run_ticks(options.run_ticks);
    run.sim_mut().stop();
    Ok(run.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn node_spec_round_trips() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        topology.add_link(p(1), p(2)).unwrap();
        topology.add_process(p(7));
        let mut config = Configuration::new();
        config.set_loss(
            LinkId::new(p(0), p(1)).unwrap(),
            Probability::new(0.0625).unwrap(),
        );
        for protocol in [
            ProtocolSpec::Gossip {
                steps: 40,
                step_period: 2,
            },
            ProtocolSpec::Optimal { k: 0.9995 },
            ProtocolSpec::Adaptive,
        ] {
            let spec = NodeSpec {
                id: p(1),
                clock: WallClock::new(Duration::from_micros(2500)),
                seed: 0xDEAD_BEEF,
                bind: "127.0.0.1:34567".parse().unwrap(),
                protocol,
                topology: topology.clone(),
                config: config.clone(),
            };
            let decoded = NodeSpec::decode(&spec.encode()).unwrap();
            assert_eq!(decoded.id, spec.id);
            assert_eq!(decoded.clock, spec.clock);
            assert_eq!(decoded.seed, spec.seed);
            assert_eq!(decoded.bind, spec.bind);
            assert_eq!(decoded.protocol, spec.protocol);
            assert_eq!(decoded.topology, spec.topology);
            let link = LinkId::new(p(0), p(1)).unwrap();
            assert_eq!(decoded.config.loss(link), config.loss(link));
        }
    }

    /// A sub-millisecond `tick_interval` reaches the worker clamped like
    /// the parent's own session, so a scripted window of `w` ticks lasts
    /// `w` of the ticks the node's runtime actually counts.
    #[test]
    fn node_spec_carries_the_clamped_tick() {
        let spec = NodeSpec::decode("1|0|200|2|127.0.0.1:1|adaptive|0||").unwrap();
        assert_eq!(spec.clock.tick_interval(), Duration::from_millis(1));
    }

    #[test]
    fn node_spec_rejects_garbage() {
        for bad in [
            "",
            "2|0|1|2|127.0.0.1:1|adaptive|0|", // wrong version / shape
            "1|0|1|2|nonsense|adaptive|0||",
            "1|0|1|2|127.0.0.1:1|warp-drive|0||",
            "1|x|1|2|127.0.0.1:1|adaptive|0||",
        ] {
            assert!(NodeSpec::decode(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digit");
    }

    /// Every command survives the trip down a worker's stdin: what the
    /// parent writes is the hand-written line, and the worker reads it
    /// back as the command.
    #[test]
    fn control_commands_parse() {
        let half = Probability::new(0.5).unwrap();
        let ms = Duration::from_millis;
        for (line, command) in [
            ("BCAST 68690a", WorkerCommand::Broadcast(b"hi\n".to_vec())),
            ("BCAST ", WorkerCommand::Broadcast(Vec::new())),
            ("CRASH 40", WorkerCommand::Crash(40)),
            (
                "LOSS 0 3 0.5",
                WorkerCommand::Loss(LinkId::new(p(3), p(0)).unwrap(), half),
            ),
            (
                "DELAY 1000 5000",
                WorkerCommand::Delay(Some((ms(1), ms(5)))),
            ),
            ("DELAY off", WorkerCommand::Delay(None)),
            (
                "DUP 0.25",
                WorkerCommand::Duplicate(Probability::new(0.25).unwrap()),
            ),
            (
                "CORRUPT understate 40",
                WorkerCommand::Corrupt(CorruptionMode::UnderstateDistortion, 40),
            ),
            (
                "CORRUPT stale 7",
                WorkerCommand::Corrupt(CorruptionMode::StaleReplay, 7),
            ),
            (
                "CORRUPT forge-ack 12",
                WorkerCommand::Corrupt(CorruptionMode::ForgeAck, 12),
            ),
            ("ADV 2 30", WorkerCommand::Adversary(2, 30)),
            ("STOP", WorkerCommand::Stop),
        ] {
            assert_eq!(parse_command(line).unwrap(), command, "{line:?}");
            assert_eq!(command.to_string(), line);
        }
        assert!(parse_command("FLY me to the moon").is_err());
        assert!(parse_command("LOSS 3 3 0.5").is_err(), "self-loop");
        assert!(parse_command("CORRUPT warp-drive 4").is_err());
    }

    #[test]
    fn worker_events_parse() {
        assert!(matches!(
            parse_event("READY 127.0.0.1:4242"),
            Some(WorkerEvent::Ready(_))
        ));
        assert!(matches!(
            parse_event("D 3 7"),
            Some(WorkerEvent::Delivery(origin, 7)) if origin == p(3)
        ));
        assert!(matches!(
            parse_event("M SENT 0 1 data 12"),
            Some(WorkerEvent::Sent(_, "data", 12))
        ));
        assert!(matches!(
            parse_event("M DELIV heartbeat 3"),
            Some(WorkerEvent::Delivered("heartbeat", 3))
        ));
        assert!(matches!(
            parse_event("M LOST 9"),
            Some(WorkerEvent::Lost(9))
        ));
        assert!(matches!(
            parse_event("M SUPP 4"),
            Some(WorkerEvent::Suppressed(4))
        ));
        assert!(matches!(
            parse_event("A CE 11"),
            Some(WorkerEvent::AuditEmissions(11))
        ));
        assert!(matches!(
            parse_event("A FUT 3"),
            Some(WorkerEvent::AuditFuture(3))
        ));
        assert!(matches!(
            parse_event("A S 2 10 4 0"),
            Some(WorkerEvent::AuditSender(sender, 10, 4, 0)) if sender == p(2)
        ));
        assert!(matches!(
            parse_event("MAL 2"),
            Some(WorkerEvent::Malformed(2))
        ));
        assert!(matches!(
            parse_event("DONE 31"),
            Some(WorkerEvent::Done(31))
        ));
        assert!(parse_event("gibberish line").is_none());
    }

    #[test]
    fn protocol_spec_builds_every_variant() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let config = Configuration::new();
        for spec in [
            ProtocolSpec::Gossip {
                steps: 3,
                step_period: 1,
            },
            ProtocolSpec::Optimal { k: 0.99 },
            ProtocolSpec::Adaptive,
        ] {
            let protocol = spec.build(p(0), &topology, &config);
            assert_eq!(protocol.id(), p(0));
            assert!(protocol.delivered().is_empty());
        }
    }
}
