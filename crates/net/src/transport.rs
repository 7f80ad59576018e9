//! The transport abstraction and the lossy in-memory fabric.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{LossBatcher, Metrics};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::codec::frame_kind;
use crate::NetError;

/// A point-to-point frame transport bound to one process.
///
/// Implementations: [`FabricTransport`] (in-memory, lossy, for tests and
/// multi-threaded demos) and [`UdpTransport`](crate::UdpTransport) (real
/// sockets).
pub trait Transport: Send {
    /// The local process identity.
    fn local_id(&self) -> ProcessId;

    /// Sends one frame to a peer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownPeer`] for unreachable destinations and
    /// transport-specific errors otherwise. A *lost* frame (loss
    /// injection, unreliable medium) is not an error.
    fn send(&self, to: ProcessId, frame: &[u8]) -> Result<(), NetError>;

    /// Receives the next frame, waiting up to `timeout`.
    ///
    /// Returns `Ok(None)` on timeout. Takes `&mut self` so
    /// implementations can keep receive-path state without interior
    /// mutability — a reusable datagram buffer and cached socket timeout
    /// ([`UdpTransport`](crate::UdpTransport)), or a delayed-frame
    /// hold-back queue ([`ChaosTransport`](crate::ChaosTransport)).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] once the transport cannot produce
    /// further frames.
    fn recv_timeout(&mut self, timeout: Duration)
        -> Result<Option<(ProcessId, Vec<u8>)>, NetError>;
}

/// Shared state of the in-memory fabric.
#[derive(Debug)]
struct FabricShared {
    topology: Topology,
    loss: Mutex<Configuration>,
    /// The loss generator and its batched run-length sampler, under one
    /// lock — they are only ever used together, per send.
    rng: Mutex<(StdRng, LossBatcher)>,
    inboxes: BTreeMap<ProcessId, Sender<(ProcessId, Vec<u8>)>>,
    /// Transport-level wire counters (sent / lost /
    /// enqueued-as-delivered per kind and link). Best effort: see
    /// [`FabricControl::metrics`] for the caveats.
    metrics: Mutex<Metrics>,
}

/// A lossy in-memory network connecting a set of [`FabricTransport`]s
/// through crossbeam channels.
///
/// Frames are only deliverable along topology links, and each
/// transmission is dropped with the link's configured loss probability —
/// the same model as the simulator, but running on real threads.
///
/// # Example
///
/// ```
/// use diffuse_model::{Configuration, ProcessId, Topology};
/// use diffuse_net::{Fabric, Transport};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut topology = Topology::new();
/// topology.add_link(ProcessId::new(0), ProcessId::new(1))?;
/// let mut transports = Fabric::build(&topology, Configuration::new(), 7);
/// let mut t1 = transports.remove(&ProcessId::new(1)).unwrap();
/// let t0 = transports.remove(&ProcessId::new(0)).unwrap();
///
/// t0.send(ProcessId::new(1), b"ping")?;
/// let (from, frame) = t1.recv_timeout(Duration::from_secs(1))?.unwrap();
/// assert_eq!(from, ProcessId::new(0));
/// assert_eq!(frame, b"ping");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fabric;

impl Fabric {
    /// Builds one transport per process of `topology`, with loss
    /// probabilities from `loss` and a deterministic drop pattern seeded
    /// by `seed`.
    pub fn build(
        topology: &Topology,
        loss: Configuration,
        seed: u64,
    ) -> BTreeMap<ProcessId, FabricTransport> {
        Fabric::build_with_control(topology, loss, seed).0
    }

    /// Like [`Fabric::build`], additionally returning a [`FabricControl`]
    /// that can change link loss at runtime from *outside* the nodes —
    /// the handle fault scripts use after every transport has been moved
    /// into its node thread.
    pub fn build_with_control(
        topology: &Topology,
        loss: Configuration,
        seed: u64,
    ) -> (BTreeMap<ProcessId, FabricTransport>, FabricControl) {
        let mut inboxes = BTreeMap::new();
        let mut receivers = BTreeMap::new();
        for p in topology.processes() {
            let (tx, rx) = unbounded();
            inboxes.insert(p, tx);
            receivers.insert(p, rx);
        }
        let shared = Arc::new(FabricShared {
            topology: topology.clone(),
            loss: Mutex::new(loss),
            rng: Mutex::new((StdRng::seed_from_u64(seed), LossBatcher::new())),
            inboxes,
            metrics: Mutex::new(Metrics::new()),
        });
        let transports = receivers
            .into_iter()
            .map(|(id, receiver)| {
                (
                    id,
                    FabricTransport {
                        id,
                        shared: Arc::clone(&shared),
                        receiver,
                    },
                )
            })
            .collect();
        (transports, FabricControl { shared })
    }
}

/// An out-of-band control handle over a [`Fabric`]'s link configuration
/// (fault injection for scenario scripts).
#[derive(Debug, Clone)]
pub struct FabricControl {
    shared: Arc<FabricShared>,
}

impl FabricControl {
    /// Changes a link's loss probability for all future transmissions.
    pub fn set_loss(&self, link: LinkId, p: Probability) {
        self.shared.loss.lock().set_loss(link, p);
    }

    /// The fabric's topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// A snapshot of the fabric's transport-level wire counters.
    ///
    /// **Best effort, not kernel-comparable:** the wall-clock fabric
    /// rides a different RNG stream and real thread scheduling, a frame
    /// counts as *delivered* when it is enqueued to the peer's inbox
    /// (the transport cannot see cooperative crash windows, which drop
    /// frames inside the node runtime), and there is no
    /// receiver-down accounting. Useful for dashboards and sanity
    /// checks; use [`run_scenario_on_fabric_virtual`](crate::run_scenario_on_fabric_virtual)
    /// for bit-exact metrics.
    pub fn metrics(&self) -> Metrics {
        self.shared.metrics.lock().clone()
    }
}

/// One endpoint of a [`Fabric`].
#[derive(Debug)]
pub struct FabricTransport {
    id: ProcessId,
    shared: Arc<FabricShared>,
    receiver: Receiver<(ProcessId, Vec<u8>)>,
}

impl FabricTransport {
    /// Changes a link's loss probability at runtime (fault injection).
    pub fn set_loss(&self, link: LinkId, p: Probability) {
        self.shared.loss.lock().set_loss(link, p);
    }

    /// Drains any immediately available frame without blocking.
    pub fn try_recv(&self) -> Result<Option<(ProcessId, Vec<u8>)>, NetError> {
        match self.receiver.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }
}

impl Transport for FabricTransport {
    fn local_id(&self) -> ProcessId {
        self.id
    }

    fn send(&self, to: ProcessId, frame: &[u8]) -> Result<(), NetError> {
        // One metrics guard per send: every node thread shares this
        // mutex, so the hot path must not re-acquire it per counter.
        let Ok(link) = LinkId::new(self.id, to) else {
            self.shared.metrics.lock().record_invalid_batch(1);
            return Err(NetError::UnknownPeer(to));
        };
        if !self.shared.topology.contains_link(link) {
            self.shared.metrics.lock().record_invalid_batch(1);
            return Err(NetError::UnknownPeer(to));
        }
        let kind = frame_kind(frame);
        let loss = self.shared.loss.lock().loss(link);
        let lost = !loss.is_zero() && {
            let mut guard = self.shared.rng.lock();
            let (rng, runs) = &mut *guard;
            runs.should_drop(self.id, to, loss.value(), rng)
        };
        if lost {
            let mut metrics = self.shared.metrics.lock();
            metrics.record_sent_batch(link, kind, 1);
            metrics.record_lost();
            return Ok(()); // dropped on the (virtual) wire
        }
        let Some(inbox) = self.shared.inboxes.get(&to) else {
            return Err(NetError::UnknownPeer(to));
        };
        inbox
            .send((self.id, frame.to_vec()))
            .map_err(|_| NetError::Closed)?;
        // "Delivered" = enqueued to the peer's inbox (see
        // FabricControl::metrics for why this is best effort).
        let mut metrics = self.shared.metrics.lock();
        metrics.record_sent_batch(link, kind, 1);
        metrics.record_delivered(kind);
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ProcessId, Vec<u8>)>, NetError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn pair() -> (FabricTransport, FabricTransport) {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let mut map = Fabric::build(&topology, Configuration::new(), 1);
        let b = map.remove(&p(1)).unwrap();
        let a = map.remove(&p(0)).unwrap();
        (a, b)
    }

    #[test]
    fn frames_travel_between_endpoints() {
        let (a, mut b) = pair();
        assert_eq!(a.local_id(), p(0));
        a.send(p(1), b"one").unwrap();
        a.send(p(1), b"two").unwrap();
        let (from, f1) = b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!((from, f1.as_slice()), (p(0), &b"one"[..]));
        let (_, f2) = b.try_recv().unwrap().unwrap();
        assert_eq!(f2, b"two");
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn timeout_returns_none() {
        let (_a, mut b) = pair();
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn non_links_are_rejected() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        topology.add_process(p(2));
        let mut map = Fabric::build(&topology, Configuration::new(), 1);
        let a = map.remove(&p(0)).unwrap();
        assert!(matches!(a.send(p(2), b"x"), Err(NetError::UnknownPeer(_))));
        assert!(matches!(a.send(p(0), b"x"), Err(NetError::UnknownPeer(_))));
        assert!(matches!(a.send(p(9), b"x"), Err(NetError::UnknownPeer(_))));
    }

    #[test]
    fn loss_injection_drops_frames() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let link = LinkId::new(p(0), p(1)).unwrap();
        let mut loss = Configuration::new();
        loss.set_loss(link, Probability::ONE);
        let mut map = Fabric::build(&topology, loss, 1);
        let mut b = map.remove(&p(1)).unwrap();
        let a = map.remove(&p(0)).unwrap();

        a.send(p(1), b"gone").unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).unwrap().is_none());

        // Heal the link at runtime.
        a.set_loss(link, Probability::ZERO);
        a.send(p(1), b"back").unwrap();
        let (_, frame) = b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(frame, b"back");
    }

    #[test]
    fn partial_loss_is_statistical() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let mut loss = Configuration::new();
        loss.set_loss(
            LinkId::new(p(0), p(1)).unwrap(),
            Probability::new(0.5).unwrap(),
        );
        let mut map = Fabric::build(&topology, loss, 99);
        let b = map.remove(&p(1)).unwrap();
        let a = map.remove(&p(0)).unwrap();
        for _ in 0..1000 {
            a.send(p(1), b"x").unwrap();
        }
        let mut got = 0;
        while b.try_recv().unwrap().is_some() {
            got += 1;
        }
        assert!((350..=650).contains(&got), "received {got} of 1000");
    }
}
