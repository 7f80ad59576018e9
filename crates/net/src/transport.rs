//! The transport abstraction and the in-memory fabric.
//!
//! A transport moves frames; it injects no faults. Loss, delay,
//! duplication and suppression belong to the one faulty wire,
//! [`ChaosTransport`](crate::ChaosTransport), which wraps either
//! implementation.

use std::collections::BTreeMap;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use diffuse_model::{ProcessId, Topology};

use crate::NetError;

/// A point-to-point frame transport bound to one process.
///
/// Implementations: [`FabricTransport`] (in-memory channels between
/// threads), [`UdpTransport`](crate::UdpTransport) (real sockets) and
/// [`ChaosTransport`](crate::ChaosTransport) (either of them behind a
/// seeded fault policy).
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

/// What travels through a fabric channel: the sender and its frame.
type Inbox = Sender<(ProcessId, Vec<u8>)>;

/// A lossless in-memory network connecting a set of [`FabricTransport`]s
/// through crossbeam channels, one inbox per process.
///
/// Frames are only deliverable along topology links, and every frame a
/// live neighbour is sent arrives, in order. The paper's link model —
/// each transmission lost with its link's probability — is
/// [`ChaosTransport::for_node`](crate::ChaosTransport::for_node) around
/// an endpoint, the same wrapper a UDP socket gets.
///
/// # Example
///
/// ```
/// use diffuse_model::{ProcessId, Topology};
/// use diffuse_net::{Fabric, Transport};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut topology = Topology::new();
/// topology.add_link(ProcessId::new(0), ProcessId::new(1))?;
/// let mut transports = Fabric::build(&topology);
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
    /// Builds one endpoint per process of `topology`.
    pub fn build(topology: &Topology) -> BTreeMap<ProcessId, FabricTransport> {
        let mut inboxes: BTreeMap<ProcessId, Inbox> = BTreeMap::new();
        let mut receivers = Vec::new();
        for p in topology.processes() {
            let (tx, rx) = unbounded();
            inboxes.insert(p, tx);
            receivers.push((p, rx));
        }
        receivers
            .into_iter()
            .map(|(id, receiver)| {
                let endpoint = FabricTransport {
                    id,
                    neighbours: topology
                        .neighbors(id)
                        .map(|n| (n, inboxes[&n].clone()))
                        .collect(),
                    _inbox: inboxes[&id].clone(),
                    receiver,
                };
                (id, endpoint)
            })
            .collect()
    }
}

/// One endpoint of a [`Fabric`].
#[derive(Debug)]
pub struct FabricTransport {
    id: ProcessId,
    /// The inboxes this endpoint may send to: its topology neighbours'.
    neighbours: BTreeMap<ProcessId, Inbox>,
    /// Keeps the endpoint's own channel open after its last neighbour is
    /// gone: a node without peers idles, it does not see `Closed`.
    _inbox: Inbox,
    receiver: Receiver<(ProcessId, Vec<u8>)>,
}

impl Transport for FabricTransport {
    fn local_id(&self) -> ProcessId {
        self.id
    }

    fn send(&self, to: ProcessId, frame: &[u8]) -> Result<(), NetError> {
        let inbox = self.neighbours.get(&to).ok_or(NetError::UnknownPeer(to))?;
        inbox
            .send((self.id, frame.to_vec()))
            .map_err(|_| NetError::Closed)
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ProcessId, Vec<u8>)>, NetError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
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
        let mut map = Fabric::build(&topology);
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
        let (_, f2) = b.recv_timeout(Duration::ZERO).unwrap().unwrap();
        assert_eq!(f2, b"two");
        assert!(b.recv_timeout(Duration::ZERO).unwrap().is_none());
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
        let mut map = Fabric::build(&topology);
        let a = map.remove(&p(0)).unwrap();
        assert!(matches!(a.send(p(2), b"x"), Err(NetError::UnknownPeer(_))));
        assert!(matches!(a.send(p(0), b"x"), Err(NetError::UnknownPeer(_))));
        assert!(matches!(a.send(p(9), b"x"), Err(NetError::UnknownPeer(_))));
    }

    /// An endpoint outlives its neighbours: with every peer gone it times
    /// out like an idle one, and sending to the departed says `Closed`.
    #[test]
    fn an_endpoint_without_live_peers_idles() {
        let (a, mut b) = pair();
        drop(a);
        assert!(b.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
        assert!(matches!(b.send(p(0), b"x"), Err(NetError::Closed)));
    }
}
