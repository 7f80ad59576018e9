//! Binary wire codec for protocol messages.
//!
//! Hand-written, length-prefixed, little-endian encoding over [`bytes`].
//! No serde format crate is used: the container has no crates.io access
//! (README "Offline dependency shims"), and the format is a few dozen
//! lines, versioned, and property-tested for round-trips.
//!
//! Frame layout: `version:u8 | tag:u8 | body…` with tags
//! `1 = Data`, `2 = Gossip`, `3 = Ack`, `4 = Heartbeat`. A heartbeat's
//! body is `seq | ack | generation | base | entries`.
//!
//! Version 2 extended heartbeats with the delta-view machinery: full
//! heartbeats gained the piggybacked `ack` and the view `generation`,
//! and delta heartbeats (tag 5) carry only the entries changed since
//! their base generation — O(changes) to encode, decode and transmit.
//! Version 3 sends each estimate as its two counts instead of a belief
//! vector: 13 bytes an entry (distortion tag, distortion, failures,
//! successes), evaluated at the receiver's own interval count.
//! Version 4 drops the full view's topology section and the topology
//! version of both views: the sender's `Λ_k` is its link keys. Entry
//! keys are unique; a frame listing one twice is rejected.
//! Version 5 has one heartbeat layout: a full view is the view since
//! base 0, so it carries a base too (8 bytes more), and tag 5 is gone.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use diffuse_bayes::{Distortion, Offer};
use diffuse_core::{
    BroadcastId, DataMessage, GossipMessage, HeartbeatMessage, Message, Payload, ReliabilityTree,
    View, Wire,
};
use diffuse_model::{LinkId, ProcessId};
use diffuse_sim::SimMessage;

use crate::NetError;

/// Current wire-format version (5: one heartbeat layout, whole views
/// being the views since base 0).
pub const WIRE_VERSION: u8 = 5;

/// Safety cap on any decoded element count (processes, links, bytes).
const MAX_COUNT: usize = 1 << 20;

const TAG_DATA: u8 = 1;
const TAG_GOSSIP: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;

/// Encodes a protocol message into a standalone frame.
pub fn encode_message(message: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u8(WIRE_VERSION);
    match message {
        Message::Data(d) => {
            buf.put_u8(TAG_DATA);
            put_broadcast_id(&mut buf, d.id);
            put_bytes(&mut buf, d.payload.as_bytes());
            put_wire_tree(&mut buf, &d.tree);
        }
        Message::Gossip(g) => {
            buf.put_u8(TAG_GOSSIP);
            put_broadcast_id(&mut buf, g.id);
            put_bytes(&mut buf, g.payload.as_bytes());
            buf.put_u32_le(g.ttl);
        }
        Message::Ack { id } => {
            buf.put_u8(TAG_ACK);
            put_broadcast_id(&mut buf, *id);
        }
        Message::Heartbeat(h) => {
            buf.put_u8(TAG_HEARTBEAT);
            buf.put_u64_le(h.seq);
            buf.put_u64_le(h.ack);
            put_view(&mut buf, &h.view);
        }
    }
    buf.freeze()
}

/// Reads a frame's metric kind (`"data"` / `"ack"` / `"heartbeat"`,
/// matching [`SimMessage::kind`] on the decoded [`Message`]) from the
/// two-byte header alone, without decoding the body. Unknown or
/// truncated headers report the generic kind.
///
/// Used by both fabrics to account sent-message metrics at send time
/// exactly as the kernel does, without paying a full decode per send.
pub fn frame_kind(frame: &[u8]) -> &'static str {
    match frame {
        [WIRE_VERSION, TAG_DATA, ..] | [WIRE_VERSION, TAG_GOSSIP, ..] => "data",
        [WIRE_VERSION, TAG_ACK, ..] => "ack",
        [WIRE_VERSION, TAG_HEARTBEAT, ..] => "heartbeat",
        _ => "message",
    }
}

/// Decodes a frame produced by [`encode_message`].
///
/// # Errors
///
/// Returns [`NetError`] on truncated, malformed or version-mismatched
/// frames; decoding never panics on untrusted input.
pub fn decode_message(mut buf: &[u8]) -> Result<Message, NetError> {
    let version = get_u8(&mut buf)?;
    if version != WIRE_VERSION {
        return Err(NetError::BadVersion(version));
    }
    let tag = get_u8(&mut buf)?;
    let message = match tag {
        TAG_DATA => {
            let id = get_broadcast_id(&mut buf)?;
            let payload = Payload::from(get_bytes(&mut buf)?);
            let tree = get_wire_tree(&mut buf)?;
            Message::Data(DataMessage {
                id,
                payload,
                tree: Arc::new(tree),
            })
        }
        TAG_GOSSIP => {
            let id = get_broadcast_id(&mut buf)?;
            let payload = Payload::from(get_bytes(&mut buf)?);
            let ttl = get_u32(&mut buf)?;
            Message::Gossip(GossipMessage { id, payload, ttl })
        }
        TAG_ACK => Message::Ack {
            id: get_broadcast_id(&mut buf)?,
        },
        TAG_HEARTBEAT => {
            let seq = get_u64(&mut buf)?;
            let ack = get_u64(&mut buf)?;
            let view = get_view(&mut buf)?;
            Message::Heartbeat(HeartbeatMessage {
                seq,
                ack,
                view: Arc::new(view),
            })
        }
        other => return Err(NetError::BadTag(other)),
    };
    if !buf.is_empty() {
        return Err(NetError::Invalid("trailing bytes after message"));
    }
    Ok(message)
}

/// An encoded message in flight on the virtual-time fabric.
#[derive(Debug, Clone)]
pub(crate) struct Frame(Bytes);

impl SimMessage for Frame {
    fn kind(&self) -> &'static str {
        frame_kind(&self.0)
    }
}

/// The virtual-time fabric's [`Wire`]: a message is encoded where its
/// sender's handler emits it — so lost copies are encoded too — and what
/// the simulated network carries, counts and delivers is the frame.
#[derive(Debug)]
pub(crate) struct Encoded;

impl Wire for Encoded {
    type Frame = Frame;

    fn pack(message: Message) -> Frame {
        Frame(encode_message(&message))
    }

    /// Frames here never come from a network: one that does not decode
    /// is a codec bug, not hostile input, and must not be dropped quietly.
    fn unpack(frame: Frame) -> Message {
        decode_message(&frame.0).expect("a frame this process encoded decodes")
    }
}

// ---- primitive readers (bounds-checked) --------------------------------

fn get_u8(buf: &mut &[u8]) -> Result<u8, NetError> {
    if buf.remaining() < 1 {
        return Err(NetError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, NetError> {
    if buf.remaining() < 4 {
        return Err(NetError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, NetError> {
    if buf.remaining() < 8 {
        return Err(NetError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, NetError> {
    Ok(f64::from_bits(get_u64(buf)?))
}

fn get_count(buf: &mut &[u8]) -> Result<usize, NetError> {
    let n = get_u32(buf)? as usize;
    if n > MAX_COUNT {
        return Err(NetError::Invalid("count exceeds sanity limit"));
    }
    Ok(n)
}

// ---- composite fields ---------------------------------------------------

fn put_broadcast_id(buf: &mut BytesMut, id: BroadcastId) {
    buf.put_u32_le(id.origin.index());
    buf.put_u64_le(id.seq);
}

fn get_broadcast_id(buf: &mut &[u8]) -> Result<BroadcastId, NetError> {
    Ok(BroadcastId {
        origin: ProcessId::new(get_u32(buf)?),
        seq: get_u64(buf)?,
    })
}

fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, NetError> {
    let n = get_count(buf)?;
    if buf.remaining() < n {
        return Err(NetError::Truncated);
    }
    let out = buf[..n].to_vec();
    buf.advance(n);
    Ok(out)
}

fn put_wire_tree(buf: &mut BytesMut, tree: &ReliabilityTree) {
    let (root, nodes, parents, lambdas) = tree.parts();
    buf.put_u32_le(root.index());
    buf.put_u32_le(nodes.len() as u32);
    for n in nodes {
        buf.put_u32_le(n.index());
    }
    for p in parents {
        buf.put_u32_le(*p);
    }
    for l in lambdas {
        buf.put_u64_le(l.to_bits());
    }
}

fn get_wire_tree(buf: &mut &[u8]) -> Result<ReliabilityTree, NetError> {
    let root = ProcessId::new(get_u32(buf)?);
    let n = get_count(buf)?;
    if n == 0 {
        return Err(NetError::Invalid("empty tree"));
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(ProcessId::new(get_u32(buf)?));
    }
    let mut parents = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        parents.push(get_u32(buf)?);
    }
    let mut lambdas = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        lambdas.push(get_f64(buf)?);
    }
    // `from_parts` validates and yields a tree with an empty plan memo:
    // nothing derived in the sender's address space crosses the wire,
    // and this frame's receiver derives its own forwarding plan.
    ReliabilityTree::from_parts(root, nodes, parents, lambdas)
        .map_err(|_| NetError::Invalid("malformed wire tree"))
}

fn put_offer(buf: &mut BytesMut, offer: &Offer) {
    match offer.distortion() {
        Distortion::Finite(v) => {
            buf.put_u8(0);
            buf.put_u32_le(v);
        }
        Distortion::Infinite => {
            buf.put_u8(1);
            buf.put_u32_le(0);
        }
    }
    buf.put_u32_le(offer.failures());
    buf.put_u32_le(offer.successes());
}

fn get_offer(buf: &mut &[u8]) -> Result<Offer, NetError> {
    let infinite = match get_u8(buf)? {
        0 => false,
        1 => true,
        _ => return Err(NetError::Invalid("bad distortion tag")),
    };
    let value = get_u32(buf)?;
    let distortion = if infinite {
        Distortion::Infinite
    } else {
        Distortion::finite(value)
    };
    let failures = get_u32(buf)?;
    let successes = get_u32(buf)?;
    Ok(Offer::new(failures, successes, distortion))
}

fn put_view(buf: &mut BytesMut, view: &View) {
    buf.put_u64_le(view.generation);
    buf.put_u64_le(view.base);
    buf.put_u32_le(view.processes.len() as u32);
    for (p, e) in &view.processes {
        buf.put_u32_le(p.index());
        put_offer(buf, e);
    }
    buf.put_u32_le(view.links.len() as u32);
    for (l, e) in &view.links {
        buf.put_u32_le(l.lo().index());
        buf.put_u32_le(l.hi().index());
        put_offer(buf, e);
    }
}

/// Reads a view whose two entry lists are each sorted by key — the
/// invariant receivers merge-join on, kept even against a hostile
/// encoder — with every key listed once.
fn get_view(buf: &mut &[u8]) -> Result<View, NetError> {
    let generation = get_u64(buf)?;
    let base = get_u64(buf)?;
    let n_pe = get_count(buf)?;
    let mut processes = Vec::with_capacity(n_pe);
    for _ in 0..n_pe {
        let p = ProcessId::new(get_u32(buf)?);
        processes.push((p, get_offer(buf)?));
    }
    let n_le = get_count(buf)?;
    let mut links = Vec::with_capacity(n_le);
    for _ in 0..n_le {
        let a = ProcessId::new(get_u32(buf)?);
        let b = ProcessId::new(get_u32(buf)?);
        let link = LinkId::new(a, b).map_err(|_| NetError::Invalid("self-loop link"))?;
        links.push((link, get_offer(buf)?));
    }
    processes.sort_by_key(|(p, _)| *p);
    links.sort_by_key(|(l, _)| *l);
    if processes.windows(2).any(|w| w[0].0 == w[1].0) || links.windows(2).any(|w| w[0].0 == w[1].0)
    {
        return Err(NetError::Invalid("repeated entry key"));
    }
    Ok(View {
        generation,
        base,
        processes,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_bayes::Estimate;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample_id() -> BroadcastId {
        BroadcastId {
            origin: p(3),
            seq: 42,
        }
    }

    fn sample_tree() -> ReliabilityTree {
        ReliabilityTree::from_parts(p(0), vec![p(0), p(1), p(2)], vec![0, 1], vec![0.25, 0.01])
            .unwrap()
    }

    fn sample_view() -> View {
        let mut est = Estimate::first_hand(5);
        est.beliefs_mut().decrease_reliability(1);
        View {
            generation: 12,
            base: 0,
            processes: vec![(p(0), est.offer()), (p(1), Estimate::unknown(5).offer())],
            links: vec![(LinkId::new(p(0), p(1)).unwrap(), est.offer())],
        }
    }

    /// A full view of ring(`n`): every process and every link offered.
    fn ring_view(n: u32) -> View {
        let mut est = Estimate::first_hand(100);
        est.beliefs_mut().decrease_reliability(3);
        est.beliefs_mut().increase_reliability(40);
        let mut links: Vec<(LinkId, Offer)> = (0..n)
            .map(|i| (LinkId::new(p(i), p((i + 1) % n)).unwrap(), est.offer()))
            .collect();
        links.sort_by_key(|(l, _)| *l);
        View {
            generation: 5,
            base: 0,
            processes: (0..n).map(|i| (p(i), est.offer())).collect(),
            links,
        }
    }

    fn sample_delta() -> View {
        let mut est = Estimate::first_hand(5);
        est.beliefs_mut().increase_reliability(2);
        View {
            generation: 13,
            base: 12,
            processes: vec![(p(1), est.offer())],
            links: vec![(LinkId::new(p(0), p(1)).unwrap(), est.offer())],
        }
    }

    #[test]
    fn round_trip_every_variant() {
        let messages = [
            Message::Data(DataMessage {
                id: sample_id(),
                payload: Payload::from("hello world"),
                tree: Arc::new(sample_tree()),
            }),
            Message::Gossip(GossipMessage {
                id: sample_id(),
                payload: Payload::from(&b"\x00\xff\x80"[..]),
                ttl: 9,
            }),
            Message::Ack { id: sample_id() },
            Message::Heartbeat(HeartbeatMessage {
                seq: 1234567,
                ack: 11,
                view: Arc::new(sample_view()),
            }),
            Message::Heartbeat(HeartbeatMessage {
                seq: 1234568,
                ack: 12,
                view: Arc::new(sample_delta()),
            }),
        ];
        for message in messages {
            let frame = encode_message(&message);
            let back = decode_message(&frame).expect("round trip");
            assert_eq!(back, message);
        }
    }

    /// The plan memo on a wire tree is no part of the frame: a tree
    /// whose memo was filled (seeded by the origin, then used by a
    /// receiver) encodes to the bytes of its never-used decoded twin,
    /// compares and prints equal to it, and a receiver handed the
    /// decoded copy forwards exactly what a receiver of the in-process
    /// instance forwards.
    #[test]
    fn plan_memo_never_reaches_the_wire() {
        use diffuse_core::{Actions, NetworkKnowledge, OptimalBroadcast, Protocol};
        use diffuse_model::{Configuration, Probability, Topology};
        use diffuse_sim::SimTime;

        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_link(p(1), p(2)).unwrap();
        g.add_link(p(1), p(3)).unwrap();
        let c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.2).unwrap());
        let node =
            |i| OptimalBroadcast::new(p(i), NetworkKnowledge::exact(g.clone(), c.clone()), 0.999);

        let mut actions = Actions::new();
        node(0)
            .broadcast(SimTime::ZERO, Payload::from("m"), &mut actions)
            .unwrap();
        let (_, in_process) = actions.take_sends().remove(0);
        let pristine = encode_message(&in_process);
        let decoded = decode_message(&pristine).expect("round trip");

        let forwards = |message: &Message| {
            let mut actions = Actions::new();
            node(1).handle_message(SimTime::new(1), p(0), message.clone(), &mut actions);
            actions.take_sends()
        };
        let from_shared = forwards(&in_process);
        assert!(!from_shared.is_empty());
        assert_eq!(forwards(&decoded), from_shared);
        // Both trees have now served a receiver; neither changed.
        assert_eq!(encode_message(&in_process), pristine);
        assert_eq!(encode_message(&decoded), pristine);
        assert_eq!(decoded, in_process);
        assert_eq!(format!("{decoded:?}"), format!("{in_process:?}"));
    }

    /// A data frame whose tree is well-formed but out of canonical order
    /// is refused like any other malformed tree.
    #[test]
    fn trees_out_of_canonical_order_are_rejected() {
        let frame = |nodes: &[u32], parents: &[u32]| {
            let mut buf = BytesMut::new();
            buf.put_u8(WIRE_VERSION);
            buf.put_u8(TAG_DATA);
            put_broadcast_id(&mut buf, sample_id());
            put_bytes(&mut buf, b"m");
            buf.put_u32_le(nodes[0]);
            buf.put_u32_le(nodes.len() as u32);
            for &n in nodes {
                buf.put_u32_le(n);
            }
            for &q in parents {
                buf.put_u32_le(q);
            }
            for _ in parents {
                buf.put_u64_le(0.1f64.to_bits());
            }
            buf.freeze()
        };
        // 0 → {1, 2}, 1 → {3, 4} in canonical order decodes.
        assert!(decode_message(&frame(&[0, 1, 2, 3, 4], &[0, 0, 1, 1])).is_ok());
        let hostile: [(&[u32], &[u32]); 3] = [
            (&[0, 2, 1, 3, 4], &[0, 0, 2, 2]), // descending siblings
            (&[0, 1, 3, 2, 4], &[0, 1, 0, 1]), // a decreasing parent
            (&[0, 2, 1, 4, 3], &[0, 0, 2, 2]), // shuffled positions
        ];
        for (nodes, parents) in hostile {
            assert!(matches!(
                decode_message(&frame(nodes, parents)),
                Err(NetError::Invalid("malformed wire tree"))
            ));
        }
    }

    /// A delta frame of one changed entry is far smaller than the full
    /// view it patches — the wire-cost win delta heartbeats exist for.
    #[test]
    fn delta_frames_are_smaller_than_full_frames() {
        let full = encode_message(&Message::Heartbeat(HeartbeatMessage {
            seq: 1,
            ack: 0,
            view: Arc::new(ring_view(8)),
        }));
        let mut delta = sample_delta();
        delta.links.clear();
        let delta = encode_message(&Message::Heartbeat(HeartbeatMessage {
            seq: 2,
            ack: 1,
            view: Arc::new(delta),
        }));
        assert!(
            delta.len() * 2 < full.len(),
            "delta {} vs full {}",
            delta.len(),
            full.len()
        );
    }

    /// A frame listing one entry key twice is rejected, at base 0 and at
    /// a later base, for a process and for a link: a receiver would
    /// otherwise mirror the entry twice and count it twice.
    #[test]
    fn repeated_entry_keys_are_rejected() {
        let heartbeat = |view| {
            encode_message(&Message::Heartbeat(HeartbeatMessage {
                seq: 7,
                ack: 1,
                view,
            }))
        };
        let mut frames = Vec::new();
        for twice in [false, true] {
            let (mut view, mut delta) = (sample_view(), sample_delta());
            if twice {
                view.links.push(view.links[0]);
                delta.links.push(delta.links[0]);
            } else {
                view.processes.push(view.processes[1]);
                delta.processes.push(delta.processes[0]);
            }
            frames.push(heartbeat(Arc::new(view)));
            frames.push(heartbeat(Arc::new(delta)));
        }
        for frame in frames {
            assert!(matches!(
                decode_message(&frame),
                Err(NetError::Invalid("repeated entry key"))
            ));
        }
    }

    /// `wire_size` is the length of the frame the codec writes, at base 0
    /// and at a later base.
    #[test]
    fn wire_sizes_are_encoded_lengths() {
        let mut wide = sample_view();
        wide.processes
            .push((p(9), Estimate::first_hand(100).offer()));
        for view in [sample_view(), wide] {
            let full = Message::Heartbeat(HeartbeatMessage {
                seq: 3,
                ack: 2,
                view: Arc::new(view.clone()),
            });
            assert_eq!(view.wire_size(), encode_message(&full).len());
        }
        let delta = sample_delta();
        let message = Message::Heartbeat(HeartbeatMessage {
            seq: 4,
            ack: 3,
            view: Arc::new(delta.clone()),
        });
        assert_eq!(delta.wire_size(), encode_message(&message).len());
    }

    /// The header-only kind probe must agree with the decoded message's
    /// metric kind for every variant — the virtual fabric's sent
    /// accounting relies on it.
    #[test]
    fn frame_kind_matches_decoded_kind() {
        use diffuse_sim::SimMessage;
        let messages = [
            Message::Data(DataMessage {
                id: sample_id(),
                payload: Payload::from("x"),
                tree: Arc::new(sample_tree()),
            }),
            Message::Gossip(GossipMessage {
                id: sample_id(),
                payload: Payload::empty(),
                ttl: 1,
            }),
            Message::Ack { id: sample_id() },
            Message::Heartbeat(HeartbeatMessage {
                seq: 2,
                ack: 1,
                view: Arc::new(sample_delta()),
            }),
        ];
        for message in messages {
            let frame = encode_message(&message);
            assert_eq!(frame_kind(&frame), message.kind());
        }
        assert_eq!(frame_kind(&[]), "message");
        assert_eq!(frame_kind(&[99, 1]), "message");
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        for message in [
            Message::Heartbeat(HeartbeatMessage {
                seq: 5,
                ack: 3,
                view: Arc::new(sample_view()),
            }),
            Message::Heartbeat(HeartbeatMessage {
                seq: 6,
                ack: 5,
                view: Arc::new(sample_delta()),
            }),
        ] {
            let frame = encode_message(&message);
            for cut in 0..frame.len() {
                let err = decode_message(&frame[..cut]);
                assert!(err.is_err(), "cut at {cut} must fail");
            }
        }
    }

    #[test]
    fn bad_version_and_tag_are_rejected() {
        let frame = encode_message(&Message::Ack { id: sample_id() });
        let mut wrong_version = frame.to_vec();
        wrong_version[0] = 99;
        assert!(matches!(
            decode_message(&wrong_version),
            Err(NetError::BadVersion(99))
        ));
        let mut wrong_tag = frame.to_vec();
        wrong_tag[1] = 200;
        assert!(matches!(
            decode_message(&wrong_tag),
            Err(NetError::BadTag(200))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = encode_message(&Message::Ack { id: sample_id() }).to_vec();
        frame.push(0);
        assert!(matches!(decode_message(&frame), Err(NetError::Invalid(_))));
    }

    #[test]
    fn hostile_counts_are_capped() {
        // version, heartbeat tag, seq, ack, generation, base, then an
        // absurd process count.
        let mut frame = vec![WIRE_VERSION, TAG_HEARTBEAT];
        for _ in 0..4 {
            frame.extend_from_slice(&0u64.to_le_bytes());
        }
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_message(&frame),
            Err(NetError::Invalid("count exceeds sanity limit"))
        ));
        assert!(decode_message(&frame).is_err());
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(decode_message(&[]), Err(NetError::Truncated)));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use diffuse_bayes::Estimate;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary gossip payloads and ids round-trip.
        #[test]
        fn prop_gossip_round_trip(
            origin in 0u32..1000,
            seq in any::<u64>(),
            ttl in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let message = Message::Gossip(GossipMessage {
                id: BroadcastId { origin: ProcessId::new(origin), seq },
                payload: Payload::from(payload),
                ttl,
            });
            let back = decode_message(&encode_message(&message)).unwrap();
            prop_assert_eq!(back, message);
        }

        /// Offers reached by any update sequence cross the wire
        /// unchanged, distortion and counts alike.
        #[test]
        fn prop_offers_cross_the_wire_unchanged(
            intervals in 2usize..24,
            ops in proptest::collection::vec((0u8..5, 1u32..4), 0..200),
            distortion in any::<u32>(),
            infinite in any::<bool>(),
        ) {
            let mut estimate = Estimate::first_hand(intervals);
            for (op, factor) in ops {
                let beliefs = estimate.beliefs_mut();
                match op {
                    0 => beliefs.observe(true),
                    1 => beliefs.observe(false),
                    2 => beliefs.increase_reliability(factor),
                    3 => beliefs.decrease_reliability(factor),
                    _ => beliefs.undo_decrease(factor),
                }
            }
            estimate.set_distortion(if infinite {
                Distortion::Infinite
            } else {
                Distortion::finite(distortion)
            });
            let mut buf = BytesMut::new();
            put_offer(&mut buf, &estimate.offer());
            prop_assert_eq!(buf.len(), 13);
            let back = get_offer(&mut &buf.freeze()[..]).unwrap();
            prop_assert_eq!(back, estimate.offer());
        }

        /// Random byte soup never panics the decoder.
        #[test]
        fn prop_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_message(&bytes);
        }

        /// Chain trees of arbitrary λ round-trip through data frames.
        #[test]
        fn prop_data_round_trip(
            lambdas in proptest::collection::vec(0.0f64..=1.0, 1..12),
        ) {
            let n = lambdas.len() as u32;
            let nodes: Vec<ProcessId> = (0..=n).map(ProcessId::new).collect();
            let parents: Vec<u32> = (0..n).collect();
            let tree = ReliabilityTree::from_parts(ProcessId::new(0), nodes, parents, lambdas).unwrap();
            let message = Message::Data(DataMessage {
                id: BroadcastId { origin: ProcessId::new(0), seq: 1 },
                payload: Payload::from("x"),
                tree: std::sync::Arc::new(tree),
            });
            let back = decode_message(&encode_message(&message)).unwrap();
            prop_assert_eq!(back, message);
        }
    }
}
