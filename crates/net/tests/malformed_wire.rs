//! Malformed-wire robustness: garbage frames must never panic a node —
//! on any substrate they are counted and dropped, and the node keeps
//! delivering.
//!
//! Three layers, innermost out: the codec itself (total over arbitrary
//! mutations), a live in-memory fabric node, and a live UDP socket
//! node fed raw datagrams. The node-level tests use only frames that
//! are *guaranteed* undecodable (bad version, bad tag, truncation), so
//! the malformed counter's exact value can be asserted; the codec fuzz
//! additionally throws bit flips and random soup, where decoding may
//! legitimately succeed — the property is totality, not rejection.
//!
//! A fourth family sits *past* the decoder: semantically hostile frames
//! that are perfectly well-formed on the wire — heartbeats naming links
//! between processes outside the system, acks for view generations the
//! receiver never emitted, view generations that roll backward. The
//! codec cannot reject these (they are valid encodings); the protocol
//! must absorb them: rejected frames are counted (`error_count`,
//! `future_acks_rejected`), no-op frames leave the receiver's view
//! bit-identical, and the node keeps delivering either way.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use diffuse_bayes::{Distortion, Offer};
use diffuse_core::{
    Actions, AdaptiveBroadcast, AdaptiveParams, BroadcastId, DataMessage, Event, GossipMessage,
    HeartbeatMessage, Message, Payload, Protocol, ReferenceGossip, ReliabilityTree, View,
};
use diffuse_model::{LinkId, ProcessId, Topology};
use diffuse_net::codec::{decode_message, encode_message, frame_kind, WIRE_VERSION};
use diffuse_net::{
    spawn_node, Fabric, NetError, NodeHandle, Transport, UdpTransport, MAX_DATAGRAM,
};
use diffuse_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn valid_gossip_frame(origin: ProcessId, seq: u64) -> Vec<u8> {
    encode_message(&Message::Gossip(GossipMessage {
        id: BroadcastId { origin, seq },
        payload: b"payload-under-test".to_vec().into(),
        ttl: 3,
    }))
    .to_vec()
}

/// Frames that can never decode, whatever the codec version grows into:
/// wrong version byte, unknown tag, truncations of a valid frame at
/// every length, and an empty frame.
fn guaranteed_malformed() -> Vec<Vec<u8>> {
    let valid = valid_gossip_frame(p(0), 1);
    let mut frames = vec![
        vec![],
        vec![0xEE],
        {
            let mut f = valid.clone();
            f[0] = 0xEE; // unsupported version
            f
        },
        {
            let mut f = valid.clone();
            f[0] = 2; // the version that sent belief vectors
            f
        },
        {
            let mut f = valid.clone();
            f[0] = 3; // the version whose views carried a topology
            f
        },
        {
            let mut f = valid.clone();
            f[1] = 0x7F; // unknown tag
            f
        },
    ];
    for len in 1..valid.len() {
        frames.push(valid[..len].to_vec());
    }
    frames
}

#[test]
fn decoder_is_total_over_mutations_and_soup() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let valid = valid_gossip_frame(p(3), 42);

    // Round-trip sanity: the base frame decodes.
    assert!(decode_message(&valid).is_ok());

    // Single bit flips at every position: Ok or Err, never a panic —
    // and frame_kind stays total on the same inputs.
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let mut frame = valid.clone();
            frame[byte] ^= 1 << bit;
            let _ = decode_message(&frame);
            let _ = frame_kind(&frame);
        }
    }

    // Random soup at assorted sizes, including oversized frames beyond
    // the UDP datagram cap.
    for _ in 0..200 {
        let len = rng.gen_range(0usize..=512);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let _ = decode_message(&soup);
        let _ = frame_kind(&soup);
    }
    let oversized: Vec<u8> = (0..MAX_DATAGRAM + 7).map(|i| (i % 251) as u8).collect();
    let _ = decode_message(&oversized);

    // Guaranteed-malformed frames must actually be rejected.
    for frame in guaranteed_malformed() {
        assert!(
            decode_message(&frame).is_err(),
            "frame unexpectedly decoded: {frame:02X?}"
        );
    }
}

/// Polls the node's malformed counter until it reaches `expect` (the
/// receive loop runs on its own thread) — bounded by `deadline_polls`
/// short delivery waits, which double as the sleep primitive.
fn await_malformed(handle: &NodeHandle, expect: u64, deadline_polls: u32) -> u64 {
    for _ in 0..deadline_polls {
        if handle.malformed_frames() >= expect {
            break;
        }
        let _ = handle.next_delivery(Duration::from_millis(20));
    }
    handle.malformed_frames()
}

#[test]
fn fabric_node_counts_malformed_and_keeps_delivering() {
    let mut topology = Topology::new();
    topology.add_link(p(0), p(1)).unwrap();
    let mut transports = Fabric::build(&topology);
    let node_transport = transports.remove(&p(1)).unwrap();
    let injector = transports.remove(&p(0)).unwrap();

    let protocol = ReferenceGossip::new(p(1), vec![p(0)], 3);
    let handle = spawn_node(protocol, node_transport, Duration::from_millis(2));

    let garbage = guaranteed_malformed();
    let expected = garbage.len() as u64;
    for frame in &garbage {
        injector.send(p(1), frame).unwrap();
    }
    // A valid frame after the barrage: the node must still be alive and
    // deliver it.
    injector.send(p(1), &valid_gossip_frame(p(0), 7)).unwrap();

    let delivered = handle
        .next_delivery(Duration::from_secs(5))
        .unwrap()
        .expect("node still delivers after malformed barrage");
    assert_eq!(
        delivered.0,
        BroadcastId {
            origin: p(0),
            seq: 7
        }
    );
    assert_eq!(
        await_malformed(&handle, expected, 100),
        expected,
        "every malformed frame is counted, nothing else"
    );
    handle.shutdown();
}

#[test]
fn udp_node_counts_malformed_and_keeps_delivering() {
    // The injector's socket must exist first: the node transport drops
    // datagrams from unregistered addresses before they reach the
    // decoder, so the injector has to be a known peer.
    let injector = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let injector_addr = injector.local_addr().unwrap();
    let node_transport = UdpTransport::bind(
        p(1),
        "127.0.0.1:0".parse().unwrap(),
        BTreeMap::from([(p(0), injector_addr)]),
    )
    .unwrap();
    let node_addr = node_transport.local_addr().unwrap();

    let protocol = ReferenceGossip::new(p(1), vec![p(0)], 3);
    let handle = spawn_node(protocol, node_transport, Duration::from_millis(2));

    let garbage = guaranteed_malformed();
    let expected = garbage.len() as u64;
    for frame in &garbage {
        injector.send_to(frame, node_addr).unwrap();
    }
    injector
        .send_to(&valid_gossip_frame(p(0), 9), node_addr)
        .unwrap();

    let delivered = handle
        .next_delivery(Duration::from_secs(5))
        .unwrap()
        .expect("UDP node still delivers after malformed barrage");
    assert_eq!(
        delivered.0,
        BroadcastId {
            origin: p(0),
            seq: 9
        }
    );
    assert_eq!(
        await_malformed(&handle, expected, 100),
        expected,
        "every malformed datagram is counted, nothing else"
    );
    handle.shutdown();
}

// --- Semantically hostile, well-formed frames -------------------------

/// An estimate claiming perfect first-hand knowledge (distortion 0) —
/// the strongest claim a hostile sender can put on the wire, built with
/// the codec's own constructor (nothing here forges adversary state).
fn claimed_first_hand() -> Offer {
    Offer::new(0, 0, Distortion::ZERO)
}

fn heartbeat_delta(
    seq: u64,
    ack: u64,
    generation: u64,
    base: u64,
    processes: Vec<(ProcessId, Offer)>,
    links: Vec<(LinkId, Offer)>,
) -> Message {
    Message::Heartbeat(HeartbeatMessage {
        seq,
        ack,
        view: Arc::new(View {
            generation,
            base,
            processes,
            links,
        }),
    })
}

fn heartbeat_full(
    seq: u64,
    generation: u64,
    processes: Vec<(ProcessId, Offer)>,
    links: Vec<(LinkId, Offer)>,
) -> Message {
    heartbeat_delta(seq, 0, generation, 0, processes, links)
}

/// Round-trips a hostile message through the real codec, proving it is
/// well-formed on the wire before the protocol ever sees it.
fn roundtrip(message: &Message) -> Message {
    decode_message(&encode_message(message)).expect("hostile frame must stay well-formed")
}

/// The protocol-level contract for hostile well-formed heartbeats, one
/// frame family at a time against a live `AdaptiveBroadcast` state:
/// frames the receiver cannot anchor are rejected *and counted*; frames
/// naming processes or links outside the system are entry-level no-ops
/// that leave the view bit-identical; acks from the future are counted
/// and never advance delta emission; generation rollbacks displace
/// nothing (strict `adopt_if_better`) and do not wedge later progress.
#[test]
fn hostile_heartbeats_are_counted_and_never_corrupt_the_view() {
    let me = p(1);
    let sender = p(0);
    let direct = LinkId::new(sender, me).unwrap();
    let alien_link = LinkId::new(p(5), p(6)).unwrap();

    let mut node = AdaptiveBroadcast::new(
        me,
        vec![sender, me],
        vec![sender],
        AdaptiveParams::default(), // delta heartbeat views
    );
    let mut actions = Actions::new();
    node.on_start(SimTime::ZERO, &mut actions);

    // 1. A delta with no full-view base, carrying an out-of-range link
    //    (processes 5 and 6 do not exist in this two-process system):
    //    rejected and counted, nothing merged.
    let orphan = heartbeat_delta(1, 0, 5, 3, vec![], vec![(alien_link, claimed_first_hand())]);
    node.handle_message(SimTime::new(1), sender, roundtrip(&orphan), &mut actions);
    assert_eq!(node.error_count(), 1, "orphan delta is counted");
    assert!(node.link_estimate(alien_link).is_none());

    // An honest full view anchors the sender's mirror; the sender's
    // self-estimate is adopted at distortion 1, and my own direct-link
    // estimate stays first-hand (distortion 0).
    let honest = heartbeat_full(
        2,
        10,
        vec![(sender, claimed_first_hand())],
        vec![(direct, claimed_first_hand())],
    );
    node.handle_message(SimTime::new(2), sender, roundtrip(&honest), &mut actions);
    assert_eq!(
        node.process_estimate(sender).unwrap().distortion(),
        Distortion::finite(1)
    );
    let snapshot = |node: &AdaptiveBroadcast| {
        format!(
            "{:?}",
            (
                node.process_estimate(sender),
                node.process_estimate(me),
                node.link_estimate(direct),
            )
        )
    };

    // 2. An in-range delta whose entries all name out-of-range keys:
    //    every entry is skipped, the view stays bit-identical, and the
    //    alien processes and links never materialize anywhere.
    let alien = heartbeat_delta(
        3,
        0,
        11,
        10,
        vec![(p(9), claimed_first_hand())],
        vec![(alien_link, claimed_first_hand())],
    );
    let before = snapshot(&node);
    node.handle_message(SimTime::new(3), sender, roundtrip(&alien), &mut actions);
    assert_eq!(snapshot(&node), before, "alien delta entries are no-ops");
    assert!(node.process_estimate(p(9)).is_none());
    assert!(node.link_estimate(alien_link).is_none());
    assert_eq!(node.error_count(), 1, "entry-level skips are not errors");

    // 3. An ack from the future: this node has emitted generation 0, so
    //    an ack of 2^40 names a state that cannot exist. Counted and
    //    rejected; the emission ack state is untouched.
    let future_ack = heartbeat_delta(4, 1 << 40, 12, 10, vec![], vec![]);
    node.handle_message(
        SimTime::new(4),
        sender,
        roundtrip(&future_ack),
        &mut actions,
    );
    assert_eq!(node.audit().future_acks_rejected, 1);

    // 4. A generation rollback: a full view re-announcing generation 2
    //    (after 12) with *worse* estimates and a stale heartbeat seq (2
    //    after 4). A heartbeat older than one already merged is dropped
    //    unmerged, so it displaces nothing.
    let worse = Offer::new(0, 0, Distortion::finite(40));
    let rollback = heartbeat_full(2, 2, vec![(sender, worse)], vec![(direct, worse)]);
    let before = snapshot(&node);
    node.handle_message(SimTime::new(5), sender, roundtrip(&rollback), &mut actions);
    assert_eq!(snapshot(&node), before, "rollback view displaces nothing");

    // The rollback must not wedge the stream: a later honest delta
    // still merges and adopts.
    let adopted_before = node
        .audit()
        .per_sender
        .get(&sender)
        .map_or(0, |s| s.adopted);
    let recover = heartbeat_delta(6, 0, 13, 0, vec![(sender, claimed_first_hand())], vec![]);
    node.handle_message(SimTime::new(6), sender, roundtrip(&recover), &mut actions);
    let adopted_after = node
        .audit()
        .per_sender
        .get(&sender)
        .map_or(0, |s| s.adopted);
    assert!(
        adopted_after > adopted_before,
        "honest deltas keep merging after the hostile barrage"
    );
    assert_eq!(node.error_count(), 1, "no spurious errors accumulated");

    // My own first-hand state survived everything untouched.
    let mine = node.link_estimate(direct).unwrap();
    assert_eq!(mine.distortion(), Distortion::ZERO);
    assert!(!mine.tainted());

    // And the node still initiates broadcasts.
    node.broadcast(
        SimTime::new(7),
        Payload::from("after-the-barrage"),
        &mut actions,
    )
    .expect("topology spans the system; broadcast still works");
}

/// Well-formed entries at distortion 0 carrying the most extreme counts
/// a sender can encode win every distortion comparison and are adopted.
/// Whatever they hold, the receiver's estimate stays a valid posterior
/// and its own view still crosses the wire. (Belief vectors of `1e307`
/// used to overflow the decoder's sum check, be adopted as a perfect
/// process, and leave the receiver's view undecodable.)
#[test]
fn extreme_counts_stay_valid_posteriors() {
    let me = p(1);
    let sender = p(0);
    let direct = LinkId::new(sender, me).unwrap();
    let far = LinkId::new(sender, p(2)).unwrap();
    for (failures, successes) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
        let mut node = AdaptiveBroadcast::new(
            me,
            vec![sender, me, p(2)],
            vec![sender],
            AdaptiveParams::default(),
        );
        let mut actions = Actions::new();
        node.on_start(SimTime::ZERO, &mut actions);
        let extreme = Offer::new(failures, successes, Distortion::ZERO);
        let full = heartbeat_full(
            1,
            10,
            vec![(sender, extreme), (p(2), extreme)],
            vec![(direct, extreme), (far, extreme)],
        );
        node.handle_message(SimTime::new(1), sender, roundtrip(&full), &mut actions);
        assert_eq!(node.error_count(), 0);

        let adopted = [
            node.process_estimate(sender).unwrap(),
            node.process_estimate(p(2)).unwrap(),
            node.link_estimate(far).expect("learned"),
        ];
        for estimate in adopted {
            assert_eq!(estimate.distortion(), Distortion::finite(1));
            let beliefs = estimate.beliefs();
            assert_eq!(
                (beliefs.failures(), beliefs.successes()),
                (failures, successes)
            );
            let mean = beliefs.mean().value();
            assert!(
                mean.is_finite() && (0.0..=1.0).contains(&mean),
                "({failures}, {successes}): mean {mean}"
            );
            let sum: f64 = beliefs.beliefs().iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "({failures}, {successes}): sum {sum}"
            );
        }
        // My first-hand direct link wins on distortion.
        assert_eq!(
            node.link_estimate(direct).unwrap().distortion(),
            Distortion::ZERO
        );

        let own = Message::Heartbeat(HeartbeatMessage {
            seq: 1,
            ack: 0,
            view: Arc::new(node.view()),
        });
        assert_eq!(roundtrip(&own), own, "the receiver's own view decodes");
    }
}

/// A frame listing one key twice never reaches a node through the codec
/// (it is rejected there), but frames handed over in process skip the
/// codec. Merged, a full view listing link 0–2 twice left two mirror
/// entries for it, and every later delta carrying it was counted twice.
/// The node refuses such a frame whole, a full view or a delta: it
/// counts it in `error_count()`, merges nothing and does not move its
/// ack; a later delta carrying the link once is counted once.
#[test]
fn repeated_entry_keys_are_refused_whole() {
    let (me, sender) = (p(1), p(0));
    let direct = LinkId::new(sender, me).unwrap();
    let far = LinkId::new(sender, p(2)).unwrap();
    let mut node = AdaptiveBroadcast::new(
        me,
        vec![sender, me, p(2)],
        vec![sender],
        AdaptiveParams::default(),
    );
    let mut actions = Actions::new();
    node.on_start(SimTime::ZERO, &mut actions);
    // The ack this node's next heartbeat to the sender carries.
    let next_ack = |node: &mut AdaptiveBroadcast, t: u64| {
        let mut actions = Actions::new();
        node.on_event(
            SimTime::new(t),
            Event::Timer(AdaptiveBroadcast::HEARTBEAT),
            &mut actions,
        );
        match actions.take_sends().pop() {
            Some((_, Message::Heartbeat(hb))) => hb.ack,
            other => panic!("expected a heartbeat, got {other:?}"),
        }
    };
    let offer = Offer::new(2, 5, Distortion::finite(1));
    let entries = |far_twice: bool| {
        let mut links = vec![(direct, offer), (far, offer)];
        if far_twice {
            links.push((far, offer));
        }
        (vec![(sender, offer), (p(2), offer)], links)
    };

    let (processes, links) = entries(true);
    node.handle_message(
        SimTime::new(1),
        sender,
        heartbeat_full(1, 10, processes, links),
        &mut actions,
    );
    assert_eq!(node.error_count(), 1, "the full view is refused");
    assert!(node.link_estimate(far).is_none(), "nothing was merged");
    assert_eq!(next_ack(&mut node, 1), 0, "the ack did not move");

    let (processes, links) = entries(false);
    node.handle_message(
        SimTime::new(2),
        sender,
        heartbeat_full(2, 11, processes, links),
        &mut actions,
    );
    assert_eq!(node.error_count(), 1);
    assert_eq!(next_ack(&mut node, 2), 11);
    let audit = |node: &AdaptiveBroadcast| node.audit().per_sender[&sender];
    let before = audit(&node);

    let better = Offer::new(1, 9, Distortion::finite(0));
    let twice = heartbeat_delta(3, 0, 12, 11, vec![], vec![(far, better), (far, better)]);
    node.handle_message(SimTime::new(3), sender, twice, &mut actions);
    assert_eq!(node.error_count(), 2, "the delta is refused");
    assert_eq!(audit(&node), before, "nothing was offered or adopted");
    assert_eq!(next_ack(&mut node, 3), 11, "the ack did not move");

    let once = heartbeat_delta(4, 0, 13, 11, vec![], vec![(far, better)]);
    node.handle_message(SimTime::new(4), sender, once, &mut actions);
    assert_eq!(node.error_count(), 2);
    let after = audit(&node);
    assert_eq!(
        (after.offered, after.adopted),
        (before.offered + 1, before.adopted + 1),
        "a link carried once is counted once"
    );
    assert_eq!(next_ack(&mut node, 4), 13);
}

/// The one hostile link shape the codec *does* reject: a self-loop,
/// which no `LinkId` can represent. Hand-encoded because the encoder
/// cannot produce it either.
#[test]
fn self_loop_link_frames_are_rejected_by_the_decoder() {
    let mut raw = vec![WIRE_VERSION, 4]; // tag 4 = heartbeat
    raw.extend_from_slice(&7u64.to_le_bytes()); // seq
    raw.extend_from_slice(&0u64.to_le_bytes()); // ack
    raw.extend_from_slice(&14u64.to_le_bytes()); // generation
    raw.extend_from_slice(&10u64.to_le_bytes()); // base
    raw.extend_from_slice(&0u32.to_le_bytes()); // no process entries
    raw.extend_from_slice(&1u32.to_le_bytes()); // one link entry …
    raw.extend_from_slice(&3u32.to_le_bytes()); // … from process 3
    raw.extend_from_slice(&3u32.to_le_bytes()); // … to process 3
    assert!(
        matches!(
            decode_message(&raw),
            Err(NetError::Invalid("self-loop link"))
        ),
        "self-loop links must not decode"
    );
    assert_eq!(frame_kind(&raw), "heartbeat");
}

/// The same hostile families against a *spawned* node on the in-memory
/// fabric: none of the frames trip the malformed counter (they are
/// well-formed), the future ack is counted in the node's audit, and the
/// node still delivers application data afterwards.
#[test]
fn fabric_adaptive_node_survives_hostile_heartbeats() {
    let mut topology = Topology::new();
    let direct = topology.add_link(p(0), p(1)).unwrap();
    let mut transports = Fabric::build(&topology);
    let node_transport = transports.remove(&p(1)).unwrap();
    let injector = transports.remove(&p(0)).unwrap();

    let protocol = AdaptiveBroadcast::new(
        p(1),
        vec![p(0), p(1)],
        vec![p(0)],
        AdaptiveParams::default(),
    );
    let handle = spawn_node(protocol, node_transport, Duration::from_millis(2));

    let alien_link = LinkId::new(p(5), p(6)).unwrap();
    let hostile = [
        // Orphan delta carrying an out-of-range link.
        heartbeat_delta(1, 0, 5, 3, vec![], vec![(alien_link, claimed_first_hand())]),
        // Honest full view (anchors the mirror for the frames below).
        heartbeat_full(
            2,
            10,
            vec![(p(0), claimed_first_hand())],
            vec![(direct, claimed_first_hand())],
        ),
        // Alien-keyed delta, ack from the future, generation rollback.
        heartbeat_delta(3, 0, 11, 10, vec![(p(9), claimed_first_hand())], vec![]),
        heartbeat_delta(4, 1 << 40, 12, 10, vec![], vec![]),
        heartbeat_full(2, 2, vec![(p(0), claimed_first_hand())], vec![]),
    ];
    for message in &hostile {
        injector.send(p(1), &encode_message(message)).unwrap();
    }

    // Application data after the barrage: the node must still deliver.
    let tree = ReliabilityTree::from_parts(p(0), vec![p(0), p(1)], vec![0], vec![1.0]).unwrap();
    let data = Message::Data(DataMessage {
        id: BroadcastId {
            origin: p(0),
            seq: 1,
        },
        payload: b"still-alive".to_vec().into(),
        tree: Arc::new(tree),
    });
    injector.send(p(1), &encode_message(&data)).unwrap();

    let delivered = handle
        .next_delivery(Duration::from_secs(5))
        .unwrap()
        .expect("node still delivers after hostile heartbeats");
    assert_eq!(
        delivered.0,
        BroadcastId {
            origin: p(0),
            seq: 1
        }
    );
    assert_eq!(
        handle.malformed_frames(),
        0,
        "hostile frames are well-formed: the wire layer must not count them"
    );
    let audit = handle.shutdown_with_audit();
    assert!(
        audit.future_acks_rejected >= 1,
        "the future ack must be counted: {audit:?}"
    );
}
