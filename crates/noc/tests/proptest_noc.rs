//! Property-based tests of the NoC simulator's end-to-end invariants:
//! conservation (every injected packet is delivered exactly once), payload
//! integrity on a clean network, and minimal routing.

use proptest::prelude::*;

use htpb_noc::{
    InspectOutcome, Mesh2d, Network, NetworkConfig, NodeId, Packet, PacketInspector, PacketKind,
    PacketStore, RawPacket, RoutingKind,
};

/// Drops every packet whose id hash lands under the threshold, at one node.
#[derive(Debug)]
struct RandomDropper {
    node: NodeId,
    threshold: u32,
}

impl PacketInspector for RandomDropper {
    fn inspect(&mut self, router: NodeId, _cycle: u64, packet: &mut Packet) -> InspectOutcome {
        if router == self.node && packet.payload().wrapping_mul(0x9E3779B9) >> 16 < self.threshold {
            InspectOutcome::dropped()
        } else {
            InspectOutcome::untouched()
        }
    }
}

fn arb_mesh() -> impl Strategy<Value = Mesh2d> {
    (2u16..=8, 2u16..=8).prop_map(|(w, h)| Mesh2d::new(w, h).expect("valid dims"))
}

fn arb_kind() -> impl Strategy<Value = PacketKind> {
    prop_oneof![
        Just(PacketKind::PowerReq),
        Just(PacketKind::PowerGrant),
        Just(PacketKind::Data),
        Just(PacketKind::Meta),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every injected packet is delivered exactly once, with the payload it
    /// was injected with, regardless of traffic shape or routing algorithm.
    #[test]
    fn conservation_and_integrity(
        mesh in arb_mesh(),
        routing in prop_oneof![Just(RoutingKind::Xy), Just(RoutingKind::OddEven)],
        sends in proptest::collection::vec((0u32..64, 0u32..64, arb_kind(), any::<u32>()), 1..40),
    ) {
        let nodes = mesh.nodes();
        let mut net = Network::new(NetworkConfig::new(mesh).with_routing(routing));
        let mut expected = Vec::new();
        for (s, d, kind, payload) in sends {
            let src = NodeId((s % nodes) as u16);
            let dst = NodeId((d % nodes) as u16);
            net.inject(Packet::new(src, dst, kind, payload)).expect("inject");
            expected.push((src, dst, payload));
        }
        prop_assert!(net.run_until_idle(1_000_000), "network failed to drain");
        let mut out = net.drain_ejected();
        prop_assert_eq!(out.len(), expected.len());
        // Match up multiset-style: sort both by (src, dst, payload).
        let mut got: Vec<_> = out
            .drain(..)
            .map(|d| (d.packet.src(), d.packet.dst(), d.packet.payload()))
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(net.stats().modified_packets(), 0);
        prop_assert_eq!(net.stats().infection_rate(), 0.0);
    }

    /// On an uncontended network, XY-routed packets take exactly the
    /// Manhattan-distance number of hops.
    #[test]
    fn xy_hops_are_minimal(mesh in arb_mesh(), s in any::<u16>(), d in any::<u16>()) {
        let nodes = mesh.nodes() as u16;
        let src = NodeId(s % nodes);
        let dst = NodeId(d % nodes);
        let mut net = Network::new(NetworkConfig::new(mesh));
        net.inject(Packet::power_request(src, dst, 1)).expect("inject");
        prop_assert!(net.run_until_idle(10_000));
        let out = net.drain_ejected();
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].hops, mesh.distance(src, dst));
    }

    /// Adaptive routing is also minimal in hop count (odd-even only offers
    /// minimal candidates).
    #[test]
    fn odd_even_hops_are_minimal(mesh in arb_mesh(), s in any::<u16>(), d in any::<u16>()) {
        let nodes = mesh.nodes() as u16;
        let src = NodeId(s % nodes);
        let dst = NodeId(d % nodes);
        let mut net = Network::new(NetworkConfig::new(mesh).with_routing(RoutingKind::OddEven));
        net.inject(Packet::power_request(src, dst, 1)).expect("inject");
        prop_assert!(net.run_until_idle(10_000));
        let out = net.drain_ejected();
        prop_assert_eq!(out[0].hops, mesh.distance(src, dst));
    }

    /// Conservation under drops: every injected packet is either delivered
    /// or counted dropped — never both, never lost — and the network
    /// returns to a fully idle state.
    #[test]
    fn conservation_with_dropping_inspector(
        mesh in arb_mesh(),
        drop_node in any::<u16>(),
        threshold in 0u32..0xFFFF,
        sends in proptest::collection::vec((0u32..64, 0u32..64, arb_kind(), any::<u32>()), 1..40),
    ) {
        let nodes = mesh.nodes();
        let dropper = RandomDropper {
            node: NodeId((u32::from(drop_node) % nodes) as u16),
            threshold,
        };
        let mut net = Network::with_inspector(NetworkConfig::new(mesh), dropper);
        let mut injected = 0u64;
        for (s, d, kind, payload) in sends {
            let src = NodeId((s % nodes) as u16);
            let dst = NodeId((d % nodes) as u16);
            net.inject(Packet::new(src, dst, kind, payload)).expect("inject");
            injected += 1;
        }
        prop_assert!(net.run_until_idle(1_000_000), "network failed to drain");
        let stats = net.stats();
        prop_assert_eq!(
            stats.delivered_packets() + stats.dropped_packets(),
            injected,
            "conservation violated"
        );
        for n in mesh.iter_nodes() {
            prop_assert!(net.router(n).is_idle(), "router {} not idle", n);
        }
    }

    /// Decoding arbitrary wire words never panics: it either yields a valid
    /// packet (which re-encodes to the same prefix) or a structured error.
    #[test]
    fn decode_is_total(words in proptest::array::uniform4(any::<u32>()), len in 0usize..=4) {
        let raw = RawPacket { words, len };
        if let Ok(p) = Packet::decode(&raw) {
            let re = p.encode();
            prop_assert_eq!(re.words[0], words[0]);
            prop_assert_eq!(re.words[2], words[2]);
        }
    }

    /// [`PacketStore`] recycling never aliases a live packet: under an
    /// arbitrary interleaving of allocations and frees, `alloc` never hands
    /// out a slot that a live packet still occupies, and every live slot
    /// keeps the packet id and frame it was allocated with.
    #[test]
    fn packet_store_recycling_never_aliases_live_packets(
        ops in proptest::collection::vec((any::<bool>(), any::<u32>()), 1..256),
    ) {
        let mut store = PacketStore::new();
        let mut live: Vec<(u32, u64)> = Vec::new();
        let mut next_id = 0u64;
        for (do_free, pick) in ops {
            if do_free && !live.is_empty() {
                let idx = pick as usize % live.len();
                let (slot, id) = live.swap_remove(idx);
                prop_assert_eq!(store.packet_id(slot), id);
                store.free(slot);
                prop_assert!(!store.is_live(slot));
            } else {
                let id = next_id;
                next_id += 1;
                let frame = Packet::power_request(NodeId(0), NodeId(1), id as u32);
                let slot = store.alloc(id, id, frame);
                prop_assert!(
                    live.iter().all(|&(s, _)| s != slot),
                    "alloc returned slot {} which is still live", slot
                );
                prop_assert!(store.is_live(slot));
                live.push((slot, id));
            }
        }
        prop_assert_eq!(store.live(), live.len());
        for &(slot, id) in &live {
            prop_assert_eq!(store.packet_id(slot), id);
            prop_assert_eq!(store.injected_at(slot), id);
            prop_assert_eq!(store.packet(slot).payload(), id as u32);
        }
    }

    /// Packet wire encoding round-trips for every representable frame.
    #[test]
    fn packet_encode_decode_roundtrip(
        s in any::<u16>(),
        d in any::<u16>(),
        kind in arb_kind(),
        payload in any::<u32>(),
        opt in proptest::option::of(any::<u32>()),
    ) {
        let mut p = Packet::new(NodeId(s), NodeId(d), kind, payload);
        if let Some(o) = opt {
            p = p.with_options(o);
        }
        let q = Packet::decode(&p.encode()).expect("decode");
        prop_assert_eq!(p, q);
    }
}
