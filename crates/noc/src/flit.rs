/// Flit width in bits (Table I: "NoC flit size 72-bit").
pub const FLIT_SIZE_BITS: u32 = 72;

/// Flits per data packet (Table I: "Data packet size 5 flits").
pub const FLITS_PER_DATA_PACKET: usize = 5;

/// Flits per meta packet (Table I: "Meta packet size 1 flit").
pub const FLITS_PER_META_PACKET: usize = 1;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries the routing header.
    Head,
    /// Interior flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet; releases the wormhole path.
    Tail,
    /// Single-flit packet: head and tail at once (meta packets).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit carries the packet header (and is therefore the
    /// flit the Trojan's comparators scan).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit terminates the packet.
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A flow-control unit travelling through the network.
///
/// Deliberately compact (16 bytes): switch traversal copies flits between
/// buffer rings and link slots on every grant. The packet frame, its
/// destination and its injection cycle live once per packet in the owning
/// network's [`crate::PacketStore`] slot, which routing computation and the
/// inspector (the Trojan attachment point, Fig. 2b) read and rewrite when the
/// head flit reaches a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Position within the packet.
    pub kind: FlitKind,
    /// Index of the packet's slot in the owning network's packet store.
    pub slot: u32,
    /// Unique id of the packet this flit belongs to (simulator-assigned).
    pub packet_id: u64,
}

impl Flit {
    /// The `n` wire flits of one packet, head first, without allocating.
    ///
    /// Meta packets (power requests/grants, config commands, coherence
    /// messages) are a single `HeadTail` flit; data packets are a `Head`,
    /// three `Body` and one `Tail` flit (Table I).
    pub fn train(packet_id: u64, slot: u32, n: usize) -> impl Iterator<Item = Flit> {
        (0..n).map(move |i| {
            let kind = if n == 1 {
                FlitKind::HeadTail
            } else if i == 0 {
                FlitKind::Head
            } else if i == n - 1 {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            Flit {
                kind,
                slot,
                packet_id,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind};
    use crate::topology::NodeId;

    #[test]
    fn meta_packet_is_one_headtail_flit() {
        let p = Packet::power_request(NodeId(1), NodeId(2), 7);
        let flits: Vec<Flit> = Flit::train(9, 3, p.flit_count()).collect();
        assert_eq!(flits.len(), FLITS_PER_META_PACKET);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
    }

    #[test]
    fn data_packet_is_five_flits() {
        let p = Packet::new(NodeId(1), NodeId(2), PacketKind::Data, 0);
        let flits: Vec<Flit> = Flit::train(1, 0, p.flit_count()).collect();
        assert_eq!(flits.len(), FLITS_PER_DATA_PACKET);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[4].kind, FlitKind::Tail);
    }

    #[test]
    fn all_flits_share_packet_id_and_slot() {
        let flits: Vec<Flit> = Flit::train(77, 5, FLITS_PER_DATA_PACKET).collect();
        assert!(flits.iter().all(|f| f.packet_id == 77 && f.slot == 5));
    }

    /// Layout lock: switch traversal copies a flit per grant through the
    /// buffer rings and link slots, so a field that re-bloats them must
    /// fail here rather than quietly slow every campaign.
    #[test]
    fn flit_and_hot_slots_stay_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<Flit>() <= 16,
            "Flit is {} bytes",
            size_of::<Flit>()
        );
        // A buffer-ring entry: the flit plus its arrival stamp.
        assert!(size_of::<(Flit, u64)>() <= 24);
        // A link slot: the flit plus its downstream VC.
        assert!(size_of::<Option<(Flit, usize)>>() <= 24);
    }
}
