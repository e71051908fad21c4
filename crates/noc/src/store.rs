//! Slab arena for in-flight packets.
//!
//! Each in-flight packet owns one slot in a contiguous slab: its frame
//! (source, destination, type, payload — the fields the inspector may
//! rewrite), its injection cycle, hop count and tamper flag. Every flit
//! carries only its slot index ([`crate::Flit::slot`]), so the flits that
//! switch traversal copies on every grant stay small, and metadata touches
//! on the hot path are a single array index. Slots recycle through an
//! intrusive free list, so steady-state traffic performs zero heap
//! allocations — [`PacketStore::alloc`] only grows the slab when no freed
//! slot is available, which after warm-up never happens.

use crate::packet::Packet;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    packet_id: u64,
    injected_at: u64,
    hops: u32,
    modified: bool,
    /// The packet frame, as rewritten so far by inspectors and faults.
    packet: Packet,
    /// Next slot in the free list (meaningful only while not live).
    next_free: u32,
    live: bool,
}

/// Recycling arena of per-packet metadata slots.
///
/// Invariant, locked by a property test: [`PacketStore::alloc`] never hands
/// out a slot that is still live, so a slot index uniquely identifies one
/// in-flight packet for its whole lifetime.
#[derive(Debug, Clone)]
pub struct PacketStore {
    slots: Vec<Slot>,
    free_head: u32,
    live: usize,
}

impl Default for PacketStore {
    fn default() -> Self {
        PacketStore::new()
    }
}

impl PacketStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PacketStore {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// Claims a slot for a newly injected packet and its frame and returns
    /// the slot's index.
    ///
    /// The only operation that may heap-allocate (when the free list is
    /// empty and the slab must grow); once the slab has reached the
    /// campaign's peak in-flight population it never grows again.
    pub fn alloc(&mut self, packet_id: u64, injected_at: u64, packet: Packet) -> u32 {
        self.live += 1;
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            debug_assert!(!s.live, "free list points at a live slot");
            self.free_head = s.next_free;
            s.packet_id = packet_id;
            s.injected_at = injected_at;
            s.hops = 0;
            s.modified = false;
            s.packet = packet;
            s.live = true;
            return slot;
        }
        let slot = self.slots.len() as u32;
        assert!(slot != NIL, "packet store exhausted");
        self.slots.push(Slot {
            packet_id,
            injected_at,
            hops: 0,
            modified: false,
            packet,
            next_free: NIL,
            live: true,
        });
        slot
    }

    /// Returns a slot to the free list (packet dropped or fully ejected).
    /// Never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live — freeing twice would alias two
    /// packets onto one slot.
    pub fn free(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        assert!(s.live, "double free of packet slot {slot}");
        s.live = false;
        s.next_free = self.free_head;
        self.free_head = slot;
        self.live -= 1;
    }

    /// Number of live (in-flight) packets.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether `slot` currently holds a live packet.
    #[must_use]
    pub fn is_live(&self, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(|s| s.live)
    }

    /// Packet id of the live packet in `slot`.
    #[must_use]
    pub fn packet_id(&self, slot: u32) -> u64 {
        debug_assert!(self.slots[slot as usize].live);
        self.slots[slot as usize].packet_id
    }

    /// Injection cycle of the live packet in `slot`.
    #[must_use]
    pub fn injected_at(&self, slot: u32) -> u64 {
        debug_assert!(self.slots[slot as usize].live);
        self.slots[slot as usize].injected_at
    }

    /// Router-to-router hops recorded so far for the packet in `slot`.
    #[must_use]
    pub fn hops(&self, slot: u32) -> u32 {
        debug_assert!(self.slots[slot as usize].live);
        self.slots[slot as usize].hops
    }

    /// Records one more hop for the packet in `slot`.
    pub fn bump_hops(&mut self, slot: u32) {
        debug_assert!(self.slots[slot as usize].live);
        self.slots[slot as usize].hops += 1;
    }

    /// Whether an inspector reported modifying the packet in `slot`.
    #[must_use]
    pub fn modified(&self, slot: u32) -> bool {
        debug_assert!(self.slots[slot as usize].live);
        self.slots[slot as usize].modified
    }

    /// Marks the packet in `slot` as tampered with.
    pub fn set_modified(&mut self, slot: u32) {
        debug_assert!(self.slots[slot as usize].live);
        self.slots[slot as usize].modified = true;
    }

    /// The frame of the live packet in `slot`.
    #[must_use]
    pub fn packet(&self, slot: u32) -> &Packet {
        debug_assert!(self.slots[slot as usize].live);
        &self.slots[slot as usize].packet
    }

    /// Mutable frame of the live packet in `slot`: the inspector and the
    /// fault hook rewrite headers and payloads here.
    pub fn packet_mut(&mut self, slot: u32) -> &mut Packet {
        debug_assert!(self.slots[slot as usize].live);
        &mut self.slots[slot as usize].packet
    }

    /// Completes delivery of the packet in `slot`: returns its frame and
    /// accumulated metadata, and frees the slot. Returns
    /// `(packet, injected_at, hops, modified)`.
    pub fn finish(&mut self, slot: u32) -> (Packet, u64, u32, bool) {
        let s = &self.slots[slot as usize];
        debug_assert!(s.live);
        let out = (s.packet, s.injected_at, s.hops, s.modified);
        self.free(slot);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::topology::NodeId;

    fn frame(payload: u32) -> Packet {
        Packet::new(NodeId(0), NodeId(1), PacketKind::Data, payload)
    }

    #[test]
    fn alloc_free_recycles_lifo() {
        let mut st = PacketStore::new();
        let a = st.alloc(1, 10, frame(1));
        let b = st.alloc(2, 11, frame(2));
        assert_ne!(a, b);
        assert_eq!(st.live(), 2);
        st.free(a);
        assert_eq!(st.live(), 1);
        let c = st.alloc(3, 12, frame(3));
        assert_eq!(c, a, "freed slot is recycled");
        assert_eq!(st.packet_id(c), 3);
        assert_eq!(
            st.packet(c).payload(),
            3,
            "recycled slot holds the new frame"
        );
        assert_eq!(st.injected_at(c), 12);
        assert_eq!(st.hops(c), 0);
        assert!(!st.modified(c));
    }

    #[test]
    fn finish_returns_meta_and_frees() {
        let mut st = PacketStore::new();
        let s = st.alloc(7, 100, frame(42));
        st.bump_hops(s);
        st.bump_hops(s);
        st.packet_mut(s).set_payload(21);
        st.set_modified(s);
        let (packet, injected_at, hops, modified) = st.finish(s);
        assert_eq!(packet, frame(21), "finish returns the rewritten frame");
        assert_eq!(injected_at, 100);
        assert_eq!(hops, 2);
        assert!(modified);
        assert_eq!(st.live(), 0);
        assert!(!st.is_live(s));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut st = PacketStore::new();
        let s = st.alloc(1, 0, frame(0));
        st.free(s);
        st.free(s);
    }
}
