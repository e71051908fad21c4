use crate::flit::{Flit, FlitKind};
use crate::topology::{Direction, NodeId};
use crate::vc::VcState;

/// Microarchitectural parameters of a router.
///
/// Defaults follow Table I of the paper: 4 virtual channels per input port
/// and 5-flit buffers ("NoC buffer 5 × 5 flits" — five ports with five-flit
/// buffers per VC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Flit buffer depth per virtual channel.
    pub buffer_depth: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vcs: 4,
            buffer_depth: 5,
        }
    }
}

/// Externally observable state of one input virtual channel at an instant.
///
/// The unit of comparison for differential debugging: `htpb-testkit`
/// localizes the first diverging (cycle, router, VC) between the optimized
/// stepper and its dense reference oracle by diffing these snapshots.
/// Equality covers everything the pipeline stages read — occupancy, the
/// resident packet, its RC/VA decisions and the drop flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcSnapshot {
    /// Buffered flit count.
    pub occupancy: usize,
    /// Packet id of the front flit, if any.
    pub front_packet: Option<u64>,
    /// Cycle the front flit entered this buffer.
    pub front_arrived_at: Option<u64>,
    /// Output port chosen by routing computation for the resident packet.
    pub route: Option<Direction>,
    /// Downstream VC granted by VC allocation.
    pub out_vc: Option<usize>,
    /// Whether the resident packet's head was inspected at this router.
    pub inspected: bool,
    /// Whether the resident packet is being sunk by a drop order.
    pub dropping: bool,
}

/// One mesh router: five input ports (N/S/E/W/Local) with per-port virtual
/// channels, plus credit state for each output port's downstream buffers.
///
/// The router is a passive state container; the cycle-by-cycle pipeline
/// (buffer write → routing computation → VC/switch allocation → switch
/// traversal) is driven by [`crate::Network::step`], which models a
/// two-cycle router and one-cycle links (Table I).
///
/// # Data layout
///
/// All per-VC state is flattened into contiguous arrays indexed by the slot
/// number `port * vcs + vc` (ports in N/S/E/W/Local index order): control
/// state in [`Router::vc_state`], the flit buffers in one flat slab where
/// slot `s` owns the fixed-capacity ring `buf[s * depth .. (s + 1) * depth]`,
/// and output-side credit/allocation state in two parallel arrays. Ascending
/// slot order equals the nested `(port, vc)` loops the pipeline historically
/// ran, so iteration order — and with it RR arbitration, ejection and trace
/// order — is bit-for-bit unchanged.
///
/// Buffered flits are the compact 16-byte [`Flit`] (kind, packet-store
/// slot, packet id) plus an arrival stamp; the packet frame itself stays in
/// the network's packet store. Per-slot pipeline progress is summarised in
/// `u64` masks over the slots (occupied, per-output switch requests,
/// VA-pending, past-RC, and `fresh` — front flit delivered by a link this
/// cycle), so the pipeline stages test bits instead of walking buffers.
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    config: RouterConfig,
    /// Control state per input-VC slot (`port * vcs + vc`); 5 × `vcs` long.
    pub(crate) vc_state: Vec<VcState>,
    /// Flat flit storage: slot `s` owns `buf[s * depth .. (s + 1) * depth]`
    /// as a ring whose front sits at `vc_state[s].head`. Entries are
    /// `(flit, arrival_cycle)`.
    buf: Vec<(Flit, u64)>,
    /// Flit credits per downstream VC, indexed `out_port * vcs + vc`
    /// (starts at the buffer depth).
    pub(crate) out_credits: Vec<usize>,
    /// Whether each downstream VC is currently allocated to some packet,
    /// indexed `out_port * vcs + vc`.
    pub(crate) out_allocated: Vec<bool>,
    /// Round-robin pointers for switch allocation, one per output port
    /// (a slot index, `< 5 * vcs <= 60`).
    pub(crate) sa_rr: [u8; 5],
    /// Flits this router pushed through its crossbar (all output ports).
    pub(crate) flits_forwarded: u64,
    /// Packet headers that ran routing computation here (= packets that
    /// transited or terminated at this router).
    pub(crate) packets_routed: u64,
    /// Total flits across all input VCs, maintained incrementally by
    /// [`Router::push_flit`]/[`Router::pop_flit`] so
    /// [`Router::buffered_flits`] is an O(1) read instead of a 20-VC scan.
    buffered: usize,
    /// Input VCs currently sinking a dropped packet, maintained by
    /// [`Router::mark_dropping`] and [`Router::pop_flit`]; lets the switch
    /// stage skip its drop-sink scan on the (overwhelmingly common) routers
    /// with nothing to sink.
    dropping_vcs: usize,
    /// Bitmask over input-VC slots (`port * vcs + vc`) that currently hold
    /// at least one flit, maintained by [`Router::push_flit`] and
    /// [`Router::pop_flit`]. The pipeline stages iterate this instead of
    /// scanning all 5 × `vcs` buffers; empty VCs can never be granted,
    /// routed or allocated, so skipping them is invisible.
    occupied: u64,
    /// Per-output-direction switch requests: bit `s` is set iff
    /// `vc_state[s].route == Some(dir)`. Set by [`Router::set_route`],
    /// cleared when the packet's tail leaves in [`Router::pop_flit`]. Switch
    /// allocation arbitrates over `occupied & route_req[dir]` instead of
    /// re-reading every occupied slot's route five times per router.
    route_req: [u64; 5],
    /// Slots whose packet has a non-local route but no downstream VC yet —
    /// exactly the candidates VC allocation must consider. Set by
    /// [`Router::set_route`], cleared by [`Router::grant_out_vc`] and the
    /// tail pop.
    va_pending: u64,
    /// Slots whose resident packet is past routing computation (route
    /// chosen, or being sunk by a drop order). Routing computation scans
    /// `occupied & !pipeline_done` — only freshly arrived heads.
    pipeline_done: u64,
    /// Slots whose front flit a link delivered this cycle (the VC was empty
    /// before the delivery), set by [`Router::mark_fresh`] and consumed by
    /// switch traversal through [`Router::take_fresh`]. Such a flit's arrival
    /// stamp equals the current cycle, so it may not traverse the switch
    /// yet; the mask answers that without reading the stamp.
    fresh: u64,
}

impl Router {
    /// Creates an idle router with full credits.
    ///
    /// # Panics
    ///
    /// Panics if `config.vcs > 12`: the occupancy bitmask packs all
    /// 5 × `vcs` input-VC slots into one 64-bit word (Table I uses 4).
    #[must_use]
    pub fn new(id: NodeId, config: RouterConfig) -> Self {
        assert!(
            config.vcs * 5 <= 64,
            "at most 12 VCs per port supported (got {})",
            config.vcs
        );
        let slots = 5 * config.vcs;
        // Placeholder entries fill the slab so the ring indices are always
        // in bounds without unsafe; a slot's live region is exactly
        // `head .. head + len` (mod depth).
        let placeholder = (
            Flit {
                kind: FlitKind::Body,
                slot: 0,
                packet_id: 0,
            },
            0u64,
        );
        Router {
            id,
            config,
            vc_state: (0..slots).map(|_| VcState::new()).collect(),
            buf: vec![placeholder; slots * config.buffer_depth],
            out_credits: vec![config.buffer_depth; slots],
            out_allocated: vec![false; slots],
            sa_rr: [0; 5],
            flits_forwarded: 0,
            packets_routed: 0,
            buffered: 0,
            dropping_vcs: 0,
            occupied: 0,
            route_req: [0; 5],
            va_pending: 0,
            pipeline_done: 0,
            fresh: 0,
        }
    }

    /// This router's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The router's configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Flat index of input-VC (or output-VC) `vc` of `port`.
    #[inline]
    pub(crate) fn slot(&self, port: usize, vc: usize) -> usize {
        port * self.config.vcs + vc
    }

    /// Whether an input VC has room for one more flit.
    #[must_use]
    pub fn can_accept(&self, dir: Direction, vc: usize) -> bool {
        self.vc_has_space(self.slot(dir.index(), vc))
    }

    /// Whether input-VC slot `s` has room for one more flit.
    #[inline]
    pub(crate) fn vc_has_space(&self, s: usize) -> bool {
        (self.vc_state[s].len as usize) < self.config.buffer_depth
    }

    /// Buffered flit count of input-VC slot `s`. Only the debug-build
    /// invariant auditor reads it; release builds compile it out.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn vc_len(&self, s: usize) -> usize {
        self.vc_state[s].len as usize
    }

    /// The flit at the front of input-VC slot `s`, if any.
    #[inline]
    pub(crate) fn vc_front(&self, s: usize) -> Option<&Flit> {
        let st = &self.vc_state[s];
        if st.len == 0 {
            return None;
        }
        let depth = self.config.buffer_depth;
        Some(&self.buf[s * depth + st.head as usize].0)
    }

    /// Cycle at which the front flit of input-VC slot `s` entered its
    /// buffer.
    #[inline]
    pub(crate) fn vc_front_arrived_at(&self, s: usize) -> Option<u64> {
        let st = &self.vc_state[s];
        if st.len == 0 {
            return None;
        }
        let depth = self.config.buffer_depth;
        Some(self.buf[s * depth + st.head as usize].1)
    }

    /// Total buffered flits across all input VCs (used by congestion-aware
    /// diagnostics, the network's active-set bookkeeping and tests).
    ///
    /// An O(1) counter read; debug builds cross-check it against a full
    /// rescan of all 5 × `vcs` buffers so any drift in the incremental
    /// accounting fails loudly.
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.vc_state
                .iter()
                .map(|st| st.len as usize)
                .sum::<usize>(),
            "incremental flit counter drifted from buffer contents"
        );
        self.buffered
    }

    /// Whether the router holds no flits at all. O(1).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.buffered_flits() == 0
    }

    /// Pushes an arriving flit into input-VC slot `s`, keeping the
    /// incremental flit counter in sync. All buffer writes must go through
    /// here (or the counter drifts).
    #[inline]
    pub(crate) fn push_flit(&mut self, s: usize, flit: Flit, now: u64) {
        let depth = self.config.buffer_depth;
        let st = &mut self.vc_state[s];
        debug_assert!(
            (st.len as usize) < depth,
            "credit protocol violated: VC overrun"
        );
        let mut pos = st.head as usize + st.len as usize;
        if pos >= depth {
            pos -= depth;
        }
        let idx = s * depth + pos;
        st.len += 1;
        self.buf[idx] = (flit, now);
        self.buffered += 1;
        self.occupied |= 1 << s;
    }

    /// Pops the head flit of input-VC slot `s`, keeping the incremental
    /// flit and dropping-VC counters in sync. A tail pop clears the VC's
    /// per-packet pipeline state (route, out VC, inspected, dropping).
    #[inline]
    pub(crate) fn pop_flit(&mut self, s: usize) -> Option<Flit> {
        let depth = self.config.buffer_depth;
        let st = &mut self.vc_state[s];
        if st.len == 0 {
            return None;
        }
        let (flit, _) = self.buf[s * depth + st.head as usize];
        st.head += 1;
        if st.head as usize == depth {
            st.head = 0;
        }
        st.len -= 1;
        if st.len == 0 {
            self.occupied &= !(1 << s);
        }
        if flit.kind.is_tail() {
            let was_dropping = st.dropping;
            if let Some(dir) = st.route {
                self.route_req[dir.index()] &= !(1 << s);
            }
            self.va_pending &= !(1 << s);
            self.pipeline_done &= !(1 << s);
            st.clear_packet_state();
            if was_dropping {
                self.dropping_vcs -= 1;
            }
        }
        self.buffered -= 1;
        Some(flit)
    }

    /// Bitmask of input-VC slots (`port * vcs + vc`) holding flits; debug
    /// builds cross-check it against the buffers.
    #[inline]
    pub(crate) fn occupied_slots(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            let mut rescan = 0u64;
            for (s, st) in self.vc_state.iter().enumerate() {
                if st.len > 0 {
                    rescan |= 1 << s;
                }
            }
            debug_assert_eq!(self.occupied, rescan, "occupancy mask drifted");
        }
        self.occupied
    }

    /// Records that a link delivered the front flit of input-VC slot `s`
    /// this cycle.
    #[inline]
    pub(crate) fn mark_fresh(&mut self, s: usize) {
        self.fresh |= 1 << s;
    }

    /// Takes (and clears) the mask of slots whose front flit a link
    /// delivered this cycle. Switch traversal calls it once per router and
    /// cycle, before anything else, so the mask never outlives its cycle.
    #[inline]
    pub(crate) fn take_fresh(&mut self) -> u64 {
        std::mem::take(&mut self.fresh)
    }

    /// Asserts that the `fresh` mask names exactly the requesting slots
    /// whose front flit arrived at cycle `now` (debug-build audit of the
    /// arbiter's stamp-free eligibility test).
    #[cfg(debug_assertions)]
    pub(crate) fn debug_fresh_consistent(&self, req: u64, fresh: u64, now: u64) {
        for s in crate::active::BitsIter(req) {
            let arrived_now = self.vc_front_arrived_at(s) == Some(now);
            assert_eq!(
                fresh & (1 << s) != 0,
                arrived_now,
                "fresh mask disagrees with the arrival stamp of slot {s} at cycle {now}"
            );
        }
    }

    /// Whether no slot is marked fresh (debug end-of-cycle audit).
    #[cfg(debug_assertions)]
    pub(crate) fn debug_no_fresh(&self) -> bool {
        self.fresh == 0
    }

    /// Marks input-VC slot `s` as sinking a dropped packet. Idempotent.
    #[inline]
    pub(crate) fn mark_dropping(&mut self, s: usize) {
        let st = &mut self.vc_state[s];
        if !st.dropping {
            st.dropping = true;
            self.dropping_vcs += 1;
        }
        self.pipeline_done |= 1 << s;
    }

    /// Records routing computation's decision for the packet in slot `s`,
    /// keeping the switch-request / VC-allocation masks in sync. All route
    /// assignments must go through here (or the masks drift).
    #[inline]
    pub(crate) fn set_route(&mut self, s: usize, dir: Direction) {
        self.vc_state[s].route = Some(dir);
        let bit = 1u64 << s;
        self.route_req[dir.index()] |= bit;
        self.pipeline_done |= bit;
        if dir != Direction::Local {
            self.va_pending |= bit;
        }
    }

    /// Records VC allocation's grant of downstream VC `out_vc` to the packet
    /// in slot `s`, marking the downstream VC allocated and retiring the
    /// slot from the VA-pending mask.
    #[inline]
    pub(crate) fn grant_out_vc(&mut self, s: usize, out_vc: usize) {
        let od = self.vc_state[s]
            .route
            .expect("VA grant requires a computed route")
            .index();
        self.out_allocated[od * self.config.vcs + out_vc] = true;
        self.vc_state[s].out_vc = Some(out_vc as u8);
        self.va_pending &= !(1u64 << s);
    }

    /// Occupied slots requesting output port `od` — switch allocation's
    /// candidate set for that port.
    #[inline]
    pub(crate) fn switch_requests(&self, od: usize) -> u64 {
        self.occupied_slots() & self.route_req[od]
    }

    /// Occupied slots with a non-local route still awaiting a downstream
    /// VC — VC allocation's candidate set.
    #[inline]
    pub(crate) fn va_pending_slots(&self) -> u64 {
        self.occupied_slots() & self.va_pending
    }

    /// Occupied slots whose front packet still needs routing computation
    /// (no route yet, not being sunk).
    #[inline]
    pub(crate) fn unrouted_slots(&self) -> u64 {
        self.occupied_slots() & !self.pipeline_done
    }

    /// Rebuilds the pipeline-stage masks from `vc_state` and asserts they
    /// match the incrementally maintained ones (debug-build audit).
    #[cfg(debug_assertions)]
    pub(crate) fn debug_masks_consistent(&self) {
        let mut req = [0u64; 5];
        let mut va = 0u64;
        let mut done = 0u64;
        for (s, st) in self.vc_state.iter().enumerate() {
            if let Some(dir) = st.route {
                req[dir.index()] |= 1 << s;
                done |= 1 << s;
                if dir != Direction::Local && st.out_vc.is_none() {
                    va |= 1 << s;
                }
            }
            if st.dropping {
                done |= 1 << s;
            }
        }
        assert_eq!(self.route_req, req, "switch-request masks drifted");
        assert_eq!(self.va_pending, va, "VA-pending mask drifted");
        assert_eq!(self.pipeline_done, done, "pipeline-done mask drifted");
    }

    /// Whether any input VC is currently sinking a dropped packet. Gates
    /// the switch stage's drop-sink scan.
    #[inline]
    pub(crate) fn has_dropping(&self) -> bool {
        self.dropping_vcs > 0
    }

    /// Lowest-index idle local-input VC (empty, with no residual route) —
    /// the injection stage's VC selection for a new packet's head flit.
    #[inline]
    pub(crate) fn free_injection_vc(&self) -> Option<usize> {
        let base = Direction::Local.index() * self.config.vcs;
        (0..self.config.vcs).find(|&v| {
            let st = &self.vc_state[base + v];
            st.len == 0 && st.route.is_none()
        })
    }

    /// Finds a free downstream VC on output port `od`, preferring lower
    /// indices.
    #[inline]
    pub(crate) fn free_out_vc(&self, od: usize) -> Option<usize> {
        let base = od * self.config.vcs;
        (0..self.config.vcs).find(|&v| !self.out_allocated[base + v])
    }

    /// Free credit count on an output port, summed over VCs. Adaptive
    /// routing uses this as its congestion estimate.
    #[must_use]
    pub(crate) fn output_credits(&self, dir: Direction) -> usize {
        let base = dir.index() * self.config.vcs;
        self.out_credits[base..base + self.config.vcs].iter().sum()
    }

    /// Snapshot of one input VC's observable state (diagnostics; see
    /// [`VcSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if `in_port >= 5` or `vc >= config.vcs`.
    #[must_use]
    pub fn vc_snapshot(&self, in_port: usize, vc: usize) -> VcSnapshot {
        assert!(in_port < 5 && vc < self.config.vcs);
        let s = self.slot(in_port, vc);
        let st = &self.vc_state[s];
        VcSnapshot {
            occupancy: st.len as usize,
            front_packet: self.vc_front(s).map(|f| f.packet_id),
            front_arrived_at: self.vc_front_arrived_at(s),
            route: st.route,
            out_vc: st.out_vc.map(usize::from),
            inspected: st.inspected,
            dropping: st.dropping,
        }
    }

    /// Free credits this router holds for one downstream VC (diagnostics).
    #[must_use]
    pub fn output_credit(&self, dir: Direction, vc: usize) -> usize {
        self.out_credits[self.slot(dir.index(), vc)]
    }

    /// Whether a downstream VC is currently allocated to a packet
    /// (diagnostics).
    #[must_use]
    pub fn output_allocated(&self, dir: Direction, vc: usize) -> bool {
        self.out_allocated[self.slot(dir.index(), vc)]
    }

    /// Flits this router has pushed through its crossbar so far — a
    /// utilization measure for congestion heatmaps.
    #[must_use]
    pub fn flits_forwarded(&self) -> u64 {
        self.flits_forwarded
    }

    /// Packet headers that ran routing computation here.
    #[must_use]
    pub fn packets_routed(&self) -> u64 {
        self.packets_routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind};

    fn data_flits() -> Vec<Flit> {
        Flit::train(
            1,
            0,
            Packet::new(NodeId(0), NodeId(1), PacketKind::Data, 7).flit_count(),
        )
        .collect()
    }

    #[test]
    fn flit_counter_tracks_push_and_pop() {
        let mut r = Router::new(NodeId(0), RouterConfig::default());
        let s = r.slot(Direction::North.index(), 2);
        let flits = data_flits();
        let n = flits.len();
        for (i, f) in flits.into_iter().enumerate() {
            r.push_flit(s, f, i as u64);
            assert_eq!(r.buffered_flits(), i + 1);
        }
        assert!(!r.is_idle());
        for i in (0..n).rev() {
            assert!(r.pop_flit(s).is_some());
            assert_eq!(r.buffered_flits(), i);
        }
        assert!(r.is_idle());
        assert!(r.pop_flit(s).is_none());
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn ring_preserves_fifo_order_and_arrival_stamps() {
        let mut r = Router::new(NodeId(0), RouterConfig::default());
        let s = r.slot(Direction::East.index(), 1);
        // Fill, drain two, refill: the ring wraps across the slice edge.
        for (i, f) in data_flits().into_iter().enumerate() {
            assert!(r.vc_has_space(s));
            r.push_flit(s, f, 10 + i as u64);
        }
        assert!(!r.vc_has_space(s));
        assert_eq!(r.vc_front_arrived_at(s), Some(10));
        assert_eq!(r.vc_front(s).map(|f| f.kind), Some(FlitKind::Head));
        assert!(r.pop_flit(s).is_some());
        assert_eq!(r.vc_front_arrived_at(s), Some(11));
        assert!(r.pop_flit(s).is_some());
        let refill = data_flits();
        r.push_flit(s, refill[0], 20);
        r.push_flit(s, refill[1], 21);
        let kinds: Vec<FlitKind> = std::iter::from_fn(|| r.pop_flit(s))
            .map(|f| f.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail,
                FlitKind::Head,
                FlitKind::Body
            ]
        );
    }

    #[test]
    fn tail_pop_clears_route_state() {
        let mut r = Router::new(NodeId(0), RouterConfig::default());
        let s = r.slot(Direction::North.index(), 0);
        for f in data_flits() {
            r.push_flit(s, f, 0);
        }
        r.vc_state[s].route = Some(Direction::East);
        r.vc_state[s].out_vc = Some(2);
        r.vc_state[s].inspected = true;
        for _ in 0..4 {
            r.pop_flit(s);
            assert_eq!(r.vc_state[s].route, Some(Direction::East));
        }
        let tail = r.pop_flit(s).unwrap();
        assert_eq!(tail.kind, FlitKind::Tail);
        assert_eq!(r.vc_state[s].route, None);
        assert_eq!(r.vc_state[s].out_vc, None);
        assert!(!r.vc_state[s].inspected);
    }

    #[test]
    fn dropping_counter_clears_on_tail_pop() {
        let mut r = Router::new(NodeId(0), RouterConfig::default());
        let s = r.slot(Direction::East.index(), 0);
        let flits = data_flits();
        let n = flits.len();
        for f in flits {
            r.push_flit(s, f, 0);
        }
        assert!(!r.has_dropping());
        r.mark_dropping(s);
        r.mark_dropping(s); // idempotent
        assert!(r.has_dropping());
        for _ in 0..n - 1 {
            r.pop_flit(s);
            assert!(r.has_dropping());
        }
        r.pop_flit(s); // tail clears the flag
        assert!(!r.has_dropping());
        assert!(r.is_idle());
    }

    #[test]
    fn output_port_free_vc_prefers_lowest() {
        let mut r = Router::new(NodeId(0), RouterConfig::default());
        let od = Direction::South.index();
        assert_eq!(r.free_out_vc(od), Some(0));
        for vc in [0, 1] {
            let s = r.slot(od, vc);
            r.out_allocated[s] = true;
        }
        assert_eq!(r.free_out_vc(od), Some(2));
        for vc in 0..4 {
            let s = r.slot(od, vc);
            r.out_allocated[s] = true;
        }
        assert_eq!(r.free_out_vc(od), None);
        // Other ports are unaffected by this port's allocations.
        assert_eq!(r.free_out_vc(Direction::North.index()), Some(0));
    }

    #[test]
    fn default_config_matches_table1() {
        let c = RouterConfig::default();
        assert_eq!(c.vcs, 4);
        assert_eq!(c.buffer_depth, 5);
    }

    #[test]
    fn new_router_is_idle_with_full_credits() {
        let r = Router::new(NodeId(3), RouterConfig::default());
        assert!(r.is_idle());
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.flits_forwarded(), 0);
        assert_eq!(r.packets_routed(), 0);
        for dir in Direction::ALL {
            assert_eq!(r.output_credits(dir), 4 * 5);
            for vc in 0..4 {
                assert!(r.can_accept(dir, vc));
            }
        }
    }
}
