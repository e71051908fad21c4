use std::collections::VecDeque;

use crate::active::{ActiveSet, BitsIter};
use crate::error::NocError;
use crate::fault::{FaultAction, FaultHook};
use crate::flit::Flit;
use crate::inspect::{NullInspector, PacketInspector};
use crate::metrics::NocMetrics;
use crate::packet::{Packet, PacketKind};
use crate::router::{Router, RouterConfig};
use crate::routing::{RoutingAlgorithm, RoutingKind};
use crate::stats::NetworkStats;
use crate::store::PacketStore;
use crate::topology::{Direction, Mesh2d, NodeId};
use crate::trace::{TraceBuffer, TraceEvent};

/// Construction parameters of a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Mesh topology.
    pub mesh: Mesh2d,
    /// Per-router microarchitecture (VC count, buffer depth).
    pub router: RouterConfig,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Maximum number of flits a node's injection queue may hold before
    /// [`Network::inject`] reports back-pressure.
    pub injection_queue_capacity: usize,
    /// Packet-lifecycle tracing: `Some(capacity)` retains the newest
    /// `capacity` [`TraceEvent`]s in a ring buffer; `None` (default)
    /// disables tracing entirely.
    pub trace_capacity: Option<usize>,
}

impl NetworkConfig {
    /// Creates a configuration with Table-I defaults (4 VCs, 5-flit buffers,
    /// XY routing) on the given mesh.
    #[must_use]
    pub fn new(mesh: Mesh2d) -> Self {
        NetworkConfig {
            mesh,
            router: RouterConfig::default(),
            routing: RoutingKind::default(),
            injection_queue_capacity: 4096,
            trace_capacity: None,
        }
    }

    /// Enables packet-lifecycle tracing with the given ring-buffer
    /// capacity.
    #[must_use]
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Selects a routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Overrides the router microarchitecture.
    #[must_use]
    pub fn with_router(mut self, router: RouterConfig) -> Self {
        self.router = router;
        self
    }
}

/// A packet that reached its destination, with delivery metadata.
#[derive(Debug, Clone, Copy)]
pub struct DeliveredPacket {
    /// The packet as received — if a Trojan rewrote it en route, this is the
    /// tampered frame (the receiver cannot tell).
    pub packet: Packet,
    /// End-to-end latency in cycles, injection to tail ejection.
    pub latency: u64,
    /// Number of router-to-router hops traversed.
    pub hops: u32,
    /// Whether any inspector reported modifying this packet. This is ground
    /// truth available to the experimenter, not to the receiver.
    pub modified: bool,
}

/// A cycle-accurate wormhole-switched 2D-mesh network.
///
/// The per-cycle pipeline models a two-cycle router plus one-cycle links
/// (Table I): within [`Network::step`] the stages run in the order
/// *link delivery* → *switch traversal* → *injection* → *VC allocation* →
/// *routing computation & inspection*, so a head flit arriving in cycle *t*
/// is routed in *t*, allocated in *t + 1*, traverses the crossbar in *t + 2*
/// and lands in the next router's buffer in *t + 3*. Flits stamped into a
/// buffer in cycle *t* are not switch-eligible until *t + 1*. VC allocation
/// and routing computation touch only their own router's state, so they
/// share one pass over the routers (VA then RC at each router).
///
/// The inspector hook (the Trojan attachment point, Fig. 2b) runs once per
/// packet per router, immediately before routing computation.
///
/// # Active-set stepping
///
/// Per-cycle cost is proportional to *activity*, not mesh size: each stage
/// walks an incrementally-maintained worklist ([`ActiveSet`]) — routers
/// holding flits, occupied link slots, nodes with queued injections —
/// instead of scanning every router × port × VC. The worklists iterate in
/// ascending index order, which is exactly the order the original dense
/// scans used, so the optimisation is observably invisible (locked by the
/// golden-digest tests in `tests/determinism_golden.rs`). Invariants,
/// restored at the end of every [`Network::step`]:
///
/// * `active` = set of routers with `buffered_flits() > 0`;
/// * `links_occupied` = set of link indices with `links[i].is_some()`;
/// * `inject_busy` = set of nodes with a non-empty injection queue, and
///   `queued_flits` = total flits across all injection queues.
///
/// # Compact flits and the switch fast path
///
/// [`Network::inject`] moves the packet frame into a [`PacketStore`] slot;
/// the flits that buffers and links carry are only `{kind, slot,
/// packet_id}`. Routing reads the destination from the slot, the inspector
/// and the fault hook rewrite the frame there, and the tail's ejection
/// takes it back out. Switch traversal holds one `&mut Router` per router,
/// tests each output port's switch-request mask before its link (whose
/// occupancy is a bit in `links_occupied`), and masks out the router's
/// `fresh` slots — fronts delivered by a link this cycle — instead of
/// reading arrival stamps. With faults engaged, each port keeps the
/// historical check order so the hook sees the same call sequence.
pub struct Network<I: PacketInspector = NullInspector> {
    mesh: Mesh2d,
    routing: Box<dyn RoutingAlgorithm>,
    routers: Vec<Router>,
    /// `links[node * 4 + dir]`: flit in flight from `node` towards `dir`,
    /// together with the downstream VC it was allocated.
    links: Vec<Option<(Flit, usize)>>,
    injection_queues: Vec<VecDeque<Flit>>,
    /// Local input VC currently receiving an in-progress injected packet.
    injection_vc: Vec<Option<usize>>,
    injection_capacity: usize,
    /// Slab of in-flight packets: frame, injection cycle, hops, tamper flag.
    /// Flits carry only their slot index, so hot-path metadata touches are
    /// one array access and the flits switch traversal copies stay small.
    store: PacketStore,
    ejected: Vec<DeliveredPacket>,
    inspector: I,
    /// Optional deterministic fault layer ([`FaultHook`]). `None` (the
    /// default) costs one branch per [`Network::step`]; a hook whose
    /// [`FaultHook::any_faults_at`] returns `false` costs one virtual call.
    faults: Option<Box<dyn FaultHook>>,
    /// Optional live metrics ([`NocMetrics`]). `None` (the default) costs
    /// one branch per [`Network::step`] and one per flit push; the pipeline
    /// only ever *writes* these tallies, so enabling them cannot perturb
    /// behaviour (locked by the metrics-on golden digests and the
    /// conformance oracle).
    metrics: Option<Box<NocMetrics>>,
    stats: NetworkStats,
    trace: Option<TraceBuffer>,
    cycle: u64,
    next_packet_id: u64,
    /// Routers currently holding at least one buffered flit.
    active: ActiveSet,
    /// Link slots (`node * 4 + dir`) currently carrying a flit.
    links_occupied: ActiveSet,
    /// Nodes whose injection queue is non-empty.
    inject_busy: ActiveSet,
    /// Total flits waiting across all injection queues.
    queued_flits: usize,
    /// `neighbor_tbl[node * 4 + dir]`: the node across that link, flattened
    /// once at construction so the hot loops never recompute coordinates.
    neighbor_tbl: Vec<Option<NodeId>>,
    /// Reusable snapshot buffer for per-stage worklist iteration.
    scratch: Vec<u32>,
    /// Reusable buffer for deferred credit returns in switch traversal:
    /// `(upstream router, index into its out_credits)`.
    credit_scratch: Vec<(u32, u32)>,
    /// `slot_ports[s]` for input-VC slot `s = port * vcs + vc`: the input
    /// port, and the index of the upstream router's output credit counter
    /// the slot returns credits to (`opposite(port) * vcs + vc`). Spares the
    /// hot loops a runtime division by `vcs`.
    slot_ports: Vec<(u8, u8)>,
    /// Test-only seeded bug ([`Network::set_rr_skew`]): advance the switch
    /// round-robin pointer by 2 instead of 1 after each grant.
    rr_skew: bool,
}

impl Network<NullInspector> {
    /// Creates a clean (Trojan-free) network.
    #[must_use]
    pub fn new(config: NetworkConfig) -> Self {
        Network::with_inspector(config, NullInspector)
    }
}

impl<I: PacketInspector> Network<I> {
    /// Creates a network whose routers pass every packet header through
    /// `inspector` ahead of routing computation.
    #[must_use]
    pub fn with_inspector(config: NetworkConfig, inspector: I) -> Self {
        let nodes = config.mesh.nodes() as usize;
        Network {
            mesh: config.mesh,
            routing: config.routing.build(),
            routers: (0..nodes)
                .map(|i| Router::new(NodeId(i as u16), config.router))
                .collect(),
            links: vec![None; nodes * 4],
            injection_queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            injection_vc: vec![None; nodes],
            injection_capacity: config.injection_queue_capacity,
            store: PacketStore::new(),
            ejected: Vec::new(),
            inspector,
            faults: None,
            metrics: None,
            stats: NetworkStats::default(),
            trace: config.trace_capacity.map(TraceBuffer::new),
            cycle: 0,
            next_packet_id: 0,
            active: ActiveSet::new(nodes),
            links_occupied: ActiveSet::new(nodes * 4),
            inject_busy: ActiveSet::new(nodes),
            queued_flits: 0,
            neighbor_tbl: config.mesh.neighbor_table(),
            scratch: Vec::new(),
            credit_scratch: Vec::new(),
            slot_ports: (0..5 * config.router.vcs)
                .map(|s| {
                    let (port, vc) = (s / config.router.vcs, s % config.router.vcs);
                    // The local port has no upstream router; its entry is
                    // never read.
                    let up_out = Direction::OPPOSITE_INDEX.get(port).copied().unwrap_or(0);
                    (port as u8, (up_out * config.router.vcs + vc) as u8)
                })
                .collect(),
            rr_skew: false,
        }
    }

    /// Seeds a deliberate arbitration bug: after every switch grant the
    /// round-robin pointer advances by 2 slots instead of 1, perturbing
    /// fairness under contention. Exists solely so the differential oracle
    /// in `htpb-testkit` can demonstrate that it catches (and shrinks) a
    /// real pipeline mutation; never enable it outside that test rig.
    #[doc(hidden)]
    pub fn set_rr_skew(&mut self, on: bool) {
        self.rr_skew = on;
    }

    /// The mesh topology.
    #[must_use]
    pub fn mesh(&self) -> Mesh2d {
        self.mesh
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read access to the inspector.
    #[must_use]
    pub fn inspector(&self) -> &I {
        &self.inspector
    }

    /// Mutable access to the inspector (e.g. to re-arm Trojans mid-run).
    pub fn inspector_mut(&mut self) -> &mut I {
        &mut self.inspector
    }

    /// Installs a fault-injection hook (replacing any previous one). See
    /// [`FaultHook`] for where the pipeline consults it.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Removes and returns the installed fault hook, if any — the way to
    /// read back a fault plan's counters after a run.
    pub fn take_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.faults.take()
    }

    /// Whether a fault hook is currently installed.
    #[must_use]
    pub fn has_fault_hook(&self) -> bool {
        self.faults.is_some()
    }

    /// Enables live metric collection ([`NocMetrics`]). Idempotent; the
    /// single `Box` allocation happens here, before steady state, keeping
    /// [`Network::step`] allocation-free with metrics on (locked by
    /// `tests/alloc_regression.rs`).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::default());
        }
    }

    /// The live metrics, when enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&NocMetrics> {
        self.metrics.as_deref()
    }

    /// Aggregate network statistics.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// The packet-lifecycle trace, when tracing was enabled at
    /// construction.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Read access to a router (diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    #[must_use]
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.0 as usize]
    }

    /// Per-node crossbar utilization: flits forwarded by each router, in
    /// node order — the raw material for congestion heatmaps.
    #[must_use]
    pub fn utilization_map(&self) -> Vec<u64> {
        self.routers.iter().map(Router::flits_forwarded).collect()
    }

    /// Enqueues `packet` at its source node's injection queue and returns the
    /// simulator-assigned packet id.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] for addresses outside the mesh
    /// and [`NocError::InjectionQueueFull`] under back-pressure.
    pub fn inject(&mut self, packet: Packet) -> Result<u64, NocError> {
        for node in [packet.src(), packet.dst()] {
            if !self.mesh.contains(node) {
                return Err(NocError::NodeOutOfRange {
                    node,
                    nodes: self.mesh.nodes(),
                });
            }
        }
        let queue = &mut self.injection_queues[packet.src().0 as usize];
        if queue.len() + packet.flit_count() > self.injection_capacity {
            return Err(NocError::InjectionQueueFull { node: packet.src() });
        }
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let slot = self.store.alloc(id, self.cycle, packet);
        let n = packet.flit_count();
        queue.extend(Flit::train(id, slot, n));
        self.queued_flits += n;
        self.inject_busy.insert(packet.src().0 as usize);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::Injected {
                packet: id,
                kind: packet.kind(),
                src: packet.src(),
                dst: packet.dst(),
                cycle: self.cycle,
            });
        }
        self.stats.on_inject();
        Ok(id)
    }

    /// Takes all packets delivered since the previous call.
    pub fn drain_ejected(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.ejected)
    }

    /// Moves all packets delivered since the previous call into `out`
    /// (cleared first), swapping buffers so both sides recycle their
    /// capacity — the allocation-free variant of [`Self::drain_ejected`]
    /// for callers that drain every few cycles.
    pub fn drain_ejected_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        out.clear();
        std::mem::swap(&mut self.ejected, out);
    }

    /// Whether no flit is buffered, queued, or in flight anywhere. O(1) —
    /// both counters are maintained incrementally.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.store.live() == 0 && self.queued_flits == 0
    }

    /// Whether every pipeline stage would be a no-op this cycle: no router
    /// buffers a flit, no link carries one, no injection queue waits. O(1).
    ///
    /// Equivalent to [`Self::is_idle`] (every in-flight packet keeps at
    /// least its tail flit somewhere), but phrased in terms of the per-stage
    /// worklists so [`Self::step`] and [`Self::skip_idle_cycles`] can rely
    /// on it directly.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.active.is_empty() && self.links_occupied.is_empty() && self.queued_flits == 0
    }

    /// Advances the network by one cycle.
    // htpb-lint: hot
    pub fn step(&mut self) {
        if self.is_quiescent() {
            // Every stage is a no-op on a quiet network (faults included:
            // with no flit anywhere, a downed link, stalled router or
            // corrupted packet can have no effect); only time passes.
            self.cycle += 1;
            return;
        }
        // One gate call per cycle; when it reports no faults the stages
        // make zero further hook calls, keeping the empty-plan path
        // bit-identical to a build with no hook installed.
        let faults_engaged = match self.faults.as_mut() {
            Some(hook) => hook.any_faults_at(self.cycle),
            None => false,
        };
        if let Some(m) = self.metrics.as_deref_mut() {
            m.on_cycle(
                self.active.len(),
                self.links_occupied.len(),
                self.queued_flits,
            );
        }
        self.stage_link_delivery();
        self.stage_switch_traversal(faults_engaged);
        self.stage_injection();
        self.stage_allocation_and_routing(faults_engaged);
        self.cycle += 1;
        #[cfg(debug_assertions)]
        self.debug_check_invariants();
    }
    // htpb-lint: end-hot

    /// Always-on (debug builds) end-of-cycle invariant audit: packet
    /// conservation every cycle, plus — every 64th cycle, because they
    /// rescan the whole mesh — flit-presence bounds, per-VC credit
    /// conservation against downstream occupancy, and worklist consistency.
    /// Read-only, so release behaviour is bit-identical with the checks
    /// compiled out.
    #[cfg(debug_assertions)]
    fn debug_check_invariants(&self) {
        // Flit conservation, packet granularity: every injected packet is
        // delivered, dropped, or still tracked in flight — even under
        // fault-induced drops.
        assert_eq!(
            self.store.live() as u64,
            self.stats.injected_packets()
                - self.stats.delivered_packets()
                - self.stats.dropped_packets(),
            "packet conservation violated at cycle {}",
            self.cycle
        );
        if !self.cycle.is_multiple_of(64) {
            return;
        }
        // Flit presence: every in-flight packet keeps between 1 and
        // flit_count() flits somewhere (queued, buffered, or on a link).
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let on_links = self.links.iter().filter(|l| l.is_some()).count();
        let present = buffered + on_links + self.queued_flits;
        assert!(
            present >= self.store.live(),
            "cycle {}: {} in-flight packets but only {} flits present",
            self.cycle,
            self.store.live(),
            present
        );
        assert!(
            present <= self.store.live() * crate::flit::FLITS_PER_DATA_PACKET,
            "cycle {}: {} flits present exceed {} in-flight packets x max flits",
            self.cycle,
            present,
            self.store.live()
        );
        // Per-VC credit conservation: for every link, the upstream port's
        // credit count plus the downstream buffer occupancy plus any flit
        // in transit allocated to that VC must equal the buffer depth.
        let vcs = self.routers[0].config().vcs;
        let depth = self.routers[0].config().buffer_depth;
        for ri in 0..self.routers.len() {
            for dir in Direction::MESH {
                let li = ri * 4 + dir.index();
                let Some(down) = self.neighbor_tbl[li] else {
                    continue;
                };
                let in_port = Direction::OPPOSITE_INDEX[dir.index()];
                for vc in 0..vcs {
                    let credits = self.routers[ri].output_credit(dir, vc);
                    let down_router = &self.routers[down.0 as usize];
                    let downstream = down_router.vc_len(down_router.slot(in_port, vc));
                    let in_transit =
                        usize::from(matches!(self.links[li], Some((_, ovc)) if ovc == vc));
                    assert_eq!(
                        credits + downstream + in_transit,
                        depth,
                        "credit conservation violated at cycle {} on node {ri} dir {dir:?} vc {vc}",
                        self.cycle
                    );
                }
            }
        }
        // The incrementally maintained switch-request / VA-pending /
        // unrouted masks must agree with a rebuild from the VC state.
        for r in &self.routers {
            r.debug_masks_consistent();
            assert!(r.debug_no_fresh(), "fresh mask outlived its cycle");
        }
        // Worklist consistency: the active set is exactly the routers
        // holding flits, and the link set exactly the occupied slots.
        let mut snap = Vec::new();
        self.active.snapshot_into(&mut snap);
        let expect: Vec<u32> = (0..self.routers.len() as u32)
            .filter(|&i| self.routers[i as usize].buffered_flits() > 0)
            .collect();
        assert_eq!(snap, expect, "active set drifted at cycle {}", self.cycle);
        self.links_occupied.snapshot_into(&mut snap);
        let expect: Vec<u32> = (0..self.links.len() as u32)
            .filter(|&i| self.links[i as usize].is_some())
            .collect();
        assert_eq!(snap, expect, "link set drifted at cycle {}", self.cycle);
    }

    /// Advances the network `n` cycles.
    // htpb-lint: hot
    pub fn step_n(&mut self, n: u64) {
        if self.is_quiescent() {
            self.cycle += n;
            return;
        }
        for _ in 0..n {
            self.step();
        }
    }

    /// Advances the cycle counter by `n` without touching the pipeline.
    ///
    /// Only legal while [`Self::is_quiescent`] holds — each skipped cycle
    /// is then observably identical to a real [`Self::step`], which would
    /// no-op anyway. Lets callers that know the next injection time (e.g.
    /// an epoch-driven power manager) fast-forward across dead time.
    pub fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(
            self.is_quiescent(),
            "skip_idle_cycles called on a busy network"
        );
        self.cycle += n;
    }

    /// Steps until the network drains completely or `max_cycles` elapse.
    /// Returns `true` if the network went idle.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return true;
            }
            self.step();
        }
        self.is_idle()
    }

    // end of the step_n/run_until_idle driver region; the per-stage region
    // below re-opens because debug audits between them allocate freely.
    // htpb-lint: end-hot

    // htpb-lint: hot
    /// Stage 1: switch allocation + traversal. Each output port of each
    /// router forwards at most one flit per cycle, picked round-robin over
    /// the eligible (input port, VC) pairs. Virtual channels whose packet an
    /// inspector ordered dropped are drained into a sink instead (one flit
    /// per cycle, credits still returned upstream).
    ///
    /// When `faults_engaged`, the installed [`FaultHook`] may stall whole
    /// routers (skipped before the drop sink; their flits stay buffered and
    /// the router stays in the active set) and take links down (the output
    /// port behaves as if the link were busy).
    fn stage_switch_traversal(&mut self, faults_engaged: bool) {
        // One borrow per field, so the loop below holds a single
        // `&mut Router` per router alongside the store, links and tallies.
        let Network {
            routers,
            links,
            store,
            ejected,
            faults,
            metrics,
            stats,
            trace,
            cycle,
            active,
            links_occupied,
            neighbor_tbl,
            scratch,
            credit_scratch,
            slot_ports,
            rr_skew,
            ..
        } = self;
        let now = *cycle;
        let bump = 1 + usize::from(*rr_skew);
        let local = Direction::Local.index();
        let mut credit_returns = std::mem::take(credit_scratch);
        credit_returns.clear();
        // Within this stage routers only *lose* flits (pushes happen in link
        // delivery and injection), so a stage-entry snapshot of the active
        // set visits exactly the routers the dense scan's `buffered > 0`
        // filter would have, in the same ascending order.
        let mut worklist = std::mem::take(scratch);
        active.snapshot_into(&mut worklist);
        for &ri in &worklist {
            let ri = ri as usize;
            let node = NodeId(ri as u16);
            let r = &mut routers[ri];
            // Consumed first, so a stalled router's mask is cleared too.
            let fresh = r.take_fresh();
            // A stalled router forwards (and sinks) nothing this cycle. Its
            // flits stay buffered, so it is still a legitimate active-set
            // member and the end-of-loop removal below is correctly skipped.
            if faults_engaged {
                if let Some(hook) = faults.as_deref_mut() {
                    if hook.router_stalled(node, now) {
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_router_stalled();
                        }
                        continue;
                    }
                }
            }
            let vcs = r.config().vcs;
            let slots = 5 * vcs;
            // Sink stage for dropped packets — gated on the O(1) dropping
            // counter; routers with nothing to sink skip the 5 × VCs scan.
            // Ascending slot order == the historical (port, vc) nesting.
            if r.has_dropping() {
                for slot in 0..slots {
                    if !r.vc_state[slot].dropping {
                        continue;
                    }
                    let Some(flit) = r.pop_flit(slot) else {
                        continue;
                    };
                    credit_return(&mut credit_returns, neighbor_tbl, slot_ports, ri, slot);
                    if flit.kind.is_tail() {
                        store.free(flit.slot);
                        stats.on_packet_dropped();
                    }
                }
            }
            for od in 0..5 {
                let req = r.switch_requests(od);
                // With no requester the port has nothing to do — unless
                // faults are engaged, where the link-down hook must still
                // see the historical per-port call sequence.
                if req == 0 && !faults_engaged {
                    continue;
                }
                let li = ri * 4 + od;
                if od != local {
                    // Output link must be free this cycle (one flit per
                    // cycle).
                    if links_occupied.contains(li) {
                        continue;
                    }
                    // A downed link is indistinguishable from a busy one:
                    // the port simply skips arbitration this cycle.
                    if faults_engaged {
                        if let Some(hook) = faults.as_deref_mut() {
                            if hook.link_down(node, Direction::ALL[od], now) {
                                continue;
                            }
                        }
                    }
                }
                #[cfg(debug_assertions)]
                r.debug_fresh_consistent(req, fresh, now);
                // A flit spends at least one full cycle buffered before it
                // may traverse the switch (two-cycle router floor): slots
                // whose front a link delivered this cycle are not eligible.
                let eligible = req & !fresh;
                if eligible == 0 {
                    continue;
                }
                // Round-robin over the eligible requesters only: slots >=
                // start ascending, then the wrap-around below start — the
                // same visit order as the dense `(start + off) % slots`
                // scan, minus the slots it could never have granted.
                // Rotating the mask right by `start` yields exactly that
                // order, since bits at and above `slots` are always clear.
                let start = u32::from(r.sa_rr[od]);
                let mut granted = None;
                for b in BitsIter(eligible.rotate_right(start)) {
                    let slot = (b + start as usize) & 63;
                    let st = &r.vc_state[slot];
                    debug_assert!(st.len > 0, "occupied slot holds no flit");
                    debug_assert_eq!(st.route, Some(Direction::ALL[od]), "request mask drifted");
                    if od != local {
                        let Some(ovc) = st.out_vc else { continue };
                        if r.out_credits[od * vcs + usize::from(ovc)] == 0 {
                            continue;
                        }
                    }
                    granted = Some(slot);
                    break;
                }
                let Some(slot) = granted else {
                    continue;
                };
                let mut next = slot + bump;
                if next >= slots {
                    next -= slots;
                }
                r.sa_rr[od] = next as u8;
                r.flits_forwarded += 1;
                let out_vc = r.vc_state[slot].out_vc;
                let flit = r.pop_flit(slot).expect("granted VC nonempty");
                // Return a credit upstream for the buffer slot just freed.
                credit_return(&mut credit_returns, neighbor_tbl, slot_ports, ri, slot);
                if od == local {
                    // Ejection: the tail completes delivery of the frame
                    // held in the packet store.
                    stats.on_flit_delivered();
                    if flit.kind.is_tail() {
                        let (packet, injected_at, hops, modified) = store.finish(flit.slot);
                        let latency = now - injected_at;
                        stats.on_packet_delivered(
                            latency,
                            u64::from(hops),
                            modified,
                            matches!(packet.kind(), PacketKind::PowerReq),
                        );
                        if let Some(trace) = trace.as_mut() {
                            trace.record(TraceEvent::Ejected {
                                packet: flit.packet_id,
                                node: packet.dst(),
                                cycle: now,
                            });
                        }
                        ejected.push(DeliveredPacket {
                            packet,
                            latency,
                            hops,
                            modified,
                        });
                    }
                } else {
                    let ovc = usize::from(out_vc.expect("non-local ST requires an allocated VC"));
                    let ci = od * vcs + ovc;
                    r.out_credits[ci] -= 1;
                    if flit.kind.is_tail() {
                        // Path released: downstream VC becomes reusable once
                        // its buffer drains; dealloc happens on downstream pop
                        // via the credit-return channel below.
                        r.out_allocated[ci] = false;
                    }
                    if flit.kind.is_head() {
                        store.bump_hops(flit.slot);
                    }
                    debug_assert!(links[li].is_none());
                    links[li] = Some((flit, ovc));
                    links_occupied.insert(li);
                }
            }
            if r.buffered_flits() == 0 {
                active.remove(ri);
            }
        }
        *scratch = worklist;
        for &(up, ci) in &credit_returns {
            let r = &mut routers[up as usize];
            r.out_credits[ci as usize] += 1;
            debug_assert!(
                r.out_credits[ci as usize] <= r.config().buffer_depth,
                "credit overflow"
            );
        }
        *credit_scratch = credit_returns;
    }

    /// Stage 2a: flits on links land in downstream input buffers.
    fn stage_link_delivery(&mut self) {
        if self.links_occupied.is_empty() {
            return;
        }
        // Ascending link index == (node ascending, direction in N/S/E/W
        // index order) — the exact order of the dense double loop.
        let mut worklist = std::mem::take(&mut self.scratch);
        self.links_occupied.snapshot_into(&mut worklist);
        let now = self.cycle;
        for &li in &worklist {
            let li = li as usize;
            let (flit, ovc) = self.links[li].take().expect("occupied link holds a flit");
            let dst_node = self.neighbor_tbl[li].expect("link endpoints are mesh neighbours");
            let in_port = Direction::OPPOSITE_INDEX[li % 4];
            let di = dst_node.0 as usize;
            let r = &mut self.routers[di];
            let s = r.slot(in_port, ovc);
            r.push_flit(s, flit, now);
            let occupancy = r.vc_len(s);
            if occupancy == 1 {
                // The flit is its VC's front: switch traversal must hold it
                // back this cycle.
                r.mark_fresh(s);
            }
            if let Some(m) = self.metrics.as_deref_mut() {
                m.on_flit_buffered(occupancy);
            }
            self.active.insert(di);
        }
        // Every occupied link delivered its flit above.
        self.links_occupied.clear();
        self.scratch = worklist;
    }

    /// Stage 2b: injection — at most one flit per node per cycle moves from
    /// the injection queue into a free local-input VC.
    fn stage_injection(&mut self) {
        if self.inject_busy.is_empty() {
            return;
        }
        let now = self.cycle;
        let mut worklist = std::mem::take(&mut self.scratch);
        self.inject_busy.snapshot_into(&mut worklist);
        for &ri in &worklist {
            let ri = ri as usize;
            let front = self.injection_queues[ri]
                .front()
                .expect("inject_busy tracks non-empty queues");
            let local = Direction::Local.index();
            let target_vc = if front.kind.is_head() {
                // A new packet needs an idle local VC.
                match self.routers[ri].free_injection_vc() {
                    Some(v) => v,
                    None => continue,
                }
            } else {
                match self.injection_vc[ri] {
                    Some(v) => v,
                    None => continue,
                }
            };
            let slot = self.routers[ri].slot(local, target_vc);
            if !self.routers[ri].vc_has_space(slot) {
                continue;
            }
            let flit = self.injection_queues[ri]
                .pop_front()
                .expect("front checked");
            self.queued_flits -= 1;
            if self.injection_queues[ri].is_empty() {
                self.inject_busy.remove(ri);
            }
            self.injection_vc[ri] = if flit.kind.is_tail() {
                None
            } else {
                Some(target_vc)
            };
            self.routers[ri].push_flit(slot, flit, now);
            let occupancy = self.routers[ri].vc_len(slot);
            if let Some(m) = self.metrics.as_deref_mut() {
                m.on_flit_buffered(occupancy);
            }
            self.active.insert(ri);
        }
        self.scratch = worklist;
    }

    /// Stages 3 and 4, one pass per router. VC allocation: input VCs that
    /// know their output port acquire a free downstream VC. Then routing
    /// computation, preceded by the inspection hook — the point where an
    /// implanted Trojan reads and possibly rewrites the packet (Fig. 2b).
    ///
    /// Running VA then RC per router, routers ascending, is observably the
    /// same as VA over all routers followed by RC over all routers: both
    /// read and write only their own router's state (a route chosen by RC
    /// reaches VA next cycle either way), and only RC calls the inspector,
    /// the fault hook and the trace, in unchanged router order.
    ///
    /// When `faults_engaged`, the installed [`FaultHook`] runs immediately
    /// after the inspector on the same once-per-packet-per-router
    /// discipline: payload bit flips reuse the tamper bookkeeping,
    /// whole-packet drops reuse the inspector's drop-sink machinery.
    fn stage_allocation_and_routing(&mut self, faults_engaged: bool) {
        // VA and RC move no flits (the inspector only sees the packet
        // header), so the active snapshot equals the dense scan's
        // `buffered > 0` filter throughout the stage.
        let mut worklist = std::mem::take(&mut self.scratch);
        self.active.snapshot_into(&mut worklist);
        for &ri in &worklist {
            let ri = ri as usize;
            let node = NodeId(ri as u16);
            // VC allocation. Ascending slot order == the dense (port, vc)
            // double loop; the VA-pending mask names exactly the slots the
            // dense scan's route/out-VC filters would have acted on.
            let r = &mut self.routers[ri];
            for slot in BitsIter(r.va_pending_slots()) {
                let st = &r.vc_state[slot];
                debug_assert!(
                    st.out_vc.is_none() && st.route.is_some_and(|d| d != Direction::Local),
                    "VA-pending mask drifted"
                );
                let od = st.route.expect("VA-pending slot has a route").index();
                if let Some(free) = r.free_out_vc(od) {
                    r.grant_out_vc(slot, free);
                }
            }
            // Routing computation and inspection.
            // Ascending slot order == the dense (port, vc) double loop; the
            // unrouted mask names exactly the occupied slots the dense
            // scan's route/dropping filters would have reached.
            for slot in BitsIter(self.routers[ri].unrouted_slots()) {
                let in_port = self.slot_ports[slot].0 as usize;
                {
                    let st = &self.routers[ri].vc_state[slot];
                    debug_assert!(st.route.is_none() && !st.dropping, "unrouted mask drifted");
                    let needs_inspection = !st.inspected;
                    let Some(&front) = self.routers[ri].vc_front(slot) else {
                        continue;
                    };
                    if !front.kind.is_head() {
                        continue;
                    }
                    let packet_id = front.packet_id;
                    let meta_slot = front.slot;
                    if needs_inspection {
                        // The inspector and the fault hook rewrite the frame
                        // in its packet-store slot; every later router and
                        // the receiver read it from there.
                        let packet = self.store.packet_mut(meta_slot);
                        let payload_before = packet.payload();
                        let outcome = self.inspector.inspect(node, self.cycle, packet);
                        if outcome.dropped {
                            // The whole packet will be sunk here; no route is
                            // ever computed for it.
                            self.routers[ri].mark_dropping(slot);
                            self.routers[ri].vc_state[slot].inspected = true;
                            continue;
                        }
                        if outcome.modified {
                            let payload_after = packet.payload();
                            self.store.set_modified(meta_slot);
                            if let Some(trace) = self.trace.as_mut() {
                                trace.record(TraceEvent::Tampered {
                                    packet: packet_id,
                                    node,
                                    payload_before,
                                    payload_after,
                                    cycle: self.cycle,
                                });
                            }
                        }
                        let packet = self.store.packet_mut(meta_slot);
                        let action = match self.faults.as_mut() {
                            Some(hook) if faults_engaged => {
                                hook.packet_fault(node, self.cycle, packet)
                            }
                            _ => FaultAction::none(),
                        };
                        if action.drop {
                            self.routers[ri].mark_dropping(slot);
                            self.routers[ri].vc_state[slot].inspected = true;
                            continue;
                        }
                        if action.flip_mask != 0 {
                            let before = packet.payload();
                            packet.set_payload(before ^ action.flip_mask);
                            let after = packet.payload();
                            self.store.set_modified(meta_slot);
                            if let Some(trace) = self.trace.as_mut() {
                                trace.record(TraceEvent::Tampered {
                                    packet: packet_id,
                                    node,
                                    payload_before: before,
                                    payload_after: after,
                                    cycle: self.cycle,
                                });
                            }
                        }
                    }
                    if let Some(trace) = self.trace.as_mut() {
                        trace.record(TraceEvent::Routed {
                            packet: packet_id,
                            node,
                            cycle: self.cycle,
                        });
                    }
                    let dst = self.store.packet(meta_slot).dst();
                    let candidates =
                        self.routing
                            .route(self.mesh, node, dst, Direction::ALL[in_port]);
                    debug_assert!(!candidates.is_empty());
                    let chosen = if candidates.len() == 1 {
                        candidates[0]
                    } else {
                        // Adaptive: prefer the candidate with the most free
                        // downstream credits.
                        *candidates
                            .iter()
                            .max_by_key(|d| self.routers[ri].output_credits(**d))
                            .expect("nonempty candidates")
                    };
                    self.routers[ri].set_route(slot, chosen);
                    self.routers[ri].vc_state[slot].inspected = true;
                    self.routers[ri].packets_routed += 1;
                }
            }
        }
        self.scratch = worklist;
    }

    // htpb-lint: end-hot
}

/// Queues the credit that freeing one flit of input-VC slot `slot` of router
/// `ri` owes the upstream router (none for the local port or a mesh edge).
#[inline]
fn credit_return(
    out: &mut Vec<(u32, u32)>,
    neighbor_tbl: &[Option<NodeId>],
    slot_ports: &[(u8, u8)],
    ri: usize,
    slot: usize,
) {
    let (in_port, up_credit) = slot_ports[slot];
    if in_port as usize == Direction::Local.index() {
        return;
    }
    if let Some(up) = neighbor_tbl[ri * 4 + in_port as usize] {
        out.push((u32::from(up.0), u32::from(up_credit)));
    }
}

impl<I: PacketInspector + std::fmt::Debug> std::fmt::Debug for Network<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("cycle", &self.cycle)
            .field("in_flight", &self.store.live())
            .field("inspector", &self.inspector)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(w: u16, h: u16) -> Network {
        Network::new(NetworkConfig::new(Mesh2d::new(w, h).unwrap()))
    }

    #[test]
    fn single_packet_delivered_with_expected_latency() {
        let mut n = net(4, 4);
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 42))
            .unwrap();
        assert!(n.run_until_idle(200));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 42);
        assert_eq!(out[0].hops, 3);
        // 3 hops * (2-cycle router + 1-cycle link) + source router + ejection
        // overhead: latency is small but nonzero.
        assert!(out[0].latency >= 9, "latency {}", out[0].latency);
        assert!(out[0].latency <= 20, "latency {}", out[0].latency);
        assert!(!out[0].modified);
    }

    #[test]
    fn self_addressed_packet_is_delivered() {
        let mut n = net(4, 4);
        n.inject(Packet::power_request(NodeId(5), NodeId(5), 7))
            .unwrap();
        assert!(n.run_until_idle(100));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].hops, 0);
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut n = net(8, 8);
        let mut expected = 0u64;
        for s in 0..64u16 {
            for d in [0u16, 63, 27] {
                n.inject(Packet::power_request(NodeId(s), NodeId(d), s as u32))
                    .unwrap();
                expected += 1;
            }
        }
        assert!(n.run_until_idle(100_000));
        assert_eq!(n.stats().delivered_packets(), expected);
        assert_eq!(n.stats().delivered_power_requests(), expected);
        assert_eq!(n.stats().infection_rate(), 0.0);
    }

    #[test]
    fn data_packets_reassembled() {
        let mut n = net(4, 4);
        n.inject(Packet::new(NodeId(0), NodeId(15), PacketKind::Data, 99))
            .unwrap();
        assert!(n.run_until_idle(500));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 99);
        assert_eq!(n.stats().delivered_flits(), 5);
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut n = net(4, 4);
        let err = n
            .inject(Packet::power_request(NodeId(0), NodeId(16), 1))
            .unwrap_err();
        assert!(matches!(err, NocError::NodeOutOfRange { .. }));
    }

    #[test]
    fn inspector_tampering_is_observed() {
        #[derive(Debug)]
        struct HalveAtNode(NodeId);
        impl PacketInspector for HalveAtNode {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 && matches!(packet.kind(), PacketKind::PowerReq) {
                    packet.set_payload(packet.payload() / 2);
                    crate::InspectOutcome::tampered()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 4).unwrap();
        // XY route 0 -> 3 passes nodes 0,1,2,3. Trojan at node 2.
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), HalveAtNode(NodeId(2)));
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 100))
            .unwrap();
        // A packet that avoids node 2 stays clean.
        n.inject(Packet::power_request(NodeId(4), NodeId(7), 100))
            .unwrap();
        assert!(n.run_until_idle(500));
        let out = n.drain_ejected();
        let tampered: Vec<_> = out.iter().filter(|d| d.modified).collect();
        assert_eq!(tampered.len(), 1);
        assert_eq!(tampered[0].packet.payload(), 50);
        assert_eq!(tampered[0].packet.dst(), NodeId(3));
        assert!((n.stats().infection_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inspection_happens_once_per_hop() {
        #[derive(Debug, Default)]
        struct Counter(std::collections::HashMap<NodeId, u32>);
        impl PacketInspector for Counter {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                _packet: &mut Packet,
            ) -> crate::InspectOutcome {
                *self.0.entry(router).or_default() += 1;
                crate::InspectOutcome::untouched()
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), Counter::default());
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 1))
            .unwrap();
        assert!(n.run_until_idle(200));
        let counts = &n.inspector().0;
        // Every router on the path saw the header exactly once.
        for node in [0u16, 1, 2, 3] {
            assert_eq!(counts.get(&NodeId(node)), Some(&1), "node {node}");
        }
    }

    #[test]
    fn heavy_hotspot_traffic_drains() {
        // Everyone sends to the center: worst-case contention for VCs and
        // credits; the network must not deadlock or drop flits.
        let mesh = Mesh2d::new(8, 8).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh));
        let center = mesh.center();
        for round in 0..4 {
            for s in mesh.iter_nodes() {
                if s != center {
                    n.inject(Packet::power_request(s, center, round * 100 + s.0 as u32))
                        .unwrap();
                }
            }
        }
        assert!(n.run_until_idle(200_000), "hotspot traffic deadlocked");
        assert_eq!(n.stats().delivered_packets(), 4 * 63);
    }

    #[test]
    fn adaptive_routing_delivers_hotspot() {
        let mesh = Mesh2d::new(8, 8).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh).with_routing(RoutingKind::OddEven));
        let center = mesh.center();
        for s in mesh.iter_nodes() {
            if s != center {
                n.inject(Packet::power_request(s, center, 1)).unwrap();
            }
        }
        assert!(n.run_until_idle(100_000), "odd-even deadlocked");
        assert_eq!(n.stats().delivered_packets(), 63);
    }

    #[test]
    fn mixed_data_and_meta_traffic_drains() {
        let mesh = Mesh2d::new(6, 6).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh));
        for s in mesh.iter_nodes() {
            let d = NodeId((s.0 as u32 * 7 % 36) as u16);
            if s == d {
                continue;
            }
            n.inject(Packet::new(s, d, PacketKind::Data, s.0 as u32))
                .unwrap();
            n.inject(Packet::new(s, d, PacketKind::Meta, s.0 as u32))
                .unwrap();
        }
        assert!(n.run_until_idle(100_000));
        assert!(n.stats().delivered_packets() >= 60);
    }

    #[test]
    fn router_counters_track_activity() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh));
        n.inject(Packet::power_request(NodeId(3), NodeId(0), 1))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        // Every router on the path routed the header once and forwarded the
        // single flit once.
        for node in [3u16, 2, 1, 0] {
            let r = n.router(NodeId(node));
            assert_eq!(r.packets_routed(), 1, "node {node}");
            assert_eq!(r.flits_forwarded(), 1, "node {node}");
        }
        let map = n.utilization_map();
        assert_eq!(map, vec![1, 1, 1, 1]);
    }

    #[test]
    fn tracing_reconstructs_packet_life() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh).with_tracing(256));
        let id = n
            .inject(Packet::power_request(NodeId(3), NodeId(0), 1))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let trace = n.trace().expect("tracing enabled");
        let hist = trace.packet_history(id);
        assert!(matches!(
            hist.first(),
            Some(crate::TraceEvent::Injected { .. })
        ));
        assert!(matches!(
            hist.last(),
            Some(crate::TraceEvent::Ejected { .. })
        ));
        assert_eq!(
            trace.packet_route(id),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
        assert!(trace.tamper_hotspots().is_empty());
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let n = Network::new(NetworkConfig::new(mesh));
        assert!(n.trace().is_none());
    }

    #[test]
    fn tracing_records_tamper_events() {
        #[derive(Debug)]
        struct ZeroAt(NodeId);
        impl PacketInspector for ZeroAt {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 && packet.payload() != 0 {
                    packet.set_payload(0);
                    return crate::InspectOutcome::tampered();
                }
                crate::InspectOutcome::untouched()
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(
            NetworkConfig::new(mesh).with_tracing(256),
            ZeroAt(NodeId(1)),
        );
        let id = n
            .inject(Packet::power_request(NodeId(3), NodeId(0), 777))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let trace = n.trace().unwrap();
        let tampered: Vec<_> = trace
            .packet_history(id)
            .into_iter()
            .filter(|e| matches!(e, crate::TraceEvent::Tampered { .. }))
            .collect();
        assert_eq!(tampered.len(), 1);
        if let crate::TraceEvent::Tampered {
            node,
            payload_before,
            payload_after,
            ..
        } = tampered[0]
        {
            assert_eq!(node, NodeId(1));
            assert_eq!(payload_before, 777);
            assert_eq!(payload_after, 0);
        }
        assert_eq!(trace.tamper_hotspots(), vec![(NodeId(1), 1)]);
    }

    #[test]
    fn dropping_inspector_sinks_packets_cleanly() {
        #[derive(Debug)]
        struct DropAt(NodeId);
        impl PacketInspector for DropAt {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 && matches!(packet.kind(), PacketKind::PowerReq) {
                    crate::InspectOutcome::dropped()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), DropAt(NodeId(2)));
        // Crosses node 2: dropped. Does not: delivered.
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 1))
            .unwrap();
        n.inject(Packet::power_request(NodeId(4), NodeId(7), 2))
            .unwrap();
        // A 5-flit data packet through the drop point passes (only PowerReq
        // is matched by this inspector).
        n.inject(Packet::new(NodeId(0), NodeId(3), PacketKind::Data, 3))
            .unwrap();
        assert!(n.run_until_idle(10_000), "drop left the network busy");
        let out = n.drain_ejected();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.packet.payload() != 1));
        assert_eq!(n.stats().dropped_packets(), 1);
        assert_eq!(n.stats().delivered_packets(), 2);
    }

    #[test]
    fn dropping_multiflit_packets_releases_all_resources() {
        #[derive(Debug)]
        struct DropAll;
        impl PacketInspector for DropAll {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                _packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == NodeId(1) {
                    crate::InspectOutcome::dropped()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), DropAll);
        // Several 5-flit packets through the sink, back to back: buffers and
        // credits must fully recover.
        for i in 0..8 {
            n.inject(Packet::new(NodeId(3), NodeId(0), PacketKind::Data, i))
                .unwrap();
        }
        assert!(n.run_until_idle(50_000), "sink leaked resources");
        assert_eq!(n.stats().dropped_packets(), 8);
        assert_eq!(n.stats().delivered_packets(), 0);
        assert!(n.router(NodeId(1)).is_idle());
        // The sink router's buffers drained; credits fully restored on its
        // upstream neighbour.
        for vcid in 0..4 {
            assert!(n.router(NodeId(2)).can_accept(Direction::West, vcid));
        }
    }

    #[test]
    fn multiflit_frame_tampered_en_route_and_at_destination_is_delivered() {
        /// Rewrites data payloads at the listed routers: adds 1000 at an
        /// intermediate router, doubles at the destination.
        #[derive(Debug)]
        struct RewriteData {
            mid: NodeId,
            dst: NodeId,
        }
        impl PacketInspector for RewriteData {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if !matches!(packet.kind(), PacketKind::Data) {
                    return crate::InspectOutcome::untouched();
                }
                if router == self.mid {
                    packet.set_payload(packet.payload() + 1000);
                } else if router == self.dst {
                    packet.set_payload(packet.payload() * 2);
                } else {
                    return crate::InspectOutcome::untouched();
                }
                crate::InspectOutcome::tampered()
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(
            NetworkConfig::new(mesh),
            RewriteData {
                mid: NodeId(2),
                dst: NodeId(3),
            },
        );
        // Path 0 -> 1 -> 2 -> 3: a 5-flit frame rewritten at intermediate
        // router 2, then again at its destination.
        n.inject(Packet::new(NodeId(0), NodeId(3), PacketKind::Data, 7))
            .unwrap();
        // A clean frame behind it keeps its payload.
        n.inject(Packet::new(NodeId(0), NodeId(1), PacketKind::Data, 9))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 2);
        let tampered = out.iter().find(|d| d.packet.dst() == NodeId(3)).unwrap();
        assert_eq!(tampered.packet.payload(), (7 + 1000) * 2);
        assert!(tampered.modified);
        assert_eq!(tampered.hops, 3);
        let clean = out.iter().find(|d| d.packet.dst() == NodeId(1)).unwrap();
        assert_eq!(clean.packet.payload(), 9);
        assert!(!clean.modified);
        assert_eq!(n.stats().delivered_flits(), 10);
        assert_eq!(n.store.live(), 0);
    }

    #[test]
    fn dropped_multiflit_packet_frees_its_store_slot() {
        #[derive(Debug)]
        struct DropAt(NodeId);
        impl PacketInspector for DropAt {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                _packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 {
                    crate::InspectOutcome::dropped()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), DropAt(NodeId(2)));
        n.inject(Packet::new(NodeId(0), NodeId(3), PacketKind::Data, 1))
            .unwrap();
        assert_eq!(n.store.live(), 1);
        assert!(n.run_until_idle(1_000));
        assert!(n.is_idle());
        assert_eq!(n.store.live(), 0, "dropped packet leaked its slot");
        assert_eq!(n.stats().dropped_packets(), 1);
        assert!(n.drain_ejected().is_empty());
        // The freed slot is reused by the next packet (off the drop point),
        // which is delivered with its own frame.
        n.inject(Packet::new(NodeId(1), NodeId(0), PacketKind::Data, 5))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 5);
        assert_eq!(n.store.live(), 0);
    }

    #[test]
    fn stats_latency_increases_with_distance() {
        let mesh = Mesh2d::new(16, 1).unwrap();
        let mut near = Network::new(NetworkConfig::new(mesh));
        near.inject(Packet::power_request(NodeId(0), NodeId(1), 1))
            .unwrap();
        near.run_until_idle(100);
        let near_lat = near.drain_ejected()[0].latency;

        let mut far = Network::new(NetworkConfig::new(mesh));
        far.inject(Packet::power_request(NodeId(0), NodeId(15), 1))
            .unwrap();
        far.run_until_idle(200);
        let far_lat = far.drain_ejected()[0].latency;
        assert!(far_lat > near_lat, "{far_lat} vs {near_lat}");
        // Each extra hop costs ~3 cycles (2-cycle router + 1-cycle link).
        assert!(far_lat - near_lat >= 14 * 2);
    }

    /// A scriptable hook for the fault-path tests below.
    #[derive(Debug, Default)]
    struct ScriptedFaults {
        stall_node: Option<(NodeId, u64)>,
        down_link: Option<(NodeId, Direction, u64)>,
        flip_mask: u32,
        drop_at: Option<NodeId>,
    }

    impl crate::FaultHook for ScriptedFaults {
        fn any_faults_at(&mut self, _cycle: u64) -> bool {
            true
        }
        fn link_down(&mut self, node: NodeId, dir: Direction, cycle: u64) -> bool {
            matches!(self.down_link, Some((n, d, until)) if n == node && d == dir && cycle < until)
        }
        fn router_stalled(&mut self, node: NodeId, cycle: u64) -> bool {
            matches!(self.stall_node, Some((n, until)) if n == node && cycle < until)
        }
        fn packet_fault(&mut self, node: NodeId, _cycle: u64, _p: &Packet) -> crate::FaultAction {
            if self.drop_at == Some(node) {
                crate::FaultAction::drop_packet()
            } else {
                crate::FaultAction::flip(self.flip_mask)
            }
        }
    }

    fn faulty_net(w: u16, h: u16, faults: ScriptedFaults) -> Network {
        let mut n = net(w, h);
        n.set_fault_hook(Box::new(faults));
        n
    }

    #[test]
    fn stalled_router_delays_but_delivers() {
        let baseline = {
            let mut n = net(4, 1);
            n.inject(Packet::power_request(NodeId(0), NodeId(3), 7))
                .unwrap();
            assert!(n.run_until_idle(1_000));
            n.drain_ejected()[0].latency
        };
        let mut n = faulty_net(
            4,
            1,
            ScriptedFaults {
                stall_node: Some((NodeId(1), 50)),
                ..ScriptedFaults::default()
            },
        );
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 7))
            .unwrap();
        assert!(n.run_until_idle(1_000), "stall must end, not deadlock");
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 7);
        assert!(!out[0].modified);
        assert!(
            out[0].latency > baseline + 20,
            "stall did not delay: {} vs {}",
            out[0].latency,
            baseline
        );
    }

    #[test]
    fn downed_link_delays_but_delivers() {
        let mut n = faulty_net(
            4,
            1,
            ScriptedFaults {
                down_link: Some((NodeId(1), Direction::East, 60)),
                ..ScriptedFaults::default()
            },
        );
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 9))
            .unwrap();
        assert!(
            n.run_until_idle(1_000),
            "link outage must end, not deadlock"
        );
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 9);
        assert!(out[0].latency > 60, "latency {}", out[0].latency);
    }

    #[test]
    fn payload_flip_fault_marks_packet_modified() {
        let mut n = faulty_net(
            2,
            1,
            ScriptedFaults {
                flip_mask: 0b1,
                ..ScriptedFaults::default()
            },
        );
        n.inject(Packet::power_request(NodeId(0), NodeId(1), 0b100))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        // Flipped once per router on the two-node path: 0b100 ^ 1 ^ 1 at the
        // source and destination routers.
        assert_eq!(out[0].packet.payload(), 0b100);
        assert!(out[0].modified, "fault corruption must be observable");
    }

    #[test]
    fn packet_drop_fault_sinks_cleanly() {
        let mut n = faulty_net(
            4,
            1,
            ScriptedFaults {
                drop_at: Some(NodeId(2)),
                ..ScriptedFaults::default()
            },
        );
        for i in 0..4 {
            n.inject(Packet::new(NodeId(3), NodeId(0), PacketKind::Data, i))
                .unwrap();
        }
        assert!(n.run_until_idle(50_000), "fault sink leaked resources");
        assert_eq!(n.stats().dropped_packets(), 4);
        assert_eq!(n.stats().delivered_packets(), 0);
        assert!(n.router(NodeId(2)).is_idle());
    }

    #[test]
    fn fault_hook_can_be_taken_back() {
        let mut n = faulty_net(2, 1, ScriptedFaults::default());
        assert!(n.has_fault_hook());
        assert!(n.take_fault_hook().is_some());
        assert!(!n.has_fault_hook());
        assert!(n.take_fault_hook().is_none());
    }
}
