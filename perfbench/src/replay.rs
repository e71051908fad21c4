//! `noc-replay`: the packet stream of `campaign-paper`'s attacked run,
//! recorded at each packet's source router and replayed into a bare
//! [`Network`] with the same Trojan fleet. It measures `Network::step`
//! undiluted by tile ticks and the power loop.

use std::fmt::Write as _;
use std::time::Instant;

use htpb_harness::hash::fnv1a64;
use htpb_noc::{
    DeliveredPacket, Digest, Network, NetworkConfig, NetworkStats, Packet, PacketInspector,
    RoutingKind,
};
use htpb_trojan::TrojanFleet;

use crate::campaign::CampaignSpec;
use crate::probe::{FleetHost, Recorder, TimedInspector};

/// A recorded packet stream plus what the recording run observed.
#[derive(Debug, Clone)]
pub struct Stream {
    /// `(cycle, packet)` in injection order.
    pub packets: Vec<(u64, Packet)>,
    /// Cycle the recording run stopped at; the replay stops there too.
    pub end_cycle: u64,
    /// The armed, untouched fleet the replay routes through.
    pub fleet: TrojanFleet,
    /// The recording run's delivered-packet count.
    pub recorded_delivered: u64,
    /// The recording run's total hop count.
    pub recorded_hops: u64,
    mesh: htpb_noc::Mesh2d,
    routing: RoutingKind,
}

impl Stream {
    /// Records the attacked run of `spec`.
    #[must_use]
    pub fn record(spec: &CampaignSpec) -> Stream {
        // Paper-scale runs inject about one packet per node every 24
        // cycles; a quarter per node-cycle bounds the log generously.
        let bound = spec.run_cycles() as usize * spec.mesh().nodes() as usize / 4;
        let mut sys = spec.build_attacked(|fleet| Recorder::with_capacity(fleet, bound));
        // Armed but not yet run: the replay starts from this fleet state.
        let fleet = sys.inspector_mut().fleet_mut().clone();
        sys.run_epochs(spec.epochs());
        let stats = sys.network().stats().clone();
        Stream {
            packets: std::mem::take(&mut sys.inspector_mut().log),
            end_cycle: sys.cycle(),
            fleet,
            recorded_delivered: stats.delivered_packets(),
            recorded_hops: stats.total_hops(),
            mesh: spec.mesh(),
            routing: spec.cfg.routing,
        }
    }

    /// FNV-1a digest of the stream itself, folded packet by packet.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        let mut text = String::new();
        for (cycle, packet) in &self.packets {
            text.clear();
            let _ = write!(text, "{packet:?}");
            d.u64(*cycle).u64(fnv1a64(text.as_bytes()));
        }
        d.u64(self.end_cycle).finish()
    }

    fn network<I: PacketInspector>(&self, inspector: I) -> Network<I> {
        Network::with_inspector(
            NetworkConfig::new(self.mesh).with_routing(self.routing),
            inspector,
        )
    }

    /// Replays the stream untraced and returns the network's statistics.
    ///
    /// # Errors
    /// Returns the number of packets the network refused.
    pub fn replay(&self) -> Result<NetworkStats, u64> {
        let mut net = self.network(self.fleet.clone());
        let mut drained: Vec<DeliveredPacket> = Vec::new();
        let mut refused = 0;
        let mut next = 0;
        while net.cycle() < self.end_cycle {
            while let Some(&(cycle, packet)) = self.packets.get(next) {
                if cycle != net.cycle() {
                    break;
                }
                refused += u64::from(net.inject(packet).is_err());
                next += 1;
            }
            net.step();
            net.drain_ejected_into(&mut drained);
        }
        if refused > 0 {
            return Err(refused);
        }
        Ok(net.stats().clone())
    }

    /// Replays the stream with a span around every `inject` and `step`,
    /// the network's occupancy metrics on, and a timing wrapper around the
    /// fleet. Its statistics equal [`Stream::replay`]'s.
    ///
    /// # Errors
    /// Returns the number of packets the network refused.
    pub fn replay_traced(&self) -> Result<(NetworkStats, ReplayTrace), u64> {
        let mut net = self.network(TimedInspector::new(self.fleet.clone()));
        net.enable_metrics();
        let mut trace = ReplayTrace::default();
        let mut drained: Vec<DeliveredPacket> = Vec::new();
        let mut refused = 0;
        let mut next = 0;
        while net.cycle() < self.end_cycle {
            while let Some(&(cycle, packet)) = self.packets.get(next) {
                if cycle != net.cycle() {
                    break;
                }
                let t0 = Instant::now();
                let ok = net.inject(packet).is_ok();
                trace.inject_s += t0.elapsed().as_secs_f64();
                trace.injects += 1;
                refused += u64::from(!ok);
                next += 1;
            }
            let t0 = Instant::now();
            net.step();
            trace.step_s += t0.elapsed().as_secs_f64();
            trace.steps += 1;
            net.drain_ejected_into(&mut drained);
        }
        if refused > 0 {
            return Err(refused);
        }
        let stats = net.stats().clone();
        let stepped = trace.steps.max(1) as f64;
        if let Some(m) = net.metrics() {
            trace.active_routers_mean = m.active_router_cycles as f64 / stepped;
            trace.busy_links_mean = m.busy_link_cycles as f64 / stepped;
            trace.queued_flits_mean = m.queued_flit_cycles as f64 / stepped;
        }
        let probe = net.inspector();
        trace.inspect_calls = probe.calls;
        trace.inspect_s = probe.nanos as f64 * 1e-9;
        trace.tampered = probe.tampered;
        Ok((stats, trace))
    }
}

/// Layer timings and simulated occupancy of one traced replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayTrace {
    /// `Network::step` calls.
    pub steps: u64,
    /// Seconds inside `Network::step`.
    pub step_s: f64,
    /// `Network::inject` calls.
    pub injects: u64,
    /// Seconds inside `Network::inject`.
    pub inject_s: f64,
    /// Mean routers holding a flit, per stepped cycle.
    pub active_routers_mean: f64,
    /// Mean occupied links, per stepped cycle.
    pub busy_links_mean: f64,
    /// Mean flits waiting in injection queues, per stepped cycle.
    pub queued_flits_mean: f64,
    /// Trojan inspector calls.
    pub inspect_calls: u64,
    /// Seconds inside the Trojan inspector.
    pub inspect_s: f64,
    /// Inspections that rewrote the packet.
    pub tampered: u64,
}
