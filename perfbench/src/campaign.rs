//! `campaign-paper`: one paper-scale attack campaign built through
//! [`SystemBuilder`] — 256 nodes, mix-1, fair-share allocation, memory
//! traffic on, Trojans armed at duty 0.5 — as a clean baseline plus an
//! attacked run of 12 epochs × 1,024 cycles each.

use std::time::Instant;

use htpb_attack::{AttackOutcome, Mix, Placement, PlacementStrategy};
use htpb_core::experiments::{run_campaign, CampaignConfig};
use htpb_harness::hash::fnv1a64;
use htpb_manycore::{AppRole, ManyCoreSystem, PerformanceReport, SystemBuilder};
use htpb_noc::{Mesh2d, NetworkStats, NodeId, PacketInspector};
use htpb_trojan::{ActivationSchedule, TrojanFleet};

use crate::probe::{FleetHost, TimedInspector};

/// Budgeting epoch length of the paper-scale chip (`4 × 256` cycles).
pub const EPOCH_CYCLES: u64 = 1_024;

/// Trojan duty fraction of the attacked run.
pub const DUTY: f64 = 0.5;

/// A campaign configuration derived from the benchmark seed.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The library-level configuration (seed and placement filled in).
    pub cfg: CampaignConfig,
    mesh: Mesh2d,
    manager: NodeId,
    epoch: u64,
}

impl CampaignSpec {
    /// The paper-scale campaign for `seed`: 256 nodes, mix-1, 12 epochs
    /// of 1,024 cycles.
    #[must_use]
    pub fn paper(seed: u64) -> CampaignSpec {
        let mut cfg = CampaignConfig::new(Mix::Mix1);
        cfg.epoch_cycles = Some(EPOCH_CYCLES);
        CampaignSpec::new(cfg, seed)
    }

    /// The campaign `cfg` describes, for `seed`. The seed drives the
    /// chip's RNG and places one Trojan among the nodes two hops from the
    /// manager; the manager's neighbours always carry the others, so every
    /// seed intercepts every request and the attack — and the traffic it
    /// shapes — keeps its size across seeds.
    ///
    /// # Panics
    /// Panics if `cfg` leaves the epoch length unset.
    #[must_use]
    pub fn new(mut cfg: CampaignConfig, seed: u64) -> CampaignSpec {
        let epoch = cfg.epoch_cycles.expect("explicit epoch length");
        cfg.seed = seed;
        let mesh = cfg.mesh();
        let manager = cfg.manager.resolve(mesh);
        let ring = |d| {
            mesh.iter_nodes()
                .filter(move |&n| mesh.distance(n, manager) == d)
        };
        let mut nodes: Vec<NodeId> = ring(1).collect();
        let outer: Vec<NodeId> = ring(2).collect();
        nodes.push(outer[(seed % outer.len() as u64) as usize]);
        cfg.placement = Some(Placement::generate(
            mesh,
            nodes.len(),
            &PlacementStrategy::Explicit(nodes),
            &[],
        ));
        CampaignSpec {
            cfg,
            mesh,
            manager,
            epoch,
        }
    }

    /// The chip's mesh.
    #[must_use]
    pub fn mesh(&self) -> Mesh2d {
        self.mesh
    }

    /// Epochs per run (warm-up plus measured).
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.cfg.warmup_epochs + self.cfg.measure_epochs
    }

    /// Simulated system cycles of one run.
    #[must_use]
    pub fn run_cycles(&self) -> u64 {
        self.epochs() * self.epoch
    }

    fn builder(&self) -> SystemBuilder {
        let cfg = &self.cfg;
        SystemBuilder::new(self.mesh)
            .manager(self.manager)
            .workload(cfg.mix.workload_for_mesh(self.mesh))
            .allocator(cfg.allocator)
            .routing(cfg.routing)
            .epoch_cycles(self.epoch)
            .budget_fraction(cfg.budget_fraction)
            .memory_traffic(cfg.memory_traffic)
            .detailed_caches(cfg.detailed_caches)
            .seed(cfg.seed)
    }

    /// The Trojan-free chip.
    #[must_use]
    pub fn build_clean(&self) -> ManyCoreSystem<TrojanFleet> {
        self.builder()
            .build_with_inspector(TrojanFleet::clean())
            .expect("paper-scale configuration is consistent")
    }

    /// The attacked chip: the seeded placement armed on a duty cycle with
    /// every attacker-application core registered as an agent, its fleet
    /// wrapped by `wrap`.
    pub fn build_attacked<I: FleetHost>(
        &self,
        wrap: impl FnOnce(TrojanFleet) -> I,
    ) -> ManyCoreSystem<I> {
        let placement = self.cfg.placement.as_ref().expect("seeded placement");
        let fleet = TrojanFleet::new(placement.nodes(), self.cfg.tamper_rule)
            .with_schedule(ActivationSchedule::duty(DUTY, 10 * self.epoch))
            .with_mode(self.cfg.ht_mode);
        let mut sys = self
            .builder()
            .build_with_inspector(wrap(fleet))
            .expect("paper-scale configuration is consistent");
        let agents = agents(&sys);
        sys.inspector_mut()
            .fleet_mut()
            .configure_all(&agents, self.manager, true);
        sys
    }
}

/// Nodes running attacker-application threads.
fn agents<I: PacketInspector>(sys: &ManyCoreSystem<I>) -> Vec<NodeId> {
    sys.tiles()
        .iter()
        .filter(|t| t.assignment().is_some_and(|a| a.role == AppRole::Malicious))
        .map(|t| t.node())
        .collect()
}

/// What one campaign computed.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Clean-chip performance (the paper's Λ).
    pub clean: PerformanceReport,
    /// Attacked-chip performance (θ).
    pub attacked: PerformanceReport,
    /// The attack effect Q.
    pub q: f64,
    /// The attacked run's network statistics.
    pub attacked_net: NetworkStats,
}

impl CampaignOutput {
    /// FNV-1a digest over both reports and Q (bit-exact).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let text = format!(
            "{:?}|{:?}|{:016x}",
            self.clean,
            self.attacked,
            self.q.to_bits()
        );
        fnv1a64(text.as_bytes())
    }
}

/// Digest of the same campaign run by the library's own driver,
/// `htpb_core::experiments::run_campaign`: the reference the
/// `SystemBuilder` construction here must match exactly.
#[must_use]
pub fn library_reference(spec: &CampaignSpec) -> u64 {
    let r = run_campaign(&spec.cfg, DUTY);
    CampaignOutput {
        clean: r.clean,
        attacked: r.attacked,
        q: r.outcome.q_value,
        attacked_net: NetworkStats::default(),
    }
    .digest()
}

/// Host seconds of a campaign's phases, timed at their boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Building both chips.
    pub build_s: f64,
    /// Running the clean chip to its report.
    pub baseline_s: f64,
    /// Running the attacked chip to its report.
    pub attacked_s: f64,
    /// Computing Q from the two reports.
    pub report_s: f64,
}

/// The chip operations a campaign drives, object-safe so one driver
/// serves chips whose fleets are wrapped differently.
trait Chip {
    /// `ManyCoreSystem::run_epochs`.
    fn run_epochs(&mut self, epochs: u64);
    /// `ManyCoreSystem::step`.
    fn step(&mut self);
    /// `ManyCoreSystem::cycle`.
    fn cycle(&self) -> u64;
    /// `ManyCoreSystem::begin_measurement`.
    fn begin_measurement(&mut self);
    /// `ManyCoreSystem::performance_report`.
    fn performance_report(&self) -> PerformanceReport;
}

impl<I: PacketInspector> Chip for ManyCoreSystem<I> {
    fn run_epochs(&mut self, epochs: u64) {
        ManyCoreSystem::run_epochs(self, epochs);
    }
    fn step(&mut self) {
        ManyCoreSystem::step(self);
    }
    fn cycle(&self) -> u64 {
        ManyCoreSystem::cycle(self)
    }
    fn begin_measurement(&mut self) {
        ManyCoreSystem::begin_measurement(self);
    }
    fn performance_report(&self) -> PerformanceReport {
        ManyCoreSystem::performance_report(self)
    }
}

/// Builds both chips, runs the clean one and then the attacked one to
/// their reports, and compares them. `epochs` advances a chip by whole
/// epochs; `wrap` wraps the attacked chip's fleet.
fn campaign<I: FleetHost>(
    spec: &CampaignSpec,
    wrap: impl FnOnce(TrojanFleet) -> I,
    mut epochs: impl FnMut(&mut dyn Chip, u64),
) -> (CampaignOutput, Phases, ManyCoreSystem<I>) {
    let mut phases = Phases::default();
    let t0 = Instant::now();
    let mut clean_sys = spec.build_clean();
    let mut attacked_sys = spec.build_attacked(wrap);
    phases.build_s = t0.elapsed().as_secs_f64();

    let mut run_to_report = |sys: &mut dyn Chip| {
        let t0 = Instant::now();
        epochs(sys, spec.cfg.warmup_epochs);
        sys.begin_measurement();
        epochs(sys, spec.cfg.measure_epochs);
        (sys.performance_report(), t0.elapsed().as_secs_f64())
    };
    let (clean, baseline_s) = run_to_report(&mut clean_sys);
    let (attacked, attacked_s) = run_to_report(&mut attacked_sys);
    phases.baseline_s = baseline_s;
    phases.attacked_s = attacked_s;

    let t0 = Instant::now();
    let q = AttackOutcome::compare(&attacked, &clean)
        .expect("mix-1 has attackers and victims with live baselines")
        .q_value;
    phases.report_s = t0.elapsed().as_secs_f64();
    let out = CampaignOutput {
        clean,
        attacked,
        q,
        attacked_net: attacked_sys.network().stats().clone(),
    };
    (out, phases, attacked_sys)
}

/// Runs the campaign untraced: no probe, only its phase boundaries timed.
#[must_use]
pub fn run(spec: &CampaignSpec) -> (CampaignOutput, Phases) {
    let (out, phases, _) = campaign(spec, |fleet| fleet, |sys, n| sys.run_epochs(n));
    (out, phases)
}

/// What the per-step spans and the fleet's timing wrapper saw.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// `ManyCoreSystem::step` calls over both runs.
    pub steps: u64,
    /// Seconds inside `ManyCoreSystem::step`, both runs.
    pub step_s: f64,
    /// Seconds inside steps at epoch phase 0 (request injection) and 60%
    /// (allocation): the power loop as seen from outside.
    pub power_phase_s: f64,
    /// Trojan inspector calls in the attacked run.
    pub inspect_calls: u64,
    /// Seconds inside the Trojan inspector.
    pub inspect_s: f64,
    /// Inspections that rewrote the packet.
    pub tampered: u64,
}

/// Runs the campaign with a span around every `ManyCoreSystem::step` and
/// a timing wrapper around the Trojan fleet. With every tile assigned,
/// `run_epochs` steps every cycle too, so the output equals [`run`]'s.
#[must_use]
pub fn run_traced(spec: &CampaignSpec) -> (CampaignOutput, Phases, CampaignTrace) {
    let epoch = spec.epoch;
    let alloc_phase = epoch * 6 / 10;
    let mut trace = CampaignTrace::default();
    let (out, phases, sys) = campaign(spec, TimedInspector::new, |sys, n| {
        for _ in 0..n * epoch {
            let phase = sys.cycle() % epoch;
            let t0 = Instant::now();
            sys.step();
            let dt = t0.elapsed().as_secs_f64();
            trace.step_s += dt;
            trace.steps += 1;
            if phase == 0 || phase == alloc_phase {
                trace.power_phase_s += dt;
            }
        }
    });
    let probe = sys.network().inspector();
    trace.inspect_calls = probe.calls;
    trace.inspect_s = probe.nanos as f64 * 1e-9;
    trace.tampered = probe.tampered;
    (out, phases, trace)
}
