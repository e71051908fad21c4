//! The full-reproduction campaign (`repro_all`) expressed as harness jobs.
//!
//! [`ReproPlan::plan`] enumerates every figure/table of the paper as
//! independent [`JobSpec`]s; [`run_repro`] executes them on the worker pool
//! (cached, journalled, resumable) and assembles the results into the TSVs
//! and `SUMMARY.txt`. This is the only path that computes a paper artefact.
//! Every job is a pure function of its spec, so the artefacts are
//! **byte-identical** at any worker count and across resumes — the property
//! `integration_harness.rs` locks in, against pinned digests.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use htpb_attack::{AttackModel, AttackSample, Mix};
use htpb_core::experiments::{fig3_label, ManagerLocation};
use htpb_core::Series;
use htpb_trojan::AreaReport;

use crate::cache::ResultCache;
use crate::campaign::Campaign;
use crate::fs::std_fs;
use crate::job::{CampaignScale, Fig4Strategy, JobOutput, JobSpec};
use crate::json::Value;
use crate::runner::{JobReport, RunOptions};

/// Campaign scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproScale {
    /// Seconds-scale, for integration tests.
    Tiny,
    /// The historical `--quick` smoke reproduction (~1 min).
    Quick,
    /// Full paper scale.
    Paper,
}

impl ReproScale {
    /// The label the summary header uses.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReproScale::Tiny => "tiny",
            ReproScale::Quick => "quick",
            ReproScale::Paper => "paper scale",
        }
    }

    fn fig3_sizes(self) -> Vec<u32> {
        match self {
            ReproScale::Tiny => vec![16],
            ReproScale::Quick => vec![64],
            ReproScale::Paper => vec![64, 512],
        }
    }

    fn fig3_counts(self, nodes: u32) -> Vec<usize> {
        match self {
            ReproScale::Tiny => vec![0, 3, 6],
            _ => {
                let max = if nodes <= 64 { 30 } else { 60 };
                (0..=max).step_by(5).collect()
            }
        }
    }

    fn fig34_seeds(self) -> Vec<u64> {
        let n = match self {
            ReproScale::Tiny => 2,
            ReproScale::Quick => 3,
            ReproScale::Paper => 8,
        };
        (0..n).collect()
    }

    fn fig4_sizes(self) -> Vec<u32> {
        match self {
            ReproScale::Tiny => vec![16, 36],
            ReproScale::Quick => vec![64, 128],
            ReproScale::Paper => vec![64, 128, 256, 512],
        }
    }

    fn campaign_scale(self) -> CampaignScale {
        match self {
            ReproScale::Tiny => CampaignScale::Tiny,
            ReproScale::Quick => CampaignScale::Small,
            ReproScale::Paper => CampaignScale::Paper,
        }
    }

    fn sweep_mixes(self) -> Vec<Mix> {
        match self {
            ReproScale::Tiny => vec![Mix::Mix1, Mix::Mix4],
            _ => Mix::ALL.to_vec(),
        }
    }

    fn duty_tenths(self) -> Vec<u32> {
        match self {
            ReproScale::Tiny => vec![0, 5, 9],
            _ => (0..=9).collect(),
        }
    }

    fn opt_mixes(self) -> Vec<Mix> {
        match self {
            ReproScale::Tiny => vec![Mix::Mix1],
            _ => Mix::ALL.to_vec(),
        }
    }

    fn opt_seeds(self) -> Vec<u64> {
        let end = match self {
            ReproScale::Tiny => 101,
            ReproScale::Quick => 102,
            ReproScale::Paper => 105,
        };
        (100..end).collect()
    }

    fn opt_m(self) -> usize {
        match self {
            ReproScale::Tiny => 4,
            ReproScale::Quick => 8,
            ReproScale::Paper => 16,
        }
    }

    fn reg_mixes(self) -> Vec<Mix> {
        match self {
            ReproScale::Tiny | ReproScale::Quick => vec![Mix::Mix1, Mix::Mix3],
            ReproScale::Paper => Mix::ALL.to_vec(),
        }
    }

    fn reg_nodes(self) -> u32 {
        match self {
            ReproScale::Tiny => 32,
            ReproScale::Quick => 64,
            ReproScale::Paper => 128,
        }
    }

    /// The regression's base configuration: historically always
    /// [`CampaignConfig::new`] with the node count overridden; tiny runs
    /// shrink the epochs too.
    fn reg_campaign_scale(self) -> CampaignScale {
        match self {
            ReproScale::Tiny => CampaignScale::Tiny,
            _ => CampaignScale::Paper,
        }
    }
}

struct Fig3Panel {
    nodes: u32,
    counts: Vec<usize>,
    center: Vec<usize>,
    corner: Vec<usize>,
}

struct Fig4Panel {
    denominator: u32,
    sizes: Vec<u32>,
    curves: Vec<(Fig4Strategy, Vec<usize>)>,
}

struct SweepPanel {
    mix: Mix,
    idx: Vec<usize>,
}

struct OptPanel {
    mix: Mix,
    idx: usize,
}

/// The job list for a full reproduction, plus the bookkeeping needed to
/// reassemble the artefacts from per-job results.
pub struct ReproPlan {
    /// Scale the plan was built for.
    pub scale: ReproScale,
    /// All jobs, in deterministic order.
    pub jobs: Vec<JobSpec>,
    fig3: Vec<Fig3Panel>,
    fig4: Vec<Fig4Panel>,
    sweeps: Vec<SweepPanel>,
    opts: Vec<OptPanel>,
    regression: Vec<usize>,
}

impl ReproPlan {
    /// Enumerates every artefact of the paper as independent jobs.
    #[must_use]
    pub fn plan(scale: ReproScale) -> ReproPlan {
        let mut jobs = Vec::new();

        let seeds = scale.fig34_seeds();
        let mut fig3 = Vec::new();
        for nodes in scale.fig3_sizes() {
            let counts = scale.fig3_counts(nodes);
            let mut panel = Fig3Panel {
                nodes,
                counts: counts.clone(),
                center: Vec::new(),
                corner: Vec::new(),
            };
            for corner in [false, true] {
                for &ht_count in &counts {
                    let idx = jobs.len();
                    jobs.push(JobSpec::Fig3Point {
                        nodes,
                        corner,
                        ht_count,
                        seeds: seeds.clone(),
                    });
                    if corner {
                        panel.corner.push(idx);
                    } else {
                        panel.center.push(idx);
                    }
                }
            }
            fig3.push(panel);
        }

        let mut fig4 = Vec::new();
        let sizes = scale.fig4_sizes();
        for denominator in [16u32, 8] {
            let mut panel = Fig4Panel {
                denominator,
                sizes: sizes.clone(),
                curves: Vec::new(),
            };
            for strategy in [
                Fig4Strategy::Center,
                Fig4Strategy::Random,
                Fig4Strategy::Corner,
            ] {
                let mut idx = Vec::new();
                for &nodes in &sizes {
                    idx.push(jobs.len());
                    jobs.push(JobSpec::Fig4Point {
                        nodes,
                        strategy,
                        denominator,
                        seeds: seeds.clone(),
                    });
                }
                panel.curves.push((strategy, idx));
            }
            fig4.push(panel);
        }

        let campaign_scale = scale.campaign_scale();
        let mut sweeps = Vec::new();
        for mix in scale.sweep_mixes() {
            let mut idx = Vec::new();
            for duty_tenths in scale.duty_tenths() {
                idx.push(jobs.len());
                jobs.push(JobSpec::SweepPoint {
                    mix,
                    scale: campaign_scale,
                    duty_tenths,
                });
            }
            sweeps.push(SweepPanel { mix, idx });
        }

        let mut opts = Vec::new();
        for mix in scale.opt_mixes() {
            opts.push(OptPanel {
                mix,
                idx: jobs.len(),
            });
            jobs.push(JobSpec::OptCompare {
                mix,
                scale: campaign_scale,
                m: scale.opt_m(),
                seeds: scale.opt_seeds(),
            });
        }

        let mut regression = Vec::new();
        for mix in scale.reg_mixes() {
            regression.push(jobs.len());
            jobs.push(JobSpec::RegressionMix {
                mix,
                scale: scale.reg_campaign_scale(),
                nodes: scale.reg_nodes(),
            });
        }

        ReproPlan {
            scale,
            jobs,
            fig3,
            fig4,
            sweeps,
            opts,
            regression,
        }
    }

    /// Reassembles the artefacts from per-job reports. `Err`
    /// lists the ids of failed jobs (the campaign still ran to completion;
    /// the artefacts just cannot be emitted with holes in them).
    fn assemble(&self, reports: &[JobReport]) -> Result<Artefacts, Vec<String>> {
        let failed: Vec<String> = reports
            .iter()
            .filter(|r| r.output.is_err())
            .map(|r| r.spec.id())
            .collect();
        if !failed.is_empty() {
            return Err(failed);
        }
        let rate = |i: usize| -> f64 {
            match reports[i].expect_output() {
                JobOutput::Rate(x) => *x,
                other => panic!("job {i}: expected rate, got {other:?}"),
            }
        };

        let fig3 = self
            .fig3
            .iter()
            .map(|p| {
                let series_for = |idx: &[usize], corner: bool| {
                    let loc = if corner {
                        ManagerLocation::Corner
                    } else {
                        ManagerLocation::Center
                    };
                    let mut s = Series::new(fig3_label(loc));
                    for (&m, &i) in p.counts.iter().zip(idx) {
                        s.push(m as f64, rate(i));
                    }
                    s
                };
                (
                    p.nodes,
                    series_for(&p.center, false),
                    series_for(&p.corner, true),
                )
            })
            .collect();

        let fig4 = self
            .fig4
            .iter()
            .map(|p| {
                let curves = p
                    .curves
                    .iter()
                    .map(|(strategy, idx)| {
                        let mut s = Series::new(strategy.label());
                        for (&nodes, &i) in p.sizes.iter().zip(idx) {
                            s.push(f64::from(nodes), rate(i));
                        }
                        s
                    })
                    .collect();
                (p.denominator, curves)
            })
            .collect();

        let fig5 = self
            .sweeps
            .iter()
            .map(|p| {
                let mut q_series = Series::new(p.mix.name());
                let mut theta: Vec<Series> = Vec::new();
                for (k, &i) in p.idx.iter().enumerate() {
                    let JobOutput::Sweep {
                        infection,
                        q,
                        changes,
                        ..
                    } = reports[i].expect_output()
                    else {
                        panic!("job {i}: expected sweep point")
                    };
                    if k == 0 {
                        theta = (0..changes.len())
                            .map(|a| Series::new(format!("{} app{a}", p.mix.name())))
                            .collect();
                    }
                    q_series.push(*infection, *q);
                    for (a, c) in changes.iter().enumerate() {
                        theta[a].push(*infection, *c);
                    }
                }
                (p.mix, q_series, theta)
            })
            .collect();

        let opt = self
            .opts
            .iter()
            .map(|p| {
                let JobOutput::Opt {
                    q_optimal,
                    q_random,
                    improvement,
                } = reports[p.idx].expect_output()
                else {
                    panic!("job {}: expected opt comparison", p.idx)
                };
                (
                    p.mix,
                    OptRow {
                        q_optimal: *q_optimal,
                        q_random: *q_random,
                        improvement: *improvement,
                    },
                )
            })
            .collect();

        let mut samples = Vec::new();
        for &i in &self.regression {
            let JobOutput::Samples(rows) = reports[i].expect_output() else {
                panic!("job {i}: expected regression samples")
            };
            samples.extend(rows.iter().copied());
        }

        Ok(Artefacts {
            fig3,
            fig4,
            fig5,
            opt,
            samples,
        })
    }
}

struct OptRow {
    q_optimal: f64,
    q_random: f64,
    improvement: f64,
}

/// Every number a reproduction produces, reassembled from the job
/// results; [`emit`] turns it into TSVs + SUMMARY, so equal artefacts
/// follow from equal numbers.
struct Artefacts {
    fig3: Vec<(u32, Series, Series)>,
    fig4: Vec<(u32, Vec<Series>)>,
    fig5: Vec<(Mix, Series, Vec<Series>)>,
    opt: Vec<(Mix, OptRow)>,
    samples: Vec<AttackSample>,
}

/// What a reproduction run did, for callers and exit codes.
#[derive(Debug)]
pub struct ReproOutcome {
    /// The shape-check summary (also written to `SUMMARY.txt`).
    pub summary: String,
    /// Total jobs in the plan.
    pub jobs: usize,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Jobs whose clean baseline was served from the baseline cache.
    pub baseline_hits: usize,
    /// Jobs that had to compute their clean baseline (first job per
    /// campaign configuration when a [`crate::BaselineCache`] is set).
    pub baseline_misses: usize,
    /// Jobs whose scenario panicked.
    pub failed: usize,
}

/// Creates the output directory. The single shared choke point every
/// writer (cache, journal, TSV emitter, binaries) goes through before its
/// first write.
pub fn ensure_outdir(outdir: &Path) -> io::Result<()> {
    std_fs().create_dir_all(outdir)
}

/// Runs the full reproduction through the job pool: cached, journalled,
/// parallel and resumable. With a warm cache (or after an interrupted
/// run), only missing points execute: [`Campaign::start`] distrusts and
/// re-runs jobs the journal shows as started-but-died, and serves
/// committed ones from cache, recovering byte-identical artefacts from
/// any crash point.
pub fn run_repro(scale: ReproScale, outdir: &Path, opts: &RunOptions) -> io::Result<ReproOutcome> {
    let plan = ReproPlan::plan(scale);
    let campaign = Campaign::start(
        "repro_all",
        outdir,
        &plan.jobs,
        opts,
        std_fs(),
        vec![("scale", Value::Str(scale.label().into()))],
    )?;
    let reports = campaign.execute(&plan.jobs, opts);
    let cache_hits = reports.iter().filter(|r| r.cache_hit).count();
    let baseline_hits = reports.iter().filter(|r| r.baseline == Some(true)).count();
    let baseline_misses = reports.iter().filter(|r| r.baseline == Some(false)).count();
    let failed = reports.iter().filter(|r| r.output.is_err()).count();

    let summary = match plan.assemble(&reports) {
        Ok(artefacts) => {
            let t0 = Instant::now();
            let summary = emit(&artefacts, scale, &campaign)?;
            campaign.stage("assemble", t0.elapsed().as_secs_f64());
            summary
        }
        Err(failed_ids) => {
            let mut summary = format!(
                "== full reproduction run ({}) ==\n== ABORTED: {} job(s) failed ==\n",
                scale.label(),
                failed_ids.len()
            );
            for id in &failed_ids {
                let _ = writeln!(summary, "failed: {id}");
            }
            campaign.emit_artefact("SUMMARY.txt", summary.as_bytes())?;
            summary
        }
    };
    if htpb_obs::enabled() {
        campaign.emit_metrics()?;
    }
    campaign.finish(
        failed == 0,
        vec![
            ("failed", Value::Int(failed as i64)),
            ("cache_hits", Value::Int(cache_hits as i64)),
            ("baseline_hits", Value::Int(baseline_hits as i64)),
            ("baseline_misses", Value::Int(baseline_misses as i64)),
        ],
    );
    Ok(ReproOutcome {
        summary,
        jobs: plan.jobs.len(),
        cache_hits,
        baseline_hits,
        baseline_misses,
        failed,
    })
}

/// Writes every artefact file and returns the summary text, preserving the
/// historical `repro_all` output format line for line. All files go out
/// through [`Campaign::emit_artefact`]: durably committed and journalled
/// with their digests.
fn emit(artefacts: &Artefacts, scale: ReproScale, campaign: &Campaign) -> io::Result<String> {
    let mut summary = String::new();
    let mut note = |line: String| {
        println!("{line}");
        summary.push_str(&line);
        summary.push('\n');
    };
    let write_series = |name: &str, series: &[Series]| -> io::Result<()> {
        let mut out = String::new();
        for s in series {
            out.push_str(&s.to_table());
        }
        campaign.emit_artefact(&format!("{name}.tsv"), out.as_bytes())
    };

    note(format!("== full reproduction run ({}) ==", scale.label()));

    for (nodes, center, corner) in &artefacts.fig3 {
        let corner_wins = center
            .points
            .iter()
            .zip(&corner.points)
            .skip(2)
            .all(|((_, c), (_, k))| k >= c);
        note(format!(
            "fig3/{nodes}: monotonic={} corner>=center(beyond 10 HTs)={}",
            center.is_monotonic_nondecreasing() && corner.is_monotonic_nondecreasing(),
            corner_wins
        ));
        write_series(&format!("fig3_{nodes}"), &[center.clone(), corner.clone()])?;
    }

    for (denominator, series) in &artefacts.fig4 {
        let ordered = series[0]
            .points
            .iter()
            .zip(&series[1].points)
            .zip(&series[2].points)
            .all(|(((_, c), (_, r)), (_, k))| c >= r && r >= k);
        note(format!(
            "fig4/N_{denominator}: center>=random>=corner={ordered}"
        ));
        write_series(&format!("fig4_n{denominator}"), series)?;
    }

    let mut peak = (0.0f64, "");
    for (mix, q_series, theta) in &artefacts.fig5 {
        if let Some(&(_, q)) = q_series.points.last() {
            if q > peak.0 {
                peak = (q, mix.name());
            }
        }
        note(format!(
            "fig5 {}: Q(0.9)={:.2} monotonic={}",
            mix.name(),
            q_series.last_y().unwrap_or(0.0),
            q_series.is_monotonic_nondecreasing()
        ));
        write_series(
            &format!("fig5_{}", mix.name()),
            std::slice::from_ref(q_series),
        )?;
        write_series(&format!("fig6_{}", mix.name()), theta)?;
    }
    note(format!(
        "fig5 peak Q={:.2} on {} (paper: 6.89 on mix-4)",
        peak.0, peak.1
    ));

    let one = AreaReport::new(1, 1);
    let chip = AreaReport::new(60, 512);
    note(format!(
        "III-D: 1 HT = {:.4} um^2 ({:.4}% of router); 60 HTs = {:.3} um^2 / {:.4} uW",
        one.trojan_area_um2(),
        one.area_fraction() * 100.0,
        chip.trojan_area_um2(),
        chip.trojan_power_uw()
    ));
    campaign.emit_artefact("table_area.tsv", format!("{one}\n{chip}\n").as_bytes())?;

    let mut rows = String::new();
    for (mix, cmp) in &artefacts.opt {
        note(format!(
            "V-C {}: Q_opt={:.2} Q_rand={:.2} improvement={:+.0}% (beats random: {})",
            mix.name(),
            cmp.q_optimal,
            cmp.q_random,
            cmp.improvement * 100.0,
            cmp.improvement > 0.0
        ));
        let _ = writeln!(
            rows,
            "{}\t{:.4}\t{:.4}\t{:.4}",
            mix.name(),
            cmp.q_optimal,
            cmp.q_random,
            cmp.improvement
        );
    }
    campaign.emit_artefact("opt_placement.tsv", rows.as_bytes())?;

    let model = AttackModel::fit(&artefacts.samples).expect("well-conditioned dataset");
    note(format!(
        "Eq.9: a1(rho)={:+.3} a2(eta)={:+.3} a3(m)={:+.3} R2={:.3} (signs ok: {})",
        model.a1_rho(),
        model.a2_eta(),
        model.a3_m(),
        model.r2(),
        model.a1_rho() < 0.0 && model.a3_m() > 0.0
    ));
    let mut rows = String::from("# rho\teta\tm\tphiV\tphiA\tQ\n");
    for s in &artefacts.samples {
        let _ = writeln!(
            rows,
            "{:.3}\t{:.3}\t{:.0}\t{:.3}\t{:.3}\t{:.4}",
            s.rho, s.eta, s.m, s.phi_victims, s.phi_attackers, s.q
        );
    }
    campaign.emit_artefact("regression.tsv", rows.as_bytes())?;

    write_gnuplot(campaign)?;
    note("== done; series written to results/*.tsv (plot with gnuplot results/plot.gp) ==".into());
    campaign.emit_artefact("SUMMARY.txt", summary.as_bytes())?;
    Ok(summary)
}

/// Emits the gnuplot script that renders every regenerated figure from the
/// TSV series into `results/figures.png`.
fn write_gnuplot(campaign: &Campaign) -> io::Result<()> {
    let script = r#"# Render the reproduced figures: gnuplot results/plot.gp
set terminal pngcairo size 1400,1000
set output 'results/figures.png'
set multiplot layout 2,3 title 'SOCC 2018 HT power-budget attack - reproduction'
set key left top
set style data linespoints

set title 'Fig. 3: infection vs #HTs (64 nodes)'
set xlabel '# hardware Trojans'
set ylabel 'infection rate'
plot 'results/fig3_64.tsv' index 0 title 'manager center',      'results/fig3_64.tsv' index 1 title 'manager corner'

set title 'Fig. 3: infection vs #HTs (512 nodes)'
plot 'results/fig3_512.tsv' index 0 title 'manager center',      'results/fig3_512.tsv' index 1 title 'manager corner'

set title 'Fig. 4: infection vs size (#HT = N/8)'
set xlabel 'system size (nodes)'
plot 'results/fig4_n8.tsv' index 0 title 'center cluster',      'results/fig4_n8.tsv' index 1 title 'random',      'results/fig4_n8.tsv' index 2 title 'corner cluster'

set title 'Fig. 5: attack effect Q vs infection'
set xlabel 'infection rate'
set ylabel 'Q'
plot 'results/fig5_mix-1.tsv' title 'mix-1',      'results/fig5_mix-2.tsv' title 'mix-2',      'results/fig5_mix-3.tsv' title 'mix-3',      'results/fig5_mix-4.tsv' title 'mix-4'

set title 'Fig. 6: per-app change (mix-1)'
set ylabel 'theta change'
plot 'results/fig6_mix-1.tsv' index 0 title 'attacker 0',      'results/fig6_mix-1.tsv' index 1 title 'attacker 1',      'results/fig6_mix-1.tsv' index 2 title 'victim 0',      'results/fig6_mix-1.tsv' index 3 title 'victim 1'

set title 'Fig. 6: per-app change (mix-4)'
plot 'results/fig6_mix-4.tsv' index 0 title 'attacker 0',      'results/fig6_mix-4.tsv' index 1 title 'attacker 1',      'results/fig6_mix-4.tsv' index 2 title 'attacker 2',      'results/fig6_mix-4.tsv' index 3 title 'victim 0'

unset multiplot
"#;
    campaign.emit_artefact("plot.gp", script.as_bytes())
}

/// Convenience: the default cache for an output directory, honouring
/// `--no-cache`.
pub fn cache_for(outdir: &Path, use_cache: bool) -> io::Result<Option<ResultCache>> {
    if use_cache {
        Ok(Some(ResultCache::for_outdir(outdir)?))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_enumerates_every_section_once() {
        let plan = ReproPlan::plan(ReproScale::Quick);
        // fig3: 1 size x 2 locations x 7 counts; fig4: 2 denoms x 3
        // strategies x 2 sizes; fig5/6: 4 mixes x 10 duties; opt: 4;
        // regression: 2.
        assert_eq!(plan.jobs.len(), 14 + 12 + 40 + 4 + 2);
        let ids: std::collections::BTreeSet<String> = plan.jobs.iter().map(JobSpec::id).collect();
        assert_eq!(ids.len(), plan.jobs.len(), "job ids must be unique");
    }

    #[test]
    fn tiny_plan_is_small() {
        let plan = ReproPlan::plan(ReproScale::Tiny);
        // 2x3 fig3 + 2x3x2 fig4 + 2x3 sweep + 1 opt + 2 regression.
        assert_eq!(plan.jobs.len(), 6 + 12 + 6 + 1 + 2);
    }
}
