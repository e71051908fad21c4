//! The four workloads, their measurement loops, the traced layer profile
//! and the result line.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use htpb_harness::{run_repro, std_fs, ReproOutcome, ReproPlan, ReproScale};

use crate::campaign::{self, CampaignSpec};
use crate::manifest::{self, Manifest, CAMPAIGN, JOB_OUTPUTS, NO_SEED, QUICK, REPLAY, TINY};
use crate::probe::{CountingFs, FS_OPS};
use crate::replay::Stream;
use crate::repro::{
    artefact_digests, cold_options, committed_artefacts, copy_tree, outputs_digest, remove_tree,
    warm_options, workers, Decomposed, JournalView, SCALE,
};
use crate::stats::Samples;

/// Times each workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest timed samples a run takes, however short `--seconds` is.
pub const MIN_SAMPLES: usize = 3;

/// Warm resumes per traced profile (each takes tens of milliseconds).
const RESUME_TRACE_REPS: usize = 5;

/// Untraced campaigns and replays per traced profile.
const SIM_TRACE_REPS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 72-job quick plan through `run_repro`, cold.
    ReproQuick,
    /// The same plan served entirely from the caches a cold run committed.
    ReproResume,
    /// One paper-scale attack campaign built through `SystemBuilder`.
    CampaignPaper,
    /// The campaign's attacked packet stream replayed into a bare network.
    NocReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproQuick,
        Workload::ReproResume,
        Workload::CampaignPaper,
        Workload::NocReplay,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproQuick => "repro-quick",
            Workload::ReproResume => "repro-resume",
            Workload::CampaignPaper => "campaign-paper",
            Workload::NocReplay => "noc-replay",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts `ops` checked operations of which `bad` failed, naming the
    /// failure on stderr.
    pub fn check(&mut self, ops: usize, bad: usize, what: impl fmt::Display) {
        self.attempted += ops as u64;
        self.failed += bad as u64;
        if bad > 0 {
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends `other`'s checks and its metrics, each name prefixed.
    pub fn absorb(&mut self, prefix: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            self.metric(format!("{prefix}.{}", m.name), m.value, m.unit);
        }
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A per-process scratch directory under the current directory, removed
/// when dropped.
#[derive(Debug)]
pub struct Workdir {
    root: PathBuf,
}

impl Workdir {
    /// Creates `.perfbench-work/<pid>` afresh.
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    pub fn new() -> io::Result<Workdir> {
        let root = Path::new(".perfbench-work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Workdir { root })
    }

    /// A fresh path for sample `i` of `tag` (not created).
    #[must_use]
    pub fn dir(&self, tag: &str, i: usize) -> PathBuf {
        self.root.join(format!("{tag}-{i}"))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs `f` [`SETUP_REPS`] times, timing each; returns every result and
/// the timings.
fn setup<T>(mut f: impl FnMut(usize) -> io::Result<T>) -> io::Result<(Vec<T>, Samples)> {
    let mut out = Vec::new();
    let mut times = Samples::new();
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        out.push(f(i)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((out, times))
}

/// Calls `op` until `seconds` have passed and at least [`MIN_SAMPLES`]
/// were taken; `op` returns the seconds of its timed part.
fn measure(seconds: f64, mut op: impl FnMut(usize) -> io::Result<f64>) -> io::Result<Samples> {
    let start = Instant::now();
    let mut samples = Samples::new();
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        samples.push(op(samples.len())?);
    }
    Ok(samples)
}

/// Prints one end-to-end figure: median, tail percentile and count.
fn print_timing(workload: Workload, name: &str, samples: &Samples, unit: &str) {
    let tail = samples
        .tail()
        .map_or(String::new(), |(p, v)| format!(", p{p} {v:.6}"));
    println!(
        "{}: {name} = median {:.6} {unit}{tail} (n = {})",
        workload.name(),
        samples.median(),
        samples.len()
    );
}

fn print_value(workload: Workload, name: &str, value: f64, unit: &str) {
    println!("{}: {name} = {value:.6} {unit}", workload.name());
}

/// Checks a reproduction's outcome and artefacts against the manifest.
fn check_repro(
    out: &mut Outcome,
    outdir: &Path,
    outcome: &ReproOutcome,
    expected: &BTreeMap<String, u64>,
) -> io::Result<()> {
    out.check(
        outcome.jobs,
        outcome.failed,
        format_args!("{} job(s) failed in {}", outcome.failed, outdir.display()),
    );
    let wrong = manifest::mismatches(expected, &artefact_digests(outdir)?);
    out.check(
        expected.len(),
        wrong.len(),
        format_args!("artefacts differ from the manifest: {wrong:?}"),
    );
    Ok(())
}

/// Runs one workload untraced and returns its end-to-end metrics.
///
/// # Errors
/// Fails on an I/O error in the work directory.
pub fn run(workload: Workload, seed: u64, seconds: f64, wd: &Workdir) -> io::Result<Outcome> {
    let manifest = Manifest::committed();
    let mut out = Outcome::default();
    let (setup_s, wall) = match workload {
        Workload::ReproQuick => repro_quick(&mut out, &manifest, seconds, wd)?,
        Workload::ReproResume => repro_resume(&mut out, &manifest, seconds, wd)?,
        Workload::CampaignPaper => campaign_paper(&mut out, &manifest, seed, seconds)?,
        Workload::NocReplay => noc_replay(&mut out, &manifest, seed, seconds)?,
    };
    let rss = peak_rss_mib();
    print_timing(workload, "setup_s", &setup_s, "s");
    print_value(workload, "peak_rss_mib", rss, "MiB");
    print_value(
        workload,
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    println!("{}: nproc = {}", workload.name(), workers());
    out.metric("setup_s", setup_s.median(), "s");
    out.metric("wall_s", wall.median(), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    Ok(out)
}

/// Set-up times and timed samples of one run.
type Timings = (Samples, Samples);

fn repro_quick(
    out: &mut Outcome,
    manifest: &Manifest,
    seconds: f64,
    wd: &Workdir,
) -> io::Result<Timings> {
    let nw = workers();
    let tiny = manifest.artefacts(TINY);
    let expected = manifest.artefacts(QUICK);
    let (_, setup_s) = setup(|i| {
        let dir = wd.dir("tiny", i);
        let outcome = run_repro(ReproScale::Tiny, &dir, &cold_options(nw))?;
        check_repro(out, &dir, &outcome, &tiny)?;
        remove_tree(&dir)
    })?;
    let mut job = Samples::new();
    let wall = measure(seconds, |i| {
        let dir = wd.dir("quick", i);
        let opts = cold_options(nw);
        let t0 = Instant::now();
        let outcome = run_repro(SCALE, &dir, &opts)?;
        let secs = t0.elapsed().as_secs_f64();
        job.push(JournalView::latest(&dir)?.total_job_s());
        check_repro(out, &dir, &outcome, &expected)?;
        remove_tree(&dir)?;
        Ok(secs)
    })?;
    print_timing(Workload::ReproQuick, "repro_wall_s", &wall, "s");
    print_timing(Workload::ReproQuick, "repro_job_s", &job, "s");
    Ok((setup_s, wall))
}

/// A committed cold run with its caches: the state every resume copies.
fn cold_fill(out: &mut Outcome, manifest: &Manifest, dir: &Path) -> io::Result<()> {
    let opts = warm_options(dir, workers(), std_fs())?;
    let outcome = run_repro(SCALE, dir, &opts)?;
    check_repro(out, dir, &outcome, &manifest.artefacts(QUICK))
}

fn repro_resume(
    out: &mut Outcome,
    manifest: &Manifest,
    seconds: f64,
    wd: &Workdir,
) -> io::Result<Timings> {
    let nw = workers();
    let expected = manifest.artefacts(QUICK);
    let (fills, setup_s) = setup(|i| {
        let dir = wd.dir("cold", i);
        cold_fill(out, manifest, &dir)?;
        Ok(dir)
    })?;
    let (cold, stale) = fills.split_last().expect("at least one set-up");
    for dir in stale {
        remove_tree(dir)?;
    }
    let mut job = Samples::new();
    let wall = measure(seconds, |i| {
        let dir = wd.dir("resume", i);
        copy_tree(cold, &dir)?;
        let t0 = Instant::now();
        let opts = warm_options(&dir, nw, std_fs())?;
        let outcome = run_repro(SCALE, &dir, &opts)?;
        let secs = t0.elapsed().as_secs_f64();
        job.push(JournalView::latest(&dir)?.total_job_s());
        out.check(
            outcome.jobs,
            outcome.jobs - outcome.cache_hits,
            format_args!(
                "{} of {} jobs missed the cache",
                outcome.jobs - outcome.cache_hits,
                outcome.jobs
            ),
        );
        check_repro(out, &dir, &outcome, &expected)?;
        remove_tree(&dir)?;
        Ok(secs)
    })?;
    print_timing(Workload::ReproResume, "resume_wall_s", &wall, "s");
    print_timing(Workload::ReproResume, "resume_job_s", &job, "s");
    Ok((setup_s, wall))
}

/// Checks `actual` against `expected` and against the manifest entry for
/// `(group, seed, name)`, if recorded.
fn check_digest(
    out: &mut Outcome,
    manifest: &Manifest,
    (group, seed, name): (&str, u64, &str),
    expected: u64,
    actual: u64,
) {
    out.check(
        1,
        usize::from(actual != expected),
        format_args!("{group} seed {seed}: {name} {actual:016x} != {expected:016x}"),
    );
    if let Some(recorded) = manifest.get(group, &seed.to_string(), name) {
        out.check(
            1,
            usize::from(actual != recorded),
            format_args!("{group} seed {seed}: {name} {actual:016x} != manifest {recorded:016x}"),
        );
    }
}

fn campaign_paper(
    out: &mut Outcome,
    manifest: &Manifest,
    seed: u64,
    seconds: f64,
) -> io::Result<Timings> {
    let spec = CampaignSpec::paper(seed);
    let (refs, setup_s) = setup(|_| Ok(campaign::library_reference(&spec)))?;
    for &r in &refs {
        check_digest(out, manifest, (CAMPAIGN, seed, "reports"), refs[0], r);
    }
    let wall = measure(seconds, |_| {
        let t0 = Instant::now();
        let (result, _) = campaign::run(&spec);
        let secs = t0.elapsed().as_secs_f64();
        check_digest(
            out,
            manifest,
            (CAMPAIGN, seed, "reports"),
            refs[0],
            result.digest(),
        );
        Ok(secs)
    })?;
    let cycles = 2.0 * spec.run_cycles() as f64;
    print_timing(Workload::CampaignPaper, "campaign_wall_s", &wall, "s");
    print_timing(
        Workload::CampaignPaper,
        "sim_cycles_per_s",
        &wall.map(|secs| cycles / secs),
        "cycles/s",
    );
    Ok((setup_s, wall))
}

/// Checks a replay's statistics: no refusals, the recording run's
/// delivered and hop counts, and the expected fingerprint.
fn check_replay(
    out: &mut Outcome,
    manifest: &Manifest,
    seed: u64,
    stream: &Stream,
    stats: Result<htpb_noc::NetworkStats, u64>,
    expected: &mut Option<u64>,
) {
    let stats = match stats {
        Ok(stats) => stats,
        Err(refused) => {
            out.check(1, 1, format_args!("replay refused {refused} packet(s)"));
            return;
        }
    };
    let counts = (stats.delivered_packets(), stats.total_hops());
    let recorded = (stream.recorded_delivered, stream.recorded_hops);
    out.check(
        1,
        usize::from(counts != recorded),
        format_args!("replay delivered/hops {counts:?} != recording {recorded:?}"),
    );
    let fp = stats.fingerprint();
    let reference = *expected.get_or_insert(fp);
    check_digest(out, manifest, (REPLAY, seed, "fingerprint"), reference, fp);
}

fn noc_replay(
    out: &mut Outcome,
    manifest: &Manifest,
    seed: u64,
    seconds: f64,
) -> io::Result<Timings> {
    let spec = CampaignSpec::paper(seed);
    // Recordings after the first are only compared, then dropped.
    let mut first: Option<(Stream, u64)> = None;
    let (_, setup_s) = setup(|_| {
        let stream = Stream::record(&spec);
        let digest = stream.digest();
        let expected = first.get_or_insert((stream, digest)).1;
        check_digest(out, manifest, (REPLAY, seed, "stream"), expected, digest);
        Ok(())
    })?;
    let (stream, _) = &first.expect("at least one set-up");
    let mut expected = None;
    let wall = measure(seconds, |_| {
        let t0 = Instant::now();
        let stats = stream.replay();
        let secs = t0.elapsed().as_secs_f64();
        check_replay(out, manifest, seed, stream, stats, &mut expected);
        Ok(secs)
    })?;
    print_timing(Workload::NocReplay, "replay_wall_s", &wall, "s");
    print_timing(
        Workload::NocReplay,
        "noc_cycles_per_s",
        &wall.map(|secs| stream.end_cycle as f64 / secs),
        "cycles/s",
    );
    Ok((setup_s, wall))
}

/// The traced run: every layer probed on the workload the layer map names
/// for it (see `README.md`), whichever workload was asked for, each probe
/// paired with an untraced run of the same work to measure the probes'
/// overhead and to prove they do not change any output.
///
/// # Errors
/// Fails on an I/O error in the work directory.
pub fn profile(seed: u64, wd: &Workdir) -> io::Result<Outcome> {
    let manifest = Manifest::committed();
    let mut out = Outcome::default();
    let nw = workers();
    out.metric("host.nproc", nw as f64, "count");
    profile_quick(&mut out, &manifest, nw, wd)?;
    profile_resume(&mut out, &manifest, nw, wd)?;
    profile_sim(&mut out, &manifest, seed);
    Ok(out)
}

fn check_outputs(out: &mut Outcome, manifest: &Manifest, runs: [&Decomposed; 2]) {
    for run in runs {
        out.check(
            run.reports.len(),
            run.failed(),
            format_args!("{} job(s) failed", run.failed()),
        );
    }
    let [plain, traced] = runs.map(|r| outputs_digest(&r.reports));
    out.check(
        1,
        usize::from(plain != traced),
        format_args!("traced job outputs {traced:016x} != untraced {plain:016x}"),
    );
    if let Some(recorded) = manifest.get(QUICK, NO_SEED, JOB_OUTPUTS) {
        out.check(
            1,
            usize::from(plain != recorded),
            format_args!("job outputs {plain:016x} != manifest {recorded:016x}"),
        );
    }
}

fn profile_quick(
    out: &mut Outcome,
    manifest: &Manifest,
    nw: usize,
    wd: &Workdir,
) -> io::Result<()> {
    let plan = ReproPlan::plan(SCALE);
    let plain = Decomposed::run(
        &plan,
        &wd.dir("profile-quick", 0),
        &cold_options(nw),
        std_fs(),
        &[],
    )?;
    let fs = Arc::new(CountingFs::new(std_fs()));
    let traced = Decomposed::run(
        &plan,
        &wd.dir("profile-quick", 1),
        &cold_options(nw),
        fs,
        &[],
    )?;
    check_outputs(out, manifest, [&plain, &traced]);

    let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut hits, mut misses) = (0u32, 0u32);
    for r in &traced.reports {
        *by_kind.entry(r.spec.kind()).or_insert(0.0) += r.secs;
        match r.baseline {
            Some(true) => hits += 1,
            Some(false) => misses += 1,
            None => {}
        }
    }
    for kind in ["fig3", "fig4", "sweep", "opt", "regression"] {
        let secs = by_kind.get(kind).copied().unwrap_or(0.0);
        out.metric(format!("harness.job_s.{kind}"), secs, "s");
    }
    let job_s: f64 = by_kind.values().sum();
    out.metric(
        "harness.worker_idle_s",
        nw as f64 * traced.execute_s - job_s,
        "s",
    );
    out.metric(
        "harness.baseline_hit_ratio",
        f64::from(hits) / f64::from((hits + misses).max(1)),
        "ratio",
    );
    out.metric("harness.baseline_misses", f64::from(misses), "count");
    out.metric(
        "trace.overhead_s.repro-quick",
        traced.wall_s() - plain.wall_s(),
        "s",
    );
    Ok(())
}

fn profile_resume(
    out: &mut Outcome,
    manifest: &Manifest,
    nw: usize,
    wd: &Workdir,
) -> io::Result<()> {
    let plan = ReproPlan::plan(SCALE);
    let cold = wd.dir("profile-cold", 0);
    cold_fill(out, manifest, &cold)?;
    let artefacts = committed_artefacts(&cold)?;
    let (mut start, mut fs_s, mut bytes, mut assemble, mut overhead) = (
        Samples::new(),
        Samples::new(),
        0,
        Samples::new(),
        Samples::new(),
    );
    let mut ops = [0u64; FS_OPS.len()];
    let mut hit_ratio = 0.0;
    for i in 0..RESUME_TRACE_REPS {
        let dir = wd.dir("profile-resume", 3 * i);
        copy_tree(&cold, &dir)?;
        let opts = warm_options(&dir, nw, std_fs())?;
        let plain = Decomposed::run(&plan, &dir, &opts, std_fs(), &artefacts)?;

        let dir = wd.dir("profile-resume", 3 * i + 1);
        copy_tree(&cold, &dir)?;
        bytes = std::fs::metadata(dir.join("journal.jsonl"))?.len();
        let fs = Arc::new(CountingFs::new(std_fs()));
        let opts = warm_options(&dir, nw, fs.clone())?;
        let traced = Decomposed::run(&plan, &dir, &opts, fs.clone(), &artefacts)?;
        check_outputs(out, manifest, [&plain, &traced]);
        start.push(traced.start_s);
        fs_s.push(fs.secs());
        overhead.push(traced.wall_s() - plain.wall_s());
        ops = std::array::from_fn(|op| fs.calls(op));
        let cached = traced.reports.iter().filter(|r| r.cache_hit).count();
        hit_ratio = cached as f64 / traced.reports.len().max(1) as f64;

        let dir = wd.dir("profile-resume", 3 * i + 2);
        copy_tree(&cold, &dir)?;
        let outcome = run_repro(SCALE, &dir, &warm_options(&dir, nw, std_fs())?)?;
        check_repro(out, &dir, &outcome, &manifest.artefacts(QUICK))?;
        assemble.push(JournalView::latest(&dir)?.assemble_s);
    }
    out.metric("harness.start_s", start.median(), "s");
    out.metric("harness.journal_bytes", bytes as f64, "bytes");
    out.metric("harness.fs_s", fs_s.median(), "s");
    for (op, name) in FS_OPS.iter().enumerate() {
        out.metric(format!("harness.fs_ops.{name}"), ops[op] as f64, "count");
    }
    out.metric("harness.cache_hit_ratio", hit_ratio, "ratio");
    out.metric("harness.assemble_s", assemble.median(), "s");
    out.metric("trace.overhead_s.repro-resume", overhead.median(), "s");
    Ok(())
}

/// Profiles `campaign-paper` and `noc-replay` together, interleaving
/// untraced campaigns with untraced replays of the attacked run's stream:
/// `manycore.self_s` is the attacked run's time minus its stream's replay
/// time, medians of both.
fn profile_sim(out: &mut Outcome, manifest: &Manifest, seed: u64) {
    let spec = CampaignSpec::paper(seed);
    let stream = Stream::record(&spec);
    let key = (CAMPAIGN, seed, "reports");
    let (mut reference, mut fingerprint) = (None, None);
    let mut phases: [Samples; 4] = Default::default();
    let (mut campaign_s, mut replay_s) = (Samples::new(), Samples::new());
    for _ in 0..SIM_TRACE_REPS {
        let t0 = Instant::now();
        let (result, ph) = campaign::run(&spec);
        campaign_s.push(t0.elapsed().as_secs_f64());
        let digest = result.digest();
        check_digest(out, manifest, key, *reference.get_or_insert(digest), digest);
        for (samples, secs) in
            phases
                .iter_mut()
                .zip([ph.build_s, ph.baseline_s, ph.attacked_s, ph.report_s])
        {
            samples.push(secs);
        }
        let t0 = Instant::now();
        let stats = stream.replay();
        replay_s.push(t0.elapsed().as_secs_f64());
        check_replay(out, manifest, seed, &stream, stats, &mut fingerprint);
    }
    for (name, samples) in ["build_s", "baseline_s", "attacked_s", "report_s"]
        .iter()
        .zip(&phases)
    {
        out.metric(format!("core.{name}"), samples.median(), "s");
    }

    let t0 = Instant::now();
    let (traced, _, trace) = campaign::run_traced(&spec);
    let traced_s = t0.elapsed().as_secs_f64();
    check_digest(out, manifest, key, reference.unwrap_or(0), traced.digest());
    out.metric("manycore.steps", trace.steps as f64, "count");
    out.metric("manycore.step_s", trace.step_s, "s");
    out.metric("manycore.power_phase_s", trace.power_phase_s, "s");
    out.metric(
        "manycore.self_s",
        phases[2].median() - replay_s.median(),
        "s",
    );
    let net = &traced.attacked_net;
    out.metric(
        "power.requests_delivered",
        net.delivered_power_requests() as f64,
        "count",
    );
    out.metric(
        "power.requests_modified",
        net.modified_power_requests() as f64,
        "count",
    );
    out.metric(
        "trace.overhead_s.campaign-paper",
        traced_s - campaign_s.median(),
        "s",
    );

    let t0 = Instant::now();
    let (stats, trace) = match stream.replay_traced() {
        Ok(traced) => traced,
        Err(refused) => {
            out.check(
                1,
                1,
                format_args!("traced replay refused {refused} packet(s)"),
            );
            return;
        }
    };
    let traced_s = t0.elapsed().as_secs_f64();
    check_replay(
        out,
        manifest,
        seed,
        &stream,
        Ok(stats.clone()),
        &mut fingerprint,
    );
    out.metric("noc.step_s", trace.step_s, "s");
    out.metric("noc.steps", trace.steps as f64, "count");
    out.metric("noc.inject_s", trace.inject_s, "s");
    out.metric("noc.injects", trace.injects as f64, "count");
    out.metric(
        "noc.packets_delivered",
        stats.delivered_packets() as f64,
        "count",
    );
    out.metric("noc.hops", stats.total_hops() as f64, "count");
    out.metric(
        "noc.ns_per_hop",
        trace.step_s * 1e9 / stats.total_hops().max(1) as f64,
        "ns",
    );
    out.metric(
        "noc.active_routers_mean",
        trace.active_routers_mean,
        "routers",
    );
    out.metric("noc.busy_links_mean", trace.busy_links_mean, "links");
    out.metric("noc.queued_flits_mean", trace.queued_flits_mean, "flits");
    out.metric("noc.latency_mean_cycles", stats.latency().mean(), "cycles");
    out.metric("trojan.inspect_calls", trace.inspect_calls as f64, "count");
    out.metric("trojan.inspect_s", trace.inspect_s, "s");
    out.metric("trojan.tampered", trace.tampered as f64, "count");
    out.metric(
        "trace.overhead_s.noc-replay",
        traced_s - replay_s.median(),
        "s",
    );
}

/// Records the digest manifest: the quick and tiny reproductions at one
/// worker and at `max(nproc, 2)` workers (which must agree), and the
/// campaign and replay digests for every seed in `seeds`.
///
/// # Errors
/// Fails on an I/O error, or names the first output that differs between
/// worker counts or from the library's own campaign driver.
pub fn record_manifest(seeds: &[u64], wd: &Workdir) -> io::Result<Manifest> {
    let mut m = Manifest::default();
    let differ = |what: String| io::Error::other(what);
    for (scale, group) in [(ReproScale::Tiny, TINY), (SCALE, QUICK)] {
        let mut seen: Option<(BTreeMap<String, u64>, u64)> = None;
        for nw in [1, workers().max(2)] {
            let dir = wd.dir(&format!("manifest-{group}"), nw);
            let outcome = run_repro(scale, &dir, &cold_options(nw))?;
            if outcome.failed > 0 {
                return Err(differ(format!("{group}: {} job(s) failed", outcome.failed)));
            }
            let plan = ReproPlan::plan(scale);
            let jobs = Decomposed::run(&plan, &dir.join("jobs"), &cold_options(nw), std_fs(), &[])?;
            let run = (artefact_digests(&dir)?, outputs_digest(&jobs.reports));
            match &seen {
                Some(first) if *first != run => {
                    return Err(differ(format!("{group}: 1 worker and {nw} workers differ")));
                }
                _ => seen = Some(run),
            }
        }
        let (artefacts, outputs) = seen.expect("two worker counts ran");
        for (name, digest) in artefacts {
            m.insert(group, NO_SEED, &name, digest);
        }
        m.insert(group, NO_SEED, JOB_OUTPUTS, outputs);
    }
    for &seed in seeds {
        let spec = CampaignSpec::paper(seed);
        let (result, _) = campaign::run(&spec);
        if result.digest() != campaign::library_reference(&spec) {
            return Err(differ(format!(
                "seed {seed}: campaign differs from run_campaign"
            )));
        }
        let stream = Stream::record(&spec);
        let stats = stream
            .replay()
            .map_err(|n| differ(format!("seed {seed}: replay refused {n} packet(s)")))?;
        if (stats.delivered_packets(), stats.total_hops())
            != (stream.recorded_delivered, stream.recorded_hops)
        {
            return Err(differ(format!(
                "seed {seed}: replay differs from its recording"
            )));
        }
        let seed = seed.to_string();
        m.insert(CAMPAIGN, &seed, "reports", result.digest());
        m.insert(REPLAY, &seed, "stream", stream.digest());
        m.insert(REPLAY, &seed, "fingerprint", stats.fingerprint());
    }
    Ok(m)
}

/// Runs every workload in one process, each metric prefixed with its
/// workload's name.
///
/// # Errors
/// Fails on an I/O error in the work directory.
pub fn run_all(seed: u64, seconds: f64, wd: &Workdir) -> io::Result<Outcome> {
    let mut all = Outcome::default();
    for w in Workload::ALL {
        all.absorb(w.name(), run(w, seed, seconds, wd)?);
    }
    Ok(all)
}
