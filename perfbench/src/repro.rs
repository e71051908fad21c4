//! `repro-quick` and `repro-resume`: the 72-job `ReproScale::Quick` plan
//! through the harness, cold (no result cache, in-memory baselines) and
//! warm (everything served from the caches a cold run committed).
//!
//! Both run the fixed seeds baked into `ReproPlan`; the benchmark seed
//! does not change their inputs.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use htpb_harness::hash::fnv1a64;
use htpb_harness::json::Value;
use htpb_harness::{
    BaselineCache, Campaign, Fs, JobReport, Journal, ReproPlan, ReproScale, ResultCache, RunOptions,
};

/// The scale both repro workloads run.
pub const SCALE: ReproScale = ReproScale::Quick;

/// Worker threads: one per available core, as `repro_all` defaults to.
#[must_use]
pub fn workers() -> usize {
    RunOptions::default_workers()
}

fn options(workers: usize, cache: Option<ResultCache>, baselines: BaselineCache) -> RunOptions {
    RunOptions {
        workers,
        cache,
        baselines: Some(Arc::new(baselines)),
        progress: false,
        job_timeout: None,
        retries: 1,
        retry_seed: 0,
        retry_base_ms: 25,
    }
}

/// `repro_all --no-cache`: no result cache, in-memory baselines.
#[must_use]
pub fn cold_options(workers: usize) -> RunOptions {
    options(workers, None, BaselineCache::in_memory())
}

/// `repro_all` with its caches: result cache and disk baselines under
/// `<outdir>/.cache`, on `fs`.
///
/// # Errors
/// Fails if the cache directory cannot be created.
pub fn warm_options(outdir: &Path, workers: usize, fs: Arc<dyn Fs>) -> io::Result<RunOptions> {
    let dir = outdir.join(".cache");
    let cache = ResultCache::open_with_fs(&dir, Arc::clone(&fs))?;
    Ok(options(
        workers,
        Some(cache),
        BaselineCache::with_dir_fs(dir, fs),
    ))
}

/// FNV-1a digests of the artefacts a reproduction committed to `outdir`:
/// `SUMMARY.txt` and every TSV, by file name.
///
/// # Errors
/// Fails if the directory or a file cannot be read.
pub fn artefact_digests(outdir: &Path) -> io::Result<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(outdir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "SUMMARY.txt" || name.ends_with(".tsv") {
            out.insert(name, fnv1a64(&std::fs::read(entry.path())?));
        }
    }
    Ok(out)
}

/// FNV-1a digest of every job's output, in plan order (bit-exact).
#[must_use]
pub fn outputs_digest(reports: &[JobReport]) -> u64 {
    let text: String = reports
        .iter()
        .map(|r| format!("{:?}\n", r.output))
        .collect();
    fnv1a64(text.as_bytes())
}

/// What the journal of the latest run in an outdir records.
#[derive(Debug, Clone, Default)]
pub struct JournalView {
    /// Sum of `job_done` seconds per job kind.
    pub job_s: BTreeMap<String, f64>,
    /// The `assemble` stage's seconds.
    pub assemble_s: f64,
}

impl JournalView {
    /// Reads the records of the journal's latest epoch.
    ///
    /// # Errors
    /// Fails if the journal cannot be read.
    pub fn latest(outdir: &Path) -> io::Result<JournalView> {
        let events = Journal::read_events(&outdir.join("journal.jsonl"))?;
        let field = |e: &Value, k: &str| e.get(k).cloned();
        let epoch = events
            .iter()
            .filter_map(|e| field(e, "epoch")?.as_i64())
            .max()
            .unwrap_or(0);
        let mut view = JournalView::default();
        for e in &events {
            if field(e, "epoch").and_then(|v| v.as_i64()) != Some(epoch) {
                continue;
            }
            let secs = field(e, "secs").and_then(|v| v.as_f64()).unwrap_or(0.0);
            match e.get("event").and_then(Value::as_str) {
                Some("job_done") => {
                    let kind = e.get("kind").and_then(Value::as_str).unwrap_or("?");
                    *view.job_s.entry(kind.to_string()).or_insert(0.0) += secs;
                }
                Some("stage") if e.get("label").and_then(Value::as_str) == Some("assemble") => {
                    view.assemble_s += secs;
                }
                _ => {}
            }
        }
        Ok(view)
    }

    /// Job seconds over all kinds: what a one-worker run pays.
    #[must_use]
    pub fn total_job_s(&self) -> f64 {
        self.job_s.values().sum()
    }
}

/// The artefacts a committed run left in `outdir` — every file but the
/// journal — by name.
///
/// # Errors
/// Fails if the directory or a file cannot be read.
pub fn committed_artefacts(outdir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(outdir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_file() && name != "journal.jsonl" {
            out.push((name, std::fs::read(entry.path())?));
        }
    }
    out.sort();
    Ok(out)
}

/// One campaign driven through the harness's public lifecycle —
/// `Campaign::start`, `Campaign::execute`, `Campaign::emit_artefact` —
/// with each stage timed. Assembling artefacts from job outputs is
/// internal to `run_repro`, so the artefacts to commit are passed in: a
/// warm run re-commits exactly the bytes the cold run committed.
#[derive(Debug)]
pub struct Decomposed {
    /// Per-job reports, in plan order.
    pub reports: Vec<JobReport>,
    /// `Campaign::start`: journal replay and recovery.
    pub start_s: f64,
    /// `Campaign::execute`: the worker pool.
    pub execute_s: f64,
    /// `Campaign::emit_artefact` over every artefact.
    pub emit_s: f64,
}

impl Decomposed {
    /// Runs `plan` in `outdir` on `fs`, then commits `artefacts`.
    ///
    /// # Errors
    /// Fails if the campaign cannot open its journal or commit an
    /// artefact.
    pub fn run(
        plan: &ReproPlan,
        outdir: &Path,
        opts: &RunOptions,
        fs: Arc<dyn Fs>,
        artefacts: &[(String, Vec<u8>)],
    ) -> io::Result<Decomposed> {
        let t0 = Instant::now();
        let campaign = Campaign::start(
            "repro_all",
            outdir,
            &plan.jobs,
            opts,
            fs,
            vec![("scale", Value::Str(plan.scale.label().into()))],
        )?;
        let start_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let reports = campaign.execute(&plan.jobs, opts);
        let execute_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for (name, bytes) in artefacts {
            campaign.emit_artefact(name, bytes)?;
        }
        let emit_s = t0.elapsed().as_secs_f64();
        campaign.finish(reports.iter().all(|r| r.output.is_ok()), vec![]);
        Ok(Decomposed {
            reports,
            start_s,
            execute_s,
            emit_s,
        })
    }

    /// Seconds of the timed stages.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.start_s + self.execute_s + self.emit_s
    }

    /// Jobs whose scenario failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.reports.iter().filter(|r| r.output.is_err()).count()
    }
}

/// Fsyncs a file or directory.
fn sync(path: &Path) -> io::Result<()> {
    std::fs::File::open(path)?.sync_all()
}

/// Copies the directory tree `from` to `to` (created) and makes the copy
/// durable, as a committed outdir is: otherwise the first fsync of a
/// timed run would pay for writing back the whole copy.
///
/// # Errors
/// Fails on any I/O error.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
            sync(&dest)?;
        }
    }
    sync(to)?;
    to.parent().map_or(Ok(()), sync)
}

/// Removes the directory tree `dir` and makes the removal durable, so the
/// next timed run's first fsync does not commit it.
///
/// # Errors
/// Fails on any I/O error.
pub fn remove_tree(dir: &Path) -> io::Result<()> {
    std::fs::remove_dir_all(dir)?;
    dir.parent().map_or(Ok(()), sync)
}
