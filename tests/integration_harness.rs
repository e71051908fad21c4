//! End-to-end tests of the `htpb-harness` orchestration subsystem: the
//! reproduction must be **byte-identical** at any worker count and match
//! pinned artefact digests, interrupted runs must resume from the cache,
//! and a panicking job must not take the campaign down.

use std::fs;
use std::path::{Path, PathBuf};

use htpb_harness::hash::fnv1a64;
use htpb_harness::{
    run_jobs, run_repro, JobSpec, Journal, ReproOutcome, ReproPlan, ReproScale, ResultCache,
    RunOptions,
};

/// FNV-1a digests of every artefact a cold `run_repro(ReproScale::Tiny)`
/// commits. They were recorded when the job path became the only
/// campaign path: the retired sequential whole-series drivers, `--jobs 1`
/// and `--jobs 2` all produced these exact bytes. Every digest but
/// `plot.gp` also equals the `repro-tiny` rows of `perfbench/manifest.tsv`.
/// A change that moves any of them changes a paper artefact.
const TINY_DIGESTS: [(&str, u64); 12] = [
    ("SUMMARY.txt", 0x5bb3_2576_fdab_68a1),
    ("fig3_16.tsv", 0x8e41_d9f3_6d1f_e268),
    ("fig4_n16.tsv", 0xa6e0_4627_a6ff_1ab4),
    ("fig4_n8.tsv", 0x33cb_b272_4fe4_2b87),
    ("fig5_mix-1.tsv", 0x3132_28b3_501a_b60d),
    ("fig5_mix-4.tsv", 0xaa99_3ed5_e8f5_d1a9),
    ("fig6_mix-1.tsv", 0xeee5_c2eb_c35d_4213),
    ("fig6_mix-4.tsv", 0x5efe_103f_4b44_051a),
    ("opt_placement.tsv", 0x2324_f64a_bbce_2507),
    ("plot.gp", 0x0db7_8ce8_368f_84c8),
    ("regression.tsv", 0xa7f3_cecf_709b_d51b),
    ("table_area.tsv", 0x0431_8502_8b44_8874),
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htpb-harness-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn artefact_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tsv") || n == "SUMMARY.txt" || n == "plot.gp")
        .collect();
    names.sort();
    names
}

/// A cold tiny reproduction on `workers` threads with a fresh result
/// cache, asserting it ran every job and journalled each one.
fn cold_tiny_repro(dir: &Path, workers: usize) -> ReproOutcome {
    let opts = RunOptions {
        workers,
        cache: Some(ResultCache::for_outdir(dir).unwrap()),
        ..RunOptions::sequential()
    };
    let outcome = run_repro(ReproScale::Tiny, dir, &opts).expect("harness repro");
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.cache_hits, 0, "cold cache");

    // The journal recorded every job plus run bookkeeping.
    let journal = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    let job_lines = journal
        .lines()
        .filter(|l| l.contains("\"event\":\"job_done\""))
        .count();
    assert_eq!(job_lines, outcome.jobs);
    assert!(journal.contains("\"event\":\"run_start\""));
    assert!(journal.contains("\"event\":\"run_end\""));
    outcome
}

#[test]
fn repro_is_byte_identical_across_worker_counts() {
    let one_dir = tmpdir("w1");
    let four_dir = tmpdir("w4");
    cold_tiny_repro(&one_dir, 1);
    cold_tiny_repro(&four_dir, 4);

    let names = artefact_files(&one_dir);
    assert!(
        names.iter().any(|n| n.starts_with("fig3_")),
        "artefacts missing: {names:?}"
    );
    assert_eq!(names, artefact_files(&four_dir), "artefact sets differ");
    for name in &names {
        let a = fs::read(one_dir.join(name)).unwrap();
        let b = fs::read(four_dir.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between 1 and 4 workers");
    }

    let _ = fs::remove_dir_all(&one_dir);
    let _ = fs::remove_dir_all(&four_dir);
}

#[test]
fn tiny_artefacts_match_pinned_digests() {
    let dir = tmpdir("digests");
    cold_tiny_repro(&dir, 2);

    let pinned: Vec<&str> = TINY_DIGESTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(artefact_files(&dir), pinned, "artefact set changed");
    for (name, digest) in TINY_DIGESTS {
        let got = fnv1a64(&fs::read(dir.join(name)).unwrap());
        assert_eq!(
            got, digest,
            "{name}: digest {got:016x}, pinned {digest:016x}"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_resumes_only_missing_jobs() {
    let dir = tmpdir("resume");
    let cache = ResultCache::for_outdir(&dir).unwrap();
    let plan = ReproPlan::plan(ReproScale::Tiny);
    // The cheap fig3 section stands in for the whole campaign.
    let jobs: Vec<JobSpec> = plan
        .jobs
        .iter()
        .filter(|j| matches!(j, JobSpec::Fig3Point { .. }))
        .cloned()
        .collect();
    assert!(jobs.len() >= 4);
    let k = jobs.len() / 2;

    // "Kill" the run after k jobs: only those made it into the cache.
    let opts = |cache: ResultCache| RunOptions {
        workers: 2,
        cache: Some(cache),
        ..RunOptions::sequential()
    };
    let first = run_jobs(&jobs[..k], &opts(cache.clone()), &Journal::disabled());
    assert!(first.iter().all(|r| !r.cache_hit));

    // The rerun executes exactly the n-k missing jobs.
    let second = run_jobs(&jobs, &opts(cache.clone()), &Journal::disabled());
    let hits = second.iter().filter(|r| r.cache_hit).count();
    assert_eq!(hits, k, "completed jobs must be served from the cache");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.output.as_ref().unwrap(),
            b.output.as_ref().unwrap(),
            "cached result differs from computed result"
        );
    }

    // A third run is all hits.
    let third = run_jobs(&jobs, &opts(cache), &Journal::disabled());
    assert!(third.iter().all(|r| r.cache_hit));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_fails_alone_and_is_journalled() {
    let dir = tmpdir("panic");
    let journal_path = dir.join("journal.jsonl");
    let journal = Journal::open(&journal_path).unwrap();
    let jobs = vec![
        JobSpec::Fig3Point {
            nodes: 16,
            corner: false,
            ht_count: 2,
            seeds: vec![0],
        },
        // 0 nodes is an invalid mesh: the experiment constructor panics.
        JobSpec::Fig3Point {
            nodes: 0,
            corner: false,
            ht_count: 2,
            seeds: vec![0],
        },
        JobSpec::Fig3Point {
            nodes: 16,
            corner: true,
            ht_count: 2,
            seeds: vec![0],
        },
    ];
    let reports = run_jobs(
        &jobs,
        &RunOptions {
            workers: 2,
            ..RunOptions::sequential()
        },
        &journal,
    );
    assert!(reports[0].output.is_ok());
    assert!(reports[1].output.is_err());
    assert!(reports[2].output.is_ok());

    let journal = fs::read_to_string(&journal_path).unwrap();
    let failed_line = journal
        .lines()
        .find(|l| l.contains("\"ok\":false"))
        .expect("failed job must be journalled");
    assert!(failed_line.contains("fig3-n0-"), "{failed_line}");
    assert!(failed_line.contains("\"error\":"), "{failed_line}");

    let _ = fs::remove_dir_all(&dir);
}
