//! The benchmark's probes do not perturb what they measure, and its own
//! constructions match the library's: checked at small scale so the
//! suite stays quick (`cargo test --release --manifest-path
//! perfbench/Cargo.toml`).

use std::path::PathBuf;
use std::sync::Arc;

use htpb_attack::Mix;
use htpb_core::experiments::CampaignConfig;
use htpb_harness::{run_repro, std_fs, ReproPlan, ReproScale};
use htpb_perfbench::campaign::{self, CampaignSpec};
use htpb_perfbench::manifest::{Manifest, JOB_OUTPUTS, NO_SEED, TINY};
use htpb_perfbench::probe::{CountingFs, FS_OPS};
use htpb_perfbench::replay::Stream;
use htpb_perfbench::repro::{
    artefact_digests, cold_options, committed_artefacts, copy_tree, outputs_digest, warm_options,
    Decomposed,
};

fn small(seed: u64) -> CampaignSpec {
    CampaignSpec::new(CampaignConfig::tiny(Mix::Mix1), seed)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn op(name: &str) -> usize {
    FS_OPS.iter().position(|o| *o == name).expect("known op")
}

#[test]
fn system_builder_campaign_equals_the_library_driver() {
    for seed in [1, 2, 97] {
        let spec = small(seed);
        let (out, _) = campaign::run(&spec);
        assert_eq!(
            out.digest(),
            campaign::library_reference(&spec),
            "seed {seed}"
        );
    }
}

#[test]
fn traced_campaign_equals_untraced() {
    let spec = small(3);
    let (plain, _) = campaign::run(&spec);
    let (traced, phases, trace) = campaign::run_traced(&spec);
    assert_eq!(traced.digest(), plain.digest());
    assert_eq!(
        traced.attacked_net.fingerprint(),
        plain.attacked_net.fingerprint()
    );
    assert_eq!(trace.steps, 2 * spec.run_cycles());
    assert!(trace.inspect_calls > 0 && trace.step_s > 0.0 && phases.attacked_s > 0.0);
}

#[test]
fn replay_reproduces_its_recording_traced_or_not() {
    let spec = small(5);
    let stream = Stream::record(&spec);
    assert_eq!(stream.digest(), Stream::record(&spec).digest());
    let plain = stream.replay().expect("no packet refused");
    assert_eq!(plain.delivered_packets(), stream.recorded_delivered);
    assert_eq!(plain.total_hops(), stream.recorded_hops);
    let (traced, trace) = stream.replay_traced().expect("no packet refused");
    assert_eq!(traced.fingerprint(), plain.fingerprint());
    assert_eq!(trace.injects, stream.packets.len() as u64);
    assert_eq!(trace.steps, stream.end_cycle);
    assert!(trace.active_routers_mean > 0.0);
}

#[test]
fn traced_cold_campaign_equals_untraced_and_the_manifest() {
    let manifest = Manifest::committed();
    let plan = ReproPlan::plan(ReproScale::Tiny);
    let dir = scratch("cold");
    let plain = Decomposed::run(&plan, &dir.join("plain"), &cold_options(2), std_fs(), &[])
        .expect("untraced run");
    let fs = Arc::new(CountingFs::new(std_fs()));
    let traced = Decomposed::run(
        &plan,
        &dir.join("traced"),
        &cold_options(2),
        fs.clone(),
        &[],
    )
    .expect("traced run");
    let digest = outputs_digest(&traced.reports);
    assert_eq!(digest, outputs_digest(&plain.reports));
    assert_eq!(Some(digest), manifest.get(TINY, NO_SEED, JOB_OUTPUTS));
    assert!(fs.calls(op("append")) >= plan.jobs.len() as u64);

    let outcome =
        run_repro(ReproScale::Tiny, &dir.join("repro"), &cold_options(1)).expect("cold run_repro");
    assert_eq!(outcome.failed, 0);
    assert_eq!(
        artefact_digests(&dir.join("repro")).expect("artefacts"),
        manifest.artefacts(TINY)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_resume_serves_every_job_and_recommits_identical_artefacts() {
    let manifest = Manifest::committed();
    let plan = ReproPlan::plan(ReproScale::Tiny);
    let dir = scratch("resume");
    let cold = dir.join("cold");
    let opts = warm_options(&cold, 2, std_fs()).expect("caches");
    assert_eq!(
        run_repro(ReproScale::Tiny, &cold, &opts)
            .expect("fill")
            .failed,
        0
    );
    let artefacts = committed_artefacts(&cold).expect("artefacts");

    let mut digests = Vec::new();
    for traced in [false, true] {
        let copy = dir.join(format!("resume-{traced}"));
        copy_tree(&cold, &copy).expect("copy");
        let counting = Arc::new(CountingFs::new(std_fs()));
        let fs = if traced { counting.clone() } else { std_fs() };
        let opts = warm_options(&copy, 2, fs.clone()).expect("caches");
        let run = Decomposed::run(&plan, &copy, &opts, fs, &artefacts).expect("resume");
        assert!(run.reports.iter().all(|r| r.cache_hit));
        assert_eq!(
            artefact_digests(&copy).expect("artefacts"),
            manifest.artefacts(TINY)
        );
        digests.push(outputs_digest(&run.reports));
        if traced {
            assert_eq!(counting.calls(op("read")), plan.jobs.len() as u64);
            assert_eq!(counting.calls(op("rename")), artefacts.len() as u64);
        }
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(Some(digests[0]), manifest.get(TINY, NO_SEED, JOB_OUTPUTS));
    let _ = std::fs::remove_dir_all(&dir);
}
