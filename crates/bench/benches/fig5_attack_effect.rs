//! Criterion bench for the Fig. 5 experiment: one full attack campaign
//! (clean baseline + attacked run) on a 32-node chip. The full 256-node
//! figure is regenerated by `repro_all` into `results/fig5_<mix>.tsv`.

use criterion::{criterion_group, criterion_main, Criterion};

use htpb_core::{run_campaign, CampaignConfig, Mix};

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_campaign_tiny");
    group.sample_size(10);
    for mix in [Mix::Mix1, Mix::Mix4] {
        group.bench_function(mix.name(), |b| {
            b.iter(|| {
                let cfg = CampaignConfig::tiny(mix);
                let r = run_campaign(&cfg, 1.0);
                assert!(r.outcome.q_value > 1.0, "attack must be effective");
                r.outcome.q_value
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
