//! Criterion bench for the Fig. 6 experiment: one campaign (clean baseline
//! plus attacked run) at a single duty point, verifying the attacker/victim
//! split comes out with the right signs. The full figure is regenerated by
//! `repro_all` into `results/fig6_<mix>.tsv`.

use criterion::{criterion_group, criterion_main, Criterion};

use htpb_core::{run_campaign, CampaignConfig, Mix};

fn bench_sweep_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_sweep_point_tiny");
    group.sample_size(10);
    group.bench_function("mix1_duty_0.5", |b| {
        b.iter(|| {
            let cfg = CampaignConfig::tiny(Mix::Mix1);
            let r = run_campaign(&cfg, 0.5);
            assert!(r.outcome.max_attacker_gain() >= 1.0);
            assert!(r.outcome.min_victim_change() <= 1.0);
            r.outcome.q_value
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_point);
criterion_main!(benches);
