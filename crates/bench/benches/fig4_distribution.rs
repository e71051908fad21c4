//! Criterion bench for the Fig. 4 experiment: infection-rate measurement
//! across the three HT distribution strategies at a fixed system size.
//! The full figure is regenerated by `repro_all` into
//! `results/fig4_n<16,8>.tsv`.

use criterion::{criterion_group, criterion_main, Criterion};

use htpb_core::{InfectionExperiment, ManagerLocation, PlacementStrategy};

fn bench_fig4_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_distribution_128nodes");
    group.sample_size(20);
    let exp = InfectionExperiment::new(128).manager(ManagerLocation::Center);
    let m = 128 / 16;
    for (label, strategy) in [
        ("center_cluster", PlacementStrategy::CenterCluster),
        ("random", PlacementStrategy::Random { seed: 3 }),
        ("corner_cluster", PlacementStrategy::CornerCluster),
    ] {
        let placement = exp.placement(m, &strategy);
        group.bench_function(label, |b| {
            b.iter(|| exp.measure(&placement));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4_strategies);
criterion_main!(benches);
