//! Criterion bench for the Fig. 3 experiment: one infection-rate
//! measurement (64-node chip, random Trojan placement) per manager
//! location. The full figure is regenerated by `repro_all` into
//! `results/fig3_<nodes>.tsv`; this bench tracks the cost of a single data
//! point so regressions in the rig are caught.

use criterion::{criterion_group, criterion_main, Criterion};

use htpb_core::{InfectionExperiment, ManagerLocation, PlacementStrategy};

fn bench_fig3_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_point_64nodes_8hts");
    group.sample_size(20);
    for (label, loc) in [
        ("manager_center", ManagerLocation::Center),
        ("manager_corner", ManagerLocation::Corner),
    ] {
        let exp = InfectionExperiment::new(64).manager(loc);
        let placement = exp.placement(8, &PlacementStrategy::Random { seed: 7 });
        group.bench_function(label, |b| {
            b.iter(|| {
                let rate = exp.measure(&placement);
                assert!((0.0..=1.0).contains(&rate));
                rate
            });
        });
    }
    group.finish();
}

fn bench_fig3_analytic(c: &mut Criterion) {
    // The closed-form estimator that the optimizer's inner loop uses —
    // orders of magnitude faster than the simulated measurement above.
    let exp = InfectionExperiment::new(256);
    let placement = exp.placement(16, &PlacementStrategy::Random { seed: 7 });
    c.bench_function("fig3_analytic_256nodes_16hts", |b| {
        b.iter(|| {
            htpb_core::analytic_infection_rate(
                exp.mesh(),
                exp.manager_node(),
                placement.nodes(),
                None,
            )
        });
    });
}

criterion_group!(benches, bench_fig3_point, bench_fig3_analytic);
criterion_main!(benches);
