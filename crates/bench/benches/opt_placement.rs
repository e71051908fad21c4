//! Criterion bench for the Eqs. 10–11 placement optimizer: the exhaustive
//! enumeration over (ρ, η, m) on the paper's 256-node platform. The
//! Section V-C comparison is regenerated by `repro_all` into
//! `results/opt_placement.tsv`.

use criterion::{criterion_group, criterion_main, Criterion};

use htpb_core::{Mesh2d, PlacementOptimizer};

fn bench_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_optimizer");
    group.sample_size(10);
    for nodes in [64u32, 256] {
        group.bench_function(format!("{nodes}_nodes_16_hts"), |b| {
            let mesh = Mesh2d::with_nodes(nodes).unwrap();
            let manager = mesh.center();
            b.iter(|| {
                let best = PlacementOptimizer::new(mesh, manager, 16)
                    .exclude(&[manager])
                    .optimize();
                assert!(best.infection > 0.5);
                best.infection
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optimize);
criterion_main!(benches);
