//! Criterion benchmark behind Table I: the per-tile auto-label cost
//! (filtered vs unfiltered) and batch dispatch through the worker pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seaice_bench::workloads::labeling_tiles;
use seaice_label::autolabel::{auto_label, auto_label_batch_pool, AutoLabelConfig, LabelBackend};
use seaice_label::parallel::WorkerPool;
use std::hint::black_box;

fn bench_autolabel(c: &mut Criterion) {
    let mut g = c.benchmark_group("autolabel");
    g.sample_size(10);

    for side in [64usize, 128, 256] {
        let tiles = labeling_tiles(1, side, 7);
        g.bench_with_input(
            BenchmarkId::new("filtered_tile", side),
            &side,
            |b, &side| {
                let cfg = AutoLabelConfig::filtered_for_tile(side);
                b.iter(|| black_box(auto_label(&tiles[0], &cfg)))
            },
        );
        g.bench_with_input(BenchmarkId::new("unfiltered_tile", side), &side, |b, _| {
            let cfg = AutoLabelConfig::unfiltered();
            b.iter(|| black_box(auto_label(&tiles[0], &cfg)))
        });
        // Backend comparison on the unfiltered path, where segmentation
        // dominates — this is the fused kernel's headline number.
        for backend in [LabelBackend::Reference, LabelBackend::Fused] {
            g.bench_with_input(
                BenchmarkId::new(format!("unfiltered_tile_{backend:?}"), side),
                &side,
                |b, _| {
                    let cfg = AutoLabelConfig::unfiltered().with_backend(backend);
                    b.iter(|| black_box(auto_label(&tiles[0], &cfg)))
                },
            );
        }
    }

    // Batch dispatch overhead comparison at a fixed small workload.
    let tiles = labeling_tiles(16, 64, 9);
    let cfg = AutoLabelConfig::filtered_for_tile(64);
    for workers in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("pool_batch16_64px", workers),
            &workers,
            |b, &w| {
                let pool = WorkerPool::new(w);
                b.iter(|| black_box(auto_label_batch_pool(&pool, tiles.clone(), cfg)))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_autolabel);
criterion_main!(benches);
