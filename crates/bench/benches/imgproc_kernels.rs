//! Criterion micro-benchmarks of the imaging substrate's hot kernels at
//! the paper's tile size (256×256).

use criterion::{criterion_group, criterion_main, Criterion};
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_imgproc::color::{rgb_to_gray, rgb_to_hsv};
use seaice_imgproc::filter::{box_blur_f32, box_blur_f32_pair, gaussian_blur, median_filter};
use seaice_imgproc::ops::{in_range, min_max_normalize};
use seaice_imgproc::threshold::otsu_threshold;
use seaice_label::fused::segment_classes_fused;
use seaice_label::ranges::ClassRanges;
use seaice_label::segment::segment_classes;
use seaice_s2::synth::{generate, SceneConfig};
use std::hint::black_box;

/// The radius-1 median as `median_filter` computed it before the exchange
/// network: gather the clamped 3×3 window, select its middle element.
fn median_r1_by_selection(src: &Image<u8>) -> Image<u8> {
    let (w, h) = src.dimensions();
    let c = src.channels();
    let mut out = Image::<u8>::new(w, h, c);
    let mut window = Vec::with_capacity(9);
    for y in 0..h {
        for x in 0..w {
            for ch in 0..c {
                window.clear();
                for dy in 0..3 {
                    let sy = (y + dy).saturating_sub(1).min(h - 1);
                    for dx in 0..3 {
                        let sx = (x + dx).saturating_sub(1).min(w - 1);
                        window.push(src.pixel(sx, sy)[ch]);
                    }
                }
                let (_, med, _) = window.select_nth_unstable(4);
                out.pixel_mut(x, y)[ch] = *med;
            }
        }
    }
    out
}

fn bench_kernels(c: &mut Criterion) {
    let scene = generate(&SceneConfig::tiny(256), 42);
    let rgb = scene.rgb;
    let gray = rgb_to_gray(&rgb);
    let gray_f = gray.to_f32();

    let mut g = c.benchmark_group("imgproc_256");
    g.sample_size(20);
    g.bench_function("rgb_to_hsv", |b| b.iter(|| black_box(rgb_to_hsv(&rgb))));
    g.bench_function("rgb_to_gray", |b| b.iter(|| black_box(rgb_to_gray(&rgb))));
    g.bench_function("gaussian_blur_r2", |b| {
        b.iter(|| black_box(gaussian_blur(&rgb, 2, 1.0)))
    });
    g.bench_function("median_filter_r1", |b| {
        b.iter(|| black_box(median_filter(&rgb, 1)))
    });
    // Old vs new: the selection loop the radius-1 network replaced.
    assert_eq!(median_r1_by_selection(&rgb), median_filter(&rgb, 1));
    g.bench_function("median_filter_r1_selection", |b| {
        b.iter(|| black_box(median_r1_by_selection(&rgb)))
    });
    g.bench_function("box_blur_f32_r32", |b| {
        b.iter(|| black_box(box_blur_f32(&gray_f, 32)))
    });
    // Two planes in one traversal vs the two single blurs they replace.
    let weights = gray_f.map(|v| 1.0 - v);
    g.bench_function("box_blur_f32_r32_twice", |b| {
        b.iter(|| black_box((box_blur_f32(&gray_f, 32), box_blur_f32(&weights, 32))))
    });
    g.bench_function("box_blur_f32_pair_r32", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let (a, w) = box_blur_f32_pair(&gray_f, &weights, 32, &mut scratch);
            black_box((&a, &w));
            scratch.recycle_image_f32(a);
            scratch.recycle_image_f32(w);
        })
    });
    g.bench_function("otsu_threshold", |b| {
        b.iter(|| black_box(otsu_threshold(&gray)))
    });
    g.bench_function("in_range_hsv", |b| {
        let hsv = rgb_to_hsv(&rgb);
        b.iter(|| black_box(in_range(&hsv, &[0, 0, 205], &[185, 255, 255])))
    });
    g.bench_function("min_max_normalize", |b| {
        b.iter(|| black_box(min_max_normalize(&gray, 0, 255)))
    });
    // The fused single-pass kernel vs the reference pipeline it replaces
    // (rgb_to_hsv + three in_range scans + fallback).
    let ranges = ClassRanges::paper();
    g.bench_function("segment_classes_reference", |b| {
        b.iter(|| black_box(segment_classes(&rgb, &ranges)))
    });
    g.bench_function("segment_classes_fused", |b| {
        b.iter(|| black_box(segment_classes_fused(&rgb, &ranges)))
    });
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
