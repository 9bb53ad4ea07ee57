//! Toeplitz fast path vs gridded CG-SENSE: per-iteration normal-operator
//! cost at the paper's working point (radial 256², 8 coils).
//!
//! Each gridded CG-SENSE iteration pays `2 × coils` gridding passes
//! (forward + adjoint per coil) over M ≈ 247k samples. The Toeplitz path
//! grids **once** at build time (a single adjoint at `2N`) and then each
//! iteration is two serial `2N` FFTs per coil, one coil per pool job —
//! zero gridding in the hot loop. This bench records both per-iteration
//! costs and their ratio in `BENCH_toeplitz_cg.json`; CI gates the ratio
//! at ≤ 0.6.
//!
//! Before any timing is trusted, the Toeplitz apply is asserted
//! **bitwise identical** across worker-pool sizes 1/2/8 (a coil's
//! convolution is one serial job that computes the same operations on
//! any worker), and
//! the full 20-iteration CG-SENSE images from both paths are compared by
//! relative L2.
//!
//! Run with `cargo run --release -p jigsaw-bench --bin toeplitz_cg`
//! (append `--quick` for smoke runs: same 256²/8-coil problem, fewer
//! timing samples and CG iterations).

use std::sync::Arc;

use jigsaw_bench::harness::{fmt_time, BenchGroup};
use jigsaw_bench::HarnessArgs;
use jigsaw_core::engine::WorkerPool;
use jigsaw_core::gridding::SliceDiceGridder;
use jigsaw_core::metrics::rel_l2;
use jigsaw_core::phantom::Phantom2d;
use jigsaw_core::recon::{CgOptions, NormalOpKind};
use jigsaw_core::sense::{acquire, cg_sense, cg_sense_with, CoilMaps};
use jigsaw_core::toeplitz::ToeplitzOperator;
use jigsaw_core::{traj, NufftConfig, NufftPlan, PlannedTrajectory};
use jigsaw_num::C64;

const N: usize = 256;
const COILS: usize = 8;

fn random_image(len: usize, seed: u64) -> Vec<C64> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s as f64 / u64::MAX as f64 - 0.5
    };
    (0..len).map(|_| C64::new(next(), next())).collect()
}

fn bits_eq(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// One gridded normal-operator application over all coils: the exact
/// per-iteration work of the gridded CG-SENSE closure (planned forward
/// NuFFT, planned one-coil adjoint NuFFT, coil combine).
fn gridded_normal_all_coils(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    traj: &PlannedTrajectory<2>,
    x: &[C64],
) -> Vec<C64> {
    let n = maps.n();
    let mut acc = vec![C64::zeroed(); n * n];
    for c in 0..maps.coils() {
        let weighted: Vec<C64> = x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s).collect();
        let samples = plan.forward_planned(traj, &weighted).unwrap().samples;
        let back = &plan.adjoint_batch_planned(traj, &[&samples]).unwrap()[0].image;
        for ((a, b), s) in acc.iter_mut().zip(back).zip(maps.map(c)) {
            *a += *b * s.conj();
        }
    }
    acc
}

/// One Toeplitz normal-operator application over all coils through the
/// public borrowing `apply_batch`: fresh coil-weighted images, which the
/// batch copies again, then the coil combine. The CG-SENSE closure does
/// the same convolutions on coil buffers it owns and refills, which the
/// end-to-end row measures.
fn toeplitz_normal_all_coils(top: &ToeplitzOperator<2>, maps: &CoilMaps, x: &[C64]) -> Vec<C64> {
    let n = maps.n();
    let weighted: Vec<Vec<C64>> = (0..maps.coils())
        .map(|c| x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s).collect())
        .collect();
    let refs: Vec<&[C64]> = weighted.iter().map(|w| w.as_slice()).collect();
    let back = top.apply_batch(&refs).unwrap();
    let mut acc = vec![C64::zeroed(); n * n];
    for (c, b) in back.iter().enumerate() {
        for ((a, v), s) in acc.iter_mut().zip(b).zip(maps.map(c)) {
            *a += *v * s.conj();
        }
    }
    acc
}

fn main() {
    let args = HarnessArgs::parse();
    let quick = args.quick_divisor > 1;
    let samples = if quick { 2 } else { 5 };
    let cg_iters = if quick { 4 } else { 20 };
    if quick {
        println!("[quick mode: {samples} samples per point, {cg_iters} CG iterations]");
    }

    println!("=== Toeplitz vs gridded CG-SENSE normal operator ===\n");
    let spokes = (1.2 * core::f64::consts::FRAC_PI_2 * N as f64) as usize;
    let coords = traj::radial_2d(spokes, 2 * N, true);
    let m = coords.len();
    println!("radial {N}x{N}, {spokes} spokes, M = {m}, {COILS} coils\n");

    let cfg = NufftConfig::with_n(N);
    let plan = NufftPlan::<f64, 2>::new(cfg.clone()).unwrap();
    let planned = plan.plan_trajectory(&coords).unwrap();
    let maps = CoilMaps::synthetic(N, COILS);

    // One-time Toeplitz build (the single gridding pass at 2N).
    let t0 = std::time::Instant::now();
    let top = Arc::new(ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap());
    let build_seconds = t0.elapsed().as_secs_f64();
    println!(
        "toeplitz build (one 2N gridding pass): {}",
        fmt_time(build_seconds)
    );

    // Gate 1: bitwise stability across worker counts.
    let x = random_image(N * N, 0x70EB);
    let reference = top.apply(&x).unwrap();
    for workers in [1usize, 2, 8] {
        let pool = WorkerPool::new(workers);
        let y = top.apply_with(&pool, &x).unwrap();
        assert!(
            bits_eq(&reference, &y),
            "toeplitz apply must be bitwise stable at {workers} workers"
        );
    }
    println!("bitwise stable across 1/2/8-worker pools ✓\n");

    // Per-iteration normal-operator cost, both paths.
    let mut group = BenchGroup::new(&format!("cg_sense normal op {N}x{N}, {COILS} coils"));
    group.sample_size(samples).throughput_elements(m as u64);
    let gridded_stats = group.bench_function("gridded_per_iter", || {
        gridded_normal_all_coils(&plan, &maps, &planned, &x)
    });
    let toeplitz_stats = group.bench_function("toeplitz_per_iter", || {
        toeplitz_normal_all_coils(&top, &maps, &x)
    });
    group.finish();
    let ratio = toeplitz_stats.median / gridded_stats.median;
    println!(
        "\nper-iteration: gridded {} | toeplitz {} | ratio {:.3}",
        fmt_time(gridded_stats.median),
        fmt_time(toeplitz_stats.median),
        ratio
    );

    // End-to-end CG-SENSE, both paths, on a phantom acquisition.
    let truth = Phantom2d::shepp_logan().rasterize_aa(N, 4);
    let data = acquire(&plan, &maps, &truth, &coords).unwrap();
    let opts = CgOptions {
        max_iterations: cg_iters,
        tolerance: 1e-10,
        lambda: 1e-4,
        ..Default::default()
    };
    let t1 = std::time::Instant::now();
    let gridded_cg = cg_sense(&plan, &maps, &data, &coords, &opts).unwrap();
    let gridded_cg_seconds = t1.elapsed().as_secs_f64();
    let t2 = std::time::Instant::now();
    let toeplitz_cg = cg_sense_with(
        &plan,
        &maps,
        &data,
        &coords,
        &SliceDiceGridder::default(),
        &opts,
        NormalOpKind::Toeplitz,
    )
    .unwrap();
    let toeplitz_cg_seconds = t2.elapsed().as_secs_f64();
    let image_rel_l2 = rel_l2(&toeplitz_cg.image, &gridded_cg.image);
    println!(
        "end-to-end {cg_iters}-iteration CG-SENSE: gridded {} | toeplitz {} ({:.2}x) | image rel_l2 {:.2e}",
        fmt_time(gridded_cg_seconds),
        fmt_time(toeplitz_cg_seconds),
        gridded_cg_seconds / toeplitz_cg_seconds,
        image_rel_l2
    );

    let path = "BENCH_toeplitz_cg.json";
    let json = format!(
        "{{\n  \"threads\": {},\n  \"grid\": {N},\n  \"coils\": {COILS},\n  \"spokes\": {spokes},\n  \"m\": {m},\n  \"cg_iterations\": {cg_iters},\n  \"bitwise_stable_across_workers\": true,\n  \"toeplitz_build_seconds\": {build_seconds:.6e},\n  \"per_iteration\": {{\n    \"gridded_median_seconds\": {:.6e},\n    \"gridded_min_seconds\": {:.6e},\n    \"toeplitz_median_seconds\": {:.6e},\n    \"toeplitz_min_seconds\": {:.6e},\n    \"toeplitz_over_gridded\": {ratio:.4}\n  }},\n  \"end_to_end\": {{\n    \"gridded_cg_seconds\": {gridded_cg_seconds:.6e},\n    \"toeplitz_cg_seconds\": {toeplitz_cg_seconds:.6e},\n    \"image_rel_l2\": {image_rel_l2:.6e}\n  }}\n}}\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        gridded_stats.median,
        gridded_stats.min,
        toeplitz_stats.median,
        toeplitz_stats.min,
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
