//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * `ablation_lut` — LUT weights vs on-the-fly kernel evaluation
//!   (reason #1 the paper gives for Slice-and-Dice GPU beating Impatient).
//! * `ablation_tile` — binning tile size (cache-fit trade-off, §II-C
//!   "good binning parameters are hardware and data-set dependent").
//! * `ablation_atomics` — block-atomic vs block-reduce vs column-owned
//!   accumulation in parallel Slice-and-Dice.
//! * `ablation_l_sweep` — table oversampling factor L vs gridding cost
//!   (accuracy side measured in `tests/quality.rs`).

use jigsaw_bench::harness::BenchGroup;
use jigsaw_bench::{eval_images, EvalImage, TrajKind};
use jigsaw_core::config::GridParams;
use jigsaw_core::gridding::{
    BinnedGridder, ExactGridder, Gridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw_core::kernel::KernelKind;
use jigsaw_core::lut::KernelLut;
use jigsaw_num::C64;

fn problem(n: usize, m: usize) -> (GridParams, KernelLut, Vec<[f64; 2]>, Vec<C64>) {
    let img = EvalImage {
        name: "ablation",
        n,
        m,
        traj: TrajKind::Radial,
    };
    let g = img.grid();
    let params = GridParams {
        grid: g,
        width: 6,
        table_oversampling: 32,
        tile: 8,
        kernel: KernelKind::Auto.resolve(6, 2.0),
    };
    let lut = KernelLut::from_params(&params);
    let coords_cycles = img.trajectory();
    let values = img.kspace(&coords_cycles);
    let coords: Vec<[f64; 2]> = coords_cycles
        .iter()
        .map(|c| {
            [
                c[0].rem_euclid(1.0) * g as f64,
                c[1].rem_euclid(1.0) * g as f64,
            ]
        })
        .collect();
    (params, lut, coords, values)
}

fn ablation_lut() {
    let (params, lut, coords, values) = problem(128, 16_384);
    let g = params.grid;
    let mut group = BenchGroup::new("ablation_lut");
    group.sample_size(10);
    group.bench_function("lut_weights", || {
        let mut out = vec![C64::zeroed(); g * g];
        SerialGridder
            .grid(&params, &lut, &coords, &values, &mut out)
            .unwrap();
        out
    });
    group.bench_function("on_the_fly_weights", || {
        let mut out = vec![C64::zeroed(); g * g];
        ExactGridder
            .grid(&params, &lut, &coords, &values, &mut out)
            .unwrap();
        out
    });
    group.finish();
}

fn ablation_tile() {
    let (params, lut, coords, values) = problem(128, 16_384);
    let g = params.grid;
    let mut group = BenchGroup::new("ablation_bin_tile");
    group.sample_size(10);
    for bin_tile in [8usize, 16, 32, 64] {
        let binner = BinnedGridder {
            bin_tile,
            ..Default::default()
        };
        group.bench_function(&format!("tile{bin_tile}"), || {
            let mut out = vec![C64::zeroed(); g * g];
            binner
                .grid(&params, &lut, &coords, &values, &mut out)
                .unwrap();
            out
        });
    }
    group.finish();
}

fn ablation_atomics() {
    let (params, lut, coords, values) = problem(128, 16_384);
    let g = params.grid;
    let mut group = BenchGroup::new("ablation_accumulation");
    group.sample_size(10);
    for (name, mode) in [
        ("column_owned", SliceDiceMode::ColumnParallel),
        ("block_atomic", SliceDiceMode::BlockAtomic),
        ("block_reduce", SliceDiceMode::BlockReduce),
    ] {
        let engine = SliceDiceGridder::new(mode);
        group.bench_function(name, || {
            let mut out = vec![C64::zeroed(); g * g];
            engine
                .grid(&params, &lut, &coords, &values, &mut out)
                .unwrap();
            out
        });
    }
    group.finish();
}

fn ablation_l_sweep() {
    // Larger L grows the table but should not change gridding *time*
    // (same number of lookups) — the accuracy benefit is free at runtime.
    let img = eval_images()[0];
    let g = img.grid();
    let coords_cycles: Vec<[f64; 2]> = img.trajectory().into_iter().take(16_384).collect();
    let values = img.kspace(&coords_cycles);
    let coords: Vec<[f64; 2]> = coords_cycles
        .iter()
        .map(|c| {
            [
                c[0].rem_euclid(1.0) * g as f64,
                c[1].rem_euclid(1.0) * g as f64,
            ]
        })
        .collect();
    let mut group = BenchGroup::new("ablation_table_oversampling");
    group.sample_size(10);
    for l in [8usize, 32, 128, 1024] {
        let params = GridParams {
            grid: g,
            width: 6,
            table_oversampling: l,
            tile: 8,
            kernel: KernelKind::Auto.resolve(6, 2.0),
        };
        let lut = KernelLut::from_params(&params);
        group.bench_function(&format!("L{l}"), || {
            let mut out = vec![C64::zeroed(); g * g];
            SerialGridder
                .grid(&params, &lut, &coords, &values, &mut out)
                .unwrap();
            out
        });
    }
    group.finish();
}

fn ablation_zsort() {
    // §IV: unsorted 3-D streams re-process all M samples per slice
    // ((M+15)·Nz cycles); Z-sorting reduces it to ≈ (M+15)·Wz. Note the
    // simulator's wall-clock gap understates the modeled Nz/Wz cycle gap:
    // the software z-reject path costs far less than a broadcast hardware
    // cycle. The cycle counters (asserted in `three_d_cycle_laws`) are the
    // architecturally meaningful comparison; this bench tracks the
    // software cost of the two modes.
    use jigsaw_sim::{Jigsaw3dSlice, JigsawConfig};
    let g = 32usize;
    let coords = jigsaw_core::traj::stack_of_stars_3d(16, 32, g);
    let mapped: Vec<[f64; 3]> = coords
        .iter()
        .map(|c| {
            [
                c[0].rem_euclid(1.0) * g as f64,
                c[1].rem_euclid(1.0) * g as f64,
                c[2].rem_euclid(1.0) * g as f64,
            ]
        })
        .collect();
    let values = vec![jigsaw_num::C64::new(0.5, -0.25); mapped.len()];
    let mut hw = Jigsaw3dSlice::new(JigsawConfig {
        grid: g,
        ..JigsawConfig::paper_default()
    })
    .unwrap();
    let (stream, _) = hw.quantize_inputs(&mapped, &values).unwrap();
    let mut group = BenchGroup::new("ablation_zsort");
    group.sample_size(10);
    group.bench_function("unsorted", || hw.run(&stream, false).report);
    group.bench_function("z_sorted", || hw.run(&stream, true).report);
    group.finish();
}

fn ablation_beatty() {
    // Beatty trade-off: lower σ shrinks the FFT grid but needs a wider
    // kernel, pushing work back into gridding (§II-B).
    use jigsaw_core::gridding::SerialGridder as SG;
    use jigsaw_core::{NufftConfig, NufftPlan};
    let n = 128usize;
    let img = EvalImage {
        name: "beatty",
        n,
        m: 16_384,
        traj: TrajKind::Radial,
    };
    let coords = img.trajectory();
    let values = img.kspace(&coords);
    let mut group = BenchGroup::new("ablation_beatty");
    group.sample_size(10);
    for (sigma, width) in [(2.0, 6usize), (1.5, 7), (1.25, 8)] {
        let mut cfg = NufftConfig::with_n(n);
        cfg.sigma = sigma;
        cfg.width = width;
        let plan = NufftPlan::<f64, 2>::new(cfg).unwrap();
        group.bench_function(&format!("sigma{sigma}_w{width}"), || {
            plan.adjoint(&coords, &values, &SG).unwrap().image
        });
    }
    group.finish();
}

fn ablation_morton_presort() {
    // A Z-order presort buys the *serial* CPU gridder cache locality —
    // the same trade the paper's binning baselines make, and exactly the
    // pre-processing pass Slice-and-Dice/JIGSAW eliminate.
    let (params, lut, coords, values) = problem(256, 65_536);
    let g = params.grid;
    let perm = jigsaw_core::traj::morton_order_2d(
        &coords
            .iter()
            .map(|c| [c[0] / g as f64, c[1] / g as f64])
            .collect::<Vec<_>>(),
        g,
    );
    let sorted_coords = jigsaw_core::traj::apply_permutation(&coords, &perm);
    let sorted_values = jigsaw_core::traj::apply_permutation(&values, &perm);
    let mut group = BenchGroup::new("ablation_morton_presort");
    group.sample_size(10);
    group.bench_function("shuffled_stream", || {
        let mut out = vec![C64::zeroed(); g * g];
        SerialGridder
            .grid(&params, &lut, &coords, &values, &mut out)
            .unwrap();
        out
    });
    group.bench_function("morton_sorted_stream", || {
        let mut out = vec![C64::zeroed(); g * g];
        SerialGridder
            .grid(&params, &lut, &sorted_coords, &sorted_values, &mut out)
            .unwrap();
        out
    });
    group.finish();
}

fn main() {
    ablation_lut();
    ablation_tile();
    ablation_atomics();
    ablation_l_sweep();
    ablation_zsort();
    ablation_beatty();
    ablation_morton_presort();
}
