//! Microbenchmarks of the gridding engines (Fig. 6's measured
//! substrate): serial baseline vs binned vs Slice-and-Dice variants on a
//! fixed mid-size problem.

use jigsaw_bench::harness::BenchGroup;
use jigsaw_bench::{eval_images, EvalImage};
use jigsaw_core::config::GridParams;
use jigsaw_core::gridding::{
    BinnedGridder, Gridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw_core::kernel::KernelKind;
use jigsaw_core::lut::KernelLut;
use jigsaw_num::C64;

fn problem(img: &EvalImage, m: usize) -> (GridParams, KernelLut, Vec<[f64; 2]>, Vec<C64>) {
    let g = img.grid();
    let params = GridParams {
        grid: g,
        width: 6,
        table_oversampling: 32,
        tile: 8,
        kernel: KernelKind::Auto.resolve(6, 2.0),
    };
    let lut = KernelLut::from_params(&params);
    let mut coords_cycles = img.trajectory();
    coords_cycles.truncate(m);
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

fn bench_engines() {
    let img = eval_images()[1]; // N = 128
    let m = 32_768;
    let (params, lut, coords, values) = problem(&img, m);
    let g = params.grid;

    let mut group = BenchGroup::new("gridding");
    group.sample_size(10).throughput_elements(m as u64);

    let engines: [(&str, Box<dyn Gridder<f64, 2>>); 5] = [
        ("serial", Box::new(SerialGridder)),
        ("binned", Box::new(BinnedGridder::default())),
        (
            "slice_dice_serial",
            Box::new(SliceDiceGridder::new(SliceDiceMode::Serial)),
        ),
        (
            "slice_dice_parallel",
            Box::new(SliceDiceGridder::new(SliceDiceMode::ColumnParallel)),
        ),
        (
            "slice_dice_atomic",
            Box::new(SliceDiceGridder::new(SliceDiceMode::BlockAtomic)),
        ),
    ];
    for (name, engine) in &engines {
        group.bench_function(name, || {
            let mut out = vec![C64::zeroed(); g * g];
            engine.grid(&params, &lut, &coords, &values, &mut out);
            out
        });
    }
    group.finish();
}

fn bench_grid_size_scaling() {
    // Slice-and-Dice's check count is M·T², independent of grid size;
    // the naive model would scale with G². Sweep G at fixed M.
    let mut group = BenchGroup::new("grid_size_scaling");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let img = EvalImage {
            name: "sweep",
            n,
            m: 16_384,
            traj: jigsaw_bench::TrajKind::Radial,
        };
        let (params, lut, coords, values) = problem(&img, img.m);
        let g = params.grid;
        group.bench_function(&format!("slice_dice/{n}"), || {
            let mut out = vec![C64::zeroed(); g * g];
            SliceDiceGridder::new(SliceDiceMode::Serial)
                .grid(&params, &lut, &coords, &values, &mut out);
            out
        });
    }
    group.finish();
}

fn main() {
    bench_engines();
    bench_grid_size_scaling();
}
