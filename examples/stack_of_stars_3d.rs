//! 3-D stack-of-stars gridding on the JIGSAW 3D Slice variant:
//! demonstrates the slice-serial processing model and the cycle savings
//! from Z-sorting the sample stream (§IV "Gridding in 2D and 3D").
//!
//! ```sh
//! cargo run --release --example stack_of_stars_3d
//! ```

use jigsaw::core::config::GridParams;
use jigsaw::core::gridding::{Gridder, SliceDiceGridder};
use jigsaw::core::kernel::KernelKind;
use jigsaw::core::lut::KernelLut;
use jigsaw::core::metrics::rel_l2;
use jigsaw::core::phantom::Phantom3d;
use jigsaw::core::traj;
use jigsaw::num::C64;
use jigsaw::sim::{Jigsaw3dSlice, JigsawConfig};

fn main() {
    let g = 32usize; // small 3-D target grid: 32³
    let phantom = Phantom3d::default_head();

    // Stack-of-stars: radial in (ky, kx) on each of g/2 kz planes.
    let mut coords = traj::stack_of_stars_3d(24, 48, g / 2);
    traj::shuffle(&mut coords, 11);
    let n_img = g / 2; // base image size (σ = 2)
    let values = phantom.kspace(n_img, &coords);
    let m = coords.len();
    println!("stack-of-stars: {m} samples onto a {g}³ oversampled grid");

    // Map cycles → grid units.
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

    let cfg = JigsawConfig {
        grid: g,
        ..JigsawConfig::paper_default()
    };
    let mut hw = Jigsaw3dSlice::new(cfg).expect("config");
    let (stream, scale) = hw.quantize_inputs(&mapped, &values).expect("stream");

    let unsorted = hw.run(&stream, false);
    let sorted = hw.run(&stream, true);
    println!(
        "unsorted stream: {} cycles  ((M+15)·Nz = {})",
        unsorted.report.compute_cycles,
        (m as u64 + 15) * g as u64
    );
    println!(
        "Z-sorted stream: {} cycles  (≈ (M+15)·Wz = {})",
        sorted.report.compute_cycles,
        (m as u64 + 15) * 6
    );
    println!(
        "Z-sorting speedup: {:.1}×",
        unsorted.report.compute_cycles as f64 / sorted.report.compute_cycles as f64
    );
    assert_eq!(unsorted.grid, sorted.grid, "grids must be identical");

    // Verify against the software 3-D Slice-and-Dice engine in f64.
    let params = GridParams {
        grid: g,
        width: 6,
        table_oversampling: 32,
        tile: 8,
        kernel: KernelKind::Auto.resolve(6, 2.0),
    };
    let lut = KernelLut::from_params(&params);
    let mut reference = vec![C64::zeroed(); g * g * g];
    SliceDiceGridder::default()
        .grid(&params, &lut, &mapped, &values, &mut reference)
        .unwrap();
    let err = rel_l2(&unsorted.grid_c64(scale), &reference);
    println!("fixed-point 3-D grid error vs f64 software: {err:.2e}");
}
