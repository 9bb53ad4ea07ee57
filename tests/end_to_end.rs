//! End-to-end integration tests spanning every crate: trajectory →
//! analytic phantom k-space → gridding engine → FFT → apodization →
//! image, checked against the exact NuDFT and across engines, in 2-D and
//! 3-D, in software and through the JIGSAW simulator.

use jigsaw::core::gridding::{
    BinnedGridder, ExactGridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw::core::metrics::{nrmsd_percent, rel_l2};
use jigsaw::core::nudft::adjoint_nudft;
use jigsaw::core::phantom::{Phantom2d, Phantom3d};
use jigsaw::core::traj;
use jigsaw::core::{NufftConfig, NufftPlan};
use jigsaw::num::C64;
use jigsaw::sim::{Jigsaw2d, Jigsaw3dSlice, JigsawConfig};

/// Radial phantom acquisition reconstructed via NuFFT matches the NuDFT
/// reconstruction of the same data.
#[test]
fn radial_recon_matches_nudft() {
    let n = 32;
    let mut coords = traj::radial_2d(48, 64, true);
    traj::shuffle(&mut coords, 1);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let fast = plan.adjoint(&coords, &values, &ExactGridder).unwrap().image;
    let exact = adjoint_nudft(n, &coords, &values, None);
    let err = rel_l2(&fast, &exact);
    assert!(err < 1e-4, "NuFFT vs NuDFT on phantom data: {err}");
}

/// The full reconstruction is identical regardless of gridding engine.
#[test]
fn recon_is_engine_invariant() {
    let n = 32;
    let mut coords = traj::spiral_2d(6, 600, 5.0);
    traj::shuffle(&mut coords, 2);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let a = plan
        .adjoint(&coords, &values, &SerialGridder)
        .unwrap()
        .image;
    for engine in [
        plan.adjoint(&coords, &values, &BinnedGridder::default())
            .unwrap()
            .image,
        plan.adjoint(&coords, &values, &SliceDiceGridder::default())
            .unwrap()
            .image,
        plan.adjoint(
            &coords,
            &values,
            &SliceDiceGridder::new(SliceDiceMode::Serial),
        )
        .unwrap()
        .image,
    ] {
        for (x, y) in a.iter().zip(&engine) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}

/// Forward-then-adjoint round trip concentrates energy correctly:
/// A^H A is diagonally dominant for dense sampling.
#[test]
fn forward_adjoint_roundtrip_recovers_impulse() {
    let n = 16;
    let coords = traj::random_nd::<2>(4000, 3);
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let mut impulse = vec![C64::zeroed(); n * n];
    impulse[(n / 2) * n + n / 2] = C64::one();
    let samples = plan.forward(&impulse, &coords).unwrap().samples;
    let back = plan
        .adjoint(&coords, &samples, &SerialGridder)
        .unwrap()
        .image;
    // The center pixel must dominate every other pixel.
    let center = back[(n / 2) * n + n / 2].abs();
    for (i, z) in back.iter().enumerate() {
        if i != (n / 2) * n + n / 2 {
            assert!(
                z.abs() < 0.5 * center,
                "pixel {i} = {} vs center {center}",
                z.abs()
            );
        }
    }
}

/// The JIGSAW-accelerated pipeline reconstructs the same image as the
/// all-software pipeline within fixed-point error.
#[test]
fn accelerated_pipeline_matches_software() {
    let n = 32;
    let g = 64;
    let mut coords = traj::radial_2d(40, 64, true);
    traj::shuffle(&mut coords, 4);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let software = plan
        .adjoint(&coords, &values, &SerialGridder)
        .unwrap()
        .image;

    let mapped = plan.map_coords(&coords);
    let mut hw = Jigsaw2d::new(JigsawConfig::small(g)).unwrap();
    let (stream, scale) = hw.quantize_inputs(&mapped, &values).unwrap();
    let run = hw.run(&stream);
    let mut grid = run.grid_c64(scale);
    let (accelerated, _) = plan.finish_adjoint(&mut grid).unwrap();

    let nrmsd = nrmsd_percent(&accelerated, &software);
    assert!(nrmsd < 0.5, "accelerated recon NRMSD {nrmsd} %");
}

/// Full 3-D pipeline: stack-of-stars phantom acquisition through the 3-D
/// slice simulator vs the 3-D software engine, then a 3-D NuFFT.
#[test]
fn three_d_pipeline() {
    let n = 8;
    let g = 16;
    let mut coords = traj::stack_of_stars_3d(12, 16, g);
    traj::shuffle(&mut coords, 5);
    let values = Phantom3d::default_head().kspace(n, &coords);

    // 3-D NuFFT vs NuDFT.
    let plan = NufftPlan::<f64, 3>::new(NufftConfig::with_n(n)).unwrap();
    let img = plan.adjoint(&coords, &values, &ExactGridder).unwrap().image;
    let exact = adjoint_nudft(n, &coords, &values, None);
    let err = rel_l2(&img, &exact);
    assert!(err < 1e-3, "3-D NuFFT vs NuDFT: {err}");

    // Simulator vs software gridding on the same mapped coordinates.
    let mapped = plan.map_coords(&coords);
    let params = plan.grid_params().clone();
    let lut = jigsaw::core::lut::KernelLut::from_params(&params);
    let mut sw = vec![C64::zeroed(); g * g * g];
    use jigsaw::core::gridding::Gridder;
    SerialGridder
        .grid(&params, &lut, &mapped, &values, &mut sw)
        .unwrap();
    let mut hw = Jigsaw3dSlice::new(JigsawConfig::small(g)).unwrap();
    let (stream, scale) = hw.quantize_inputs(&mapped, &values).unwrap();
    let run = hw.run(&stream, true);
    let err3 = rel_l2(&run.grid_c64(scale), &sw);
    assert!(err3 < 5e-3, "3-D sim vs software: {err3}");
}

/// Error decreases monotonically as the table oversampling grows —
/// the L-sweep behind Fig. 9.
#[test]
fn quality_improves_with_table_oversampling() {
    let n = 32;
    let mut coords = traj::radial_2d(48, 64, true);
    traj::shuffle(&mut coords, 6);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let exact = adjoint_nudft(n, &coords, &values, None);
    let mut last = f64::MAX;
    for l in [8usize, 64, 512] {
        let mut cfg = NufftConfig::with_n(n);
        cfg.table_oversampling = l;
        let plan = NufftPlan::<f64, 2>::new(cfg).unwrap();
        let img = plan
            .adjoint(&coords, &values, &SerialGridder)
            .unwrap()
            .image;
        let err = rel_l2(&img, &exact);
        assert!(err < last, "L = {l}: err {err} should beat {last}");
        last = err;
    }
}

/// Density-compensated radial reconstruction resembles the phantom.
#[test]
fn radial_recon_resembles_phantom() {
    let n = 64;
    let mut coords = traj::radial_2d(128, 128, true);
    traj::shuffle(&mut coords, 7);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let weighted: Vec<C64> = coords
        .iter()
        .zip(&values)
        .map(|(c, v)| {
            let r = (c[0] * c[0] + c[1] * c[1]).sqrt();
            v.scale(r.max(0.125 / (2.0 * n as f64)))
        })
        .collect();
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let recon = plan
        .adjoint(&coords, &weighted, &SliceDiceGridder::default())
        .unwrap()
        .image;
    let truth = Phantom2d::shepp_logan().rasterize_aa(n, 4);
    let peak_r = recon.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let peak_t = truth.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let rn: Vec<C64> = recon.iter().map(|z| z.unscale(peak_r)).collect();
    let tn: Vec<C64> = truth.iter().map(|z| z.unscale(peak_t)).collect();
    let nrmsd = nrmsd_percent(&rn, &tn);
    assert!(
        nrmsd < 10.0,
        "direct radial recon NRMSD {nrmsd} % — should broadly match the phantom"
    );
}
