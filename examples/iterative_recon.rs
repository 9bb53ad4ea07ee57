//! Iterative (CG) reconstruction — the paper's motivating workload, where
//! "millions of NuFFTs are taken iteratively to reconstruct a single
//! volume" and gridding throughput decides everything.
//!
//! Compares three reconstructions of an undersampled radial acquisition:
//! direct adjoint, density-compensated adjoint, and conjugate-gradient
//! least squares — and both normal-operator strategies (NuFFT pair per
//! iteration vs Impatient's Toeplitz embedding).
//!
//! ```sh
//! cargo run --release --example iterative_recon
//! ```

use jigsaw::core::density;
use jigsaw::core::gridding::SliceDiceGridder;
use jigsaw::core::lut::KernelLut;
use jigsaw::core::metrics::nrmsd_percent;
use jigsaw::core::phantom::Phantom2d;
use jigsaw::core::recon::{cg_solve, CgOptions, NormalOp};
use jigsaw::core::toeplitz::ToeplitzOperator;
use jigsaw::core::traj;
use jigsaw::core::{NufftConfig, NufftPlan};
use jigsaw::num::C64;
use std::time::Instant;

fn main() {
    let n = 96usize;
    let phantom = Phantom2d::shepp_logan();

    // 2× undersampled radial acquisition (half the fully-sampled spokes).
    let spokes = (core::f64::consts::FRAC_PI_2 * n as f64 / 2.0) as usize;
    let mut coords = traj::radial_2d(spokes, 2 * n, true);
    traj::shuffle(&mut coords, 77);
    let data = phantom.kspace(n, &coords);
    println!(
        "undersampled radial: {spokes} spokes, {} samples for a {n}² image",
        coords.len()
    );

    let cfg = NufftConfig::with_n(n);
    let plan = NufftPlan::<f64, 2>::new(cfg.clone()).expect("plan");
    let engine = SliceDiceGridder::default();
    let truth = phantom.rasterize_aa(n, 4);
    let quality = |img: &[C64]| -> f64 {
        let pk = |v: &[C64]| v.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-30);
        let (pi, pt) = (pk(img), pk(&truth));
        let a: Vec<C64> = img.iter().map(|z| z.unscale(pi)).collect();
        let b: Vec<C64> = truth.iter().map(|z| z.unscale(pt)).collect();
        nrmsd_percent(&a, &b)
    };

    // 1. Direct adjoint (no compensation).
    let direct = plan
        .adjoint(&coords, &data, &engine)
        .expect("adjoint")
        .image;
    println!("direct adjoint           : NRMSD {:.2}%", quality(&direct));

    // 2. Pipe–Menon density-compensated adjoint.
    let params = plan.grid_params().clone();
    let lut = KernelLut::from_params(&params);
    let mapped = plan.map_coords(&coords);
    let w = density::pipe_menon(&params, &lut, &mapped, 8).expect("pipe-menon");
    let weighted: Vec<C64> = data.iter().zip(&w).map(|(d, &wi)| d.scale(wi)).collect();
    let dc = plan
        .adjoint(&coords, &weighted, &engine)
        .expect("adjoint")
        .image;
    println!("density-compensated      : NRMSD {:.2}%", quality(&dc));

    // 3. CG with the NuFFT normal operator.
    let rhs = plan.adjoint(&coords, &data, &engine).expect("rhs").image;
    let opts = CgOptions {
        max_iterations: 15,
        tolerance: 1e-8,
        lambda: 1e-5,
        budget: Default::default(),
    };
    let t0 = Instant::now();
    let planned = plan.plan_trajectory(&coords).expect("plan trajectory");
    let via_nufft = cg_solve(
        &NormalOp::Nufft {
            plan: &plan,
            traj: &planned,
            weights: &[],
        },
        &rhs,
        &opts,
    )
    .expect("cg");
    let t_nufft = t0.elapsed();
    println!(
        "CG (NuFFT operator)      : NRMSD {:.2}% after {} iters in {:.1} ms",
        quality(&via_nufft.image),
        via_nufft.residuals.len(),
        t_nufft.as_secs_f64() * 1e3
    );

    // 4. CG with the Toeplitz normal operator (grids once, FFTs after).
    let t1 = Instant::now();
    let top =
        std::sync::Arc::new(ToeplitzOperator::<2>::build(&cfg, &coords, &[]).expect("toeplitz"));
    let t_build = t1.elapsed();
    let t2 = Instant::now();
    let via_toeplitz = cg_solve(&NormalOp::Toeplitz(top), &rhs, &opts).expect("cg");
    let t_toep = t2.elapsed();
    println!(
        "CG (Toeplitz operator)   : NRMSD {:.2}% after {} iters in {:.1} ms (+{:.1} ms one-time gridding)",
        quality(&via_toeplitz.image),
        via_toeplitz.residuals.len(),
        t_toep.as_secs_f64() * 1e3,
        t_build.as_secs_f64() * 1e3
    );
    println!(
        "\nThe Toeplitz path amortizes gridding into setup — which is why\n\
         Impatient adopted it, and why its remaining bottleneck (that one\n\
         gridding pass) is exactly what Slice-and-Dice/JIGSAW accelerate."
    );
}
