//! Property suite for the Toeplitz normal-operator fast path.
//!
//! Graduates the old in-crate `toeplitz_path_matches_nufft_path` check
//! into randomized properties: across trajectory families (radial,
//! spiral, random), dimensions (1-D and 2-D), and density weightings,
//! the gridding-free Toeplitz operator must agree with the explicit
//! `AᴴWA` forward/adjoint composition — both as a raw operator and
//! through the full CG solve.

use std::sync::Arc;

use jigsaw::core::engine::WorkerPool;
use jigsaw::core::gridding::SliceDiceGridder;
use jigsaw::core::metrics::rel_l2;
use jigsaw::core::recon::{cg_solve, CgOptions, NormalOp, NormalOpKind};
use jigsaw::core::sense::{acquire, cg_sense_with, CoilMaps};
use jigsaw::core::toeplitz::ToeplitzOperator;
use jigsaw::core::{traj, NufftConfig, NufftPlan};
use jigsaw::num::C64;
use jigsaw_testkit::{cases, Rng};

/// Agreement tolerance between the Toeplitz path and the gridded
/// forward/adjoint composition. Both paths share one gridding kernel, so
/// the residual is aliasing from the finite oversampled grid — small but
/// not machine epsilon.
const TOL: f64 = 5e-2;

fn bits_eq(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// One random trajectory from a named family, scaled to grid `n`.
fn arb_traj_2d(rng: &mut Rng, n: usize) -> (&'static str, Vec<[f64; 2]>) {
    match rng.usize_range(0, 3) {
        0 => {
            let spokes = rng.usize_range(6, 14);
            ("radial", traj::radial_2d(spokes, 2 * n, rng.bool(0.5)))
        }
        1 => {
            let arms = rng.usize_range(2, 6);
            ("spiral", traj::spiral_2d(arms, 2 * n, 3.0))
        }
        _ => {
            let m = rng.usize_range(2 * n * n / 3, 2 * n * n);
            (
                "random",
                scale_to_grid(traj::random_nd::<2>(m, rng.u64()), n),
            )
        }
    }
}

/// `random_nd` emits coordinates in `[0, 1)`; map them onto `[0, n)`
/// like the other generators.
fn scale_to_grid<const D: usize>(mut coords: Vec<[f64; D]>, n: usize) -> Vec<[f64; D]> {
    let span = n as f64;
    for c in &mut coords {
        for x in c.iter_mut() {
            *x *= span;
        }
    }
    coords
}

fn arb_image(rng: &mut Rng, len: usize) -> Vec<C64> {
    rng.vec(len, |r| {
        C64::new(r.f64_range(-1.0, 1.0), r.f64_range(-1.0, 1.0))
    })
}

fn arb_weights(rng: &mut Rng, m: usize) -> Vec<f64> {
    if rng.bool(0.5) {
        Vec::new()
    } else {
        let mut r2 = Rng::new(rng.u64());
        (0..m).map(|_| r2.f64_range(0.05, 1.0)).collect()
    }
}

/// Explicit gridded normal operator: `x → Aᴴ W A x` via one forward and
/// one adjoint NuFFT — the exact composition the Toeplitz kernel
/// replaces.
fn gridded_normal<const D: usize>(
    plan: &NufftPlan<f64, D>,
    coords: &[[f64; D]],
    weights: &[f64],
    gridder: &SliceDiceGridder,
    x: &[C64],
) -> Vec<C64> {
    let mut samples = plan.forward(x, coords).unwrap().samples;
    if !weights.is_empty() {
        for (s, &w) in samples.iter_mut().zip(weights) {
            *s = s.scale(w);
        }
    }
    plan.adjoint(coords, &samples, gridder).unwrap().image
}

/// 2-D property: for every trajectory family and weighting, the Toeplitz
/// operator agrees with the gridded composition on random images.
#[test]
fn toeplitz_matches_gridded_normal_op_2d() {
    cases!(12, |rng| {
        let n = *rng.choose(&[8, 12, 16]);
        let (family, coords) = arb_traj_2d(rng, n);
        let weights = arb_weights(rng, coords.len());
        let cfg = NufftConfig::with_n(n);
        let plan = NufftPlan::<f64, 2>::new(cfg.clone()).unwrap();
        let gridder = SliceDiceGridder::default();
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &weights).unwrap();

        let x = arb_image(rng, n * n);
        let direct = gridded_normal(&plan, &coords, &weights, &gridder, &x);
        let fast = top.apply(&x).unwrap();
        let err = rel_l2(&fast, &direct);
        assert!(
            err < TOL,
            "{family} n={n} m={} weighted={}: rel_l2 {err:.3e}",
            coords.len(),
            !weights.is_empty()
        );
    });
}

/// 1-D property: same agreement on random 1-D trajectories.
#[test]
fn toeplitz_matches_gridded_normal_op_1d() {
    cases!(12, |rng| {
        let n = *rng.choose(&[16, 24, 32]);
        let m = rng.usize_range(2 * n, 4 * n);
        let coords = scale_to_grid(traj::random_nd::<1>(m, rng.u64()), n);
        let weights = arb_weights(rng, m);
        let cfg = NufftConfig::with_n(n);
        let plan = NufftPlan::<f64, 1>::new(cfg.clone()).unwrap();
        let gridder = SliceDiceGridder::default();
        let top = ToeplitzOperator::<1>::build(&cfg, &coords, &weights).unwrap();

        let x = arb_image(rng, n);
        let direct = gridded_normal(&plan, &coords, &weights, &gridder, &x);
        let fast = top.apply(&x).unwrap();
        let err = rel_l2(&fast, &direct);
        assert!(err < TOL, "1-D n={n} m={m}: rel_l2 {err:.3e}");
    });
}

/// The full CG solve through `NormalOp::Toeplitz` converges to the same
/// image as the gridded `NormalOp::Nufft` closure.
#[test]
fn cg_through_toeplitz_matches_gridded_cg() {
    cases!(8, |rng| {
        let n = *rng.choose(&[8, 12]);
        // Well-sampled systems (M ≥ 2N²): with fewer samples the normal
        // system is rank-deficient and CG amplifies the (bounded)
        // operator discrepancy arbitrarily in the null space — the
        // raw-operator properties above cover that regime instead.
        let (family, coords) = match rng.usize_range(0, 3) {
            0 => (
                "radial",
                traj::radial_2d(rng.usize_range(n, 2 * n), 2 * n, rng.bool(0.5)),
            ),
            1 => (
                "spiral",
                traj::spiral_2d(rng.usize_range(n, 2 * n), 2 * n, 3.0),
            ),
            _ => (
                "random",
                scale_to_grid(
                    traj::random_nd::<2>(rng.usize_range(2 * n * n, 3 * n * n), rng.u64()),
                    n,
                ),
            ),
        };
        let weights = arb_weights(rng, coords.len());
        let cfg = NufftConfig::with_n(n);
        let plan = NufftPlan::<f64, 2>::new(cfg.clone()).unwrap();
        let gridder = SliceDiceGridder::default();

        let data: Vec<C64> = (0..coords.len())
            .map(|i| C64::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let weighted: Vec<C64> = if weights.is_empty() {
            data.clone()
        } else {
            data.iter()
                .zip(&weights)
                .map(|(d, &w)| d.scale(w))
                .collect()
        };
        let rhs = plan.adjoint(&coords, &weighted, &gridder).unwrap().image;
        // λ scales with M (the normal operator's eigenvalues are O(M))
        // so the system stays well-conditioned and CG does not amplify
        // the (bounded) operator discrepancy — the raw-operator
        // properties above pin the discrepancy itself.
        let opts = CgOptions {
            max_iterations: 10,
            tolerance: 1e-10,
            lambda: 0.02 * coords.len() as f64,
            ..Default::default()
        };

        let planned = plan.plan_trajectory(&coords).unwrap();
        let gridded = cg_solve(
            &NormalOp::Nufft {
                plan: &plan,
                traj: &planned,
                weights: &weights,
            },
            &rhs,
            &opts,
        )
        .unwrap();
        let top = Arc::new(ToeplitzOperator::<2>::build(&cfg, &coords, &weights).unwrap());
        let fast = cg_solve(&NormalOp::Toeplitz(top), &rhs, &opts).unwrap();
        let err = rel_l2(&fast.image, &gridded.image);
        assert!(
            err < TOL,
            "{family} n={n}: CG images differ, rel_l2 {err:.3e}"
        );
    });
}

/// CG-SENSE through the batched Toeplitz kernel agrees with the gridded
/// per-coil closure on synthetic multi-coil acquisitions.
#[test]
fn cg_sense_toeplitz_matches_gridded() {
    cases!(4, |rng| {
        let n = 12;
        let coils = rng.usize_range(2, 5);
        let spokes = rng.usize_range(8, 14);
        let coords = traj::radial_2d(spokes, 2 * n, true);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let gridder = SliceDiceGridder::default();
        let maps = CoilMaps::synthetic(n, coils);
        let truth: Vec<C64> = arb_image(rng, n * n);
        let data = acquire(&plan, &maps, &truth, &coords).unwrap();
        let opts = CgOptions {
            max_iterations: 8,
            tolerance: 1e-10,
            lambda: 1e-4,
            ..Default::default()
        };

        let gridded = cg_sense_with(
            &plan,
            &maps,
            &data,
            &coords,
            &gridder,
            &opts,
            NormalOpKind::Gridded,
        )
        .unwrap();
        let fast = cg_sense_with(
            &plan,
            &maps,
            &data,
            &coords,
            &gridder,
            &opts,
            NormalOpKind::Toeplitz,
        )
        .unwrap();
        let err = rel_l2(&fast.image, &gridded.image);
        assert!(
            err < TOL,
            "coils={coils} spokes={spokes}: CG-SENSE images differ, rel_l2 {err:.3e}"
        );
    });
}

/// Applying the operator is bitwise deterministic across worker counts:
/// an image's convolution is one serial job that runs the same operations
/// on whichever worker takes it, so 1, 2, 3 and 4 workers all produce
/// identical bits.
#[test]
fn apply_is_bitwise_stable_across_worker_counts() {
    cases!(4, |rng| {
        let n = 16;
        let (_, coords) = arb_traj_2d(rng, n);
        let cfg = NufftConfig::with_n(n);
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        let x = arb_image(rng, n * n);

        let reference = top.apply(&x).unwrap();
        for workers in [1, 2, 3, 4] {
            let pool = WorkerPool::new(workers);
            let y = top.apply_with(&pool, &x).unwrap();
            assert!(
                bits_eq(&reference, &y),
                "output must be bitwise stable at {workers} workers"
            );
        }
    });
}

/// The batched entry point is bitwise identical to per-coil single
/// applies, in coil order — also for coil counts that do not split evenly
/// over the pool's workers — and an empty batch returns no images.
#[test]
fn apply_batch_is_bitwise_identical_to_singles() {
    cases!(6, |rng| {
        let n = 12;
        let (_, coords) = arb_traj_2d(rng, n);
        let cfg = NufftConfig::with_n(n);
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        assert!(top.apply_batch(&[]).unwrap().is_empty());

        let ncoils = rng.usize_range(1, 6);
        let coils: Vec<Vec<C64>> = (0..ncoils).map(|_| arb_image(rng, n * n)).collect();
        let refs: Vec<&[C64]> = coils.iter().map(|c| c.as_slice()).collect();
        let batched = top.apply_batch(&refs).unwrap();
        assert_eq!(batched.len(), ncoils);
        for (coil, fast) in coils.iter().zip(&batched) {
            let single = top.apply(coil).unwrap();
            assert!(
                bits_eq(&single, fast),
                "batch and single applies must match"
            );
        }
    });
}
