//! Iterative image reconstruction — the workload that motivates the
//! paper.
//!
//! §I: "With the rise in real-time and iterative image reconstruction
//! techniques — particularly in 3D, wherein millions of NuFFTs are taken
//! iteratively to reconstruct a single volume — NuFFT performance is key."
//!
//! This module provides conjugate-gradient SENSE-style reconstruction of
//! the regularized normal equations
//!
//! ```text
//! (AᴴWA + λI) x = AᴴW b
//! ```
//!
//! where `A` is the forward NuFFT, `W` optional density weights, and `λ`
//! a Tikhonov term. The normal operator can be evaluated either with a
//! forward+adjoint NuFFT pair per iteration (two gridding passes — the
//! cost profile JIGSAW targets) or through the precomputed
//! [`ToeplitzOperator`] (two FFTs, Impatient's strategy); both paths are
//! exposed so the trade-off is measurable.
//!
//! Every NuFFT a solve runs reads one planned trajectory: it is planned
//! once per solve ([`NufftPlan::plan_trajectory`]), the right-hand side
//! and the gridded operator's adjoint half run the planned one-coil
//! adjoint over it, and the gridded operator's forward half gathers over
//! it ([`NufftPlan::forward_planned`]). The Toeplitz build plans its own
//! at `2N`. The planned scatter is bitwise equal to every deterministic
//! gridding engine, so no solve takes an engine argument.

use crate::budget::RunBudget;
use crate::nufft::{NufftPlan, PlannedTrajectory};
use crate::toeplitz::ToeplitzOperator;
use crate::{Error, Result};
use jigsaw_num::C64;
use jigsaw_telemetry as telemetry;
use std::sync::Arc;

/// Options for [`cg_reconstruct`].
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Maximum CG iterations.
    pub max_iterations: usize,
    /// Relative residual (‖r‖/‖r₀‖) stopping threshold.
    pub tolerance: f64,
    /// Tikhonov regularization weight λ.
    pub lambda: f64,
    /// Cooperative wall-clock / cancellation budget, checked between
    /// iterations (and between per-coil chunks in
    /// [`crate::sense::cg_sense`]). Defaults to unlimited.
    pub budget: RunBudget,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            max_iterations: 20,
            tolerance: 1e-6,
            lambda: 0.0,
            budget: RunBudget::unlimited(),
        }
    }
}

/// Why a CG solve stopped — distinguishes clean convergence from the
/// contained numerical / budget failure modes (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgDiagnostic {
    /// Relative residual dropped below the tolerance.
    Converged,
    /// Iteration cap reached without convergence; the last iterate is
    /// returned.
    MaxIterations,
    /// Krylov breakdown: the search-direction curvature `⟨p, Ap⟩`
    /// underflowed, so no further progress is possible. The last iterate
    /// is returned.
    Breakdown,
    /// A non-finite residual or curvature appeared (NaN/Inf in the data
    /// or operator). The best *finite* iterate is returned.
    NonFinite,
    /// The residual grew far past the best seen — the operator is not
    /// positive semi-definite or the problem is badly scaled. The best
    /// iterate is returned.
    Diverged,
    /// The [`RunBudget`] was exhausted mid-solve; the best iterate so far
    /// is returned. (Exhaustion before any iterate exists is reported as
    /// [`crate::Error::Budget`] instead.)
    BudgetExhausted,
}

impl CgDiagnostic {
    /// Whether the solve ended without a contained failure.
    pub fn is_clean(self) -> bool {
        matches!(
            self,
            CgDiagnostic::Converged | CgDiagnostic::MaxIterations | CgDiagnostic::Breakdown
        )
    }
}

impl core::fmt::Display for CgDiagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CgDiagnostic::Converged => "converged",
            CgDiagnostic::MaxIterations => "max-iterations",
            CgDiagnostic::Breakdown => "breakdown",
            CgDiagnostic::NonFinite => "non-finite (best finite iterate returned)",
            CgDiagnostic::Diverged => "diverged (best iterate returned)",
            CgDiagnostic::BudgetExhausted => "budget-exhausted (best iterate returned)",
        };
        f.write_str(s)
    }
}

/// Reconstruction output: the image plus the CG convergence history.
#[derive(Debug, Clone)]
pub struct CgOutput {
    /// Reconstructed `[N; D]` image.
    pub image: Vec<C64>,
    /// Relative residual after each iteration.
    pub residuals: Vec<f64>,
    /// Why the solve stopped.
    pub diagnostic: CgDiagnostic,
}

/// Which normal-operator evaluation strategy a reconstruction selects —
/// the seam shared by [`cg_reconstruct_with`] and
/// [`crate::sense::cg_sense_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormalOpKind {
    /// Forward + adjoint NuFFT per iteration (two gridding passes). The
    /// default until the Toeplitz accuracy gate graduates.
    #[default]
    Gridded,
    /// Precomputed [`ToeplitzOperator`]: one gridding pass at build
    /// time, two padded FFTs per iteration, zero gridding in the hot
    /// loop. A failed build degrades back to [`NormalOpKind::Gridded`]
    /// under the engine's fallback policy (see
    /// [`ToeplitzOperator::build_degradable`]).
    Toeplitz,
}

/// How the normal operator is evaluated each iteration.
pub enum NormalOp<'a, const D: usize> {
    /// Forward + adjoint NuFFT per iteration (two gridding passes).
    Nufft {
        /// The planned transform.
        plan: &'a NufftPlan<f64, D>,
        /// The trajectory planned by `plan`: the forward half gathers
        /// over it and the adjoint half scatters over it.
        traj: &'a PlannedTrajectory<D>,
        /// Optional density weights (empty = uniform).
        weights: &'a [f64],
    },
    /// Precomputed Toeplitz embedding (two FFTs, no gridding), shared
    /// as [`ToeplitzOperator::build_degradable`] returns it.
    Toeplitz(Arc<ToeplitzOperator<D>>),
}

impl<const D: usize> NormalOp<'_, D> {
    fn apply(&self, x: &[C64]) -> Result<Vec<C64>> {
        match self {
            NormalOp::Nufft {
                plan,
                traj,
                weights,
            } => {
                let mut samples = plan.forward_planned(traj, x)?.samples;
                if !weights.is_empty() {
                    for (s, &w) in samples.iter_mut().zip(*weights) {
                        *s = s.scale(w);
                    }
                }
                Ok(plan.adjoint_planned(traj, &samples)?.image)
            }
            NormalOp::Toeplitz(t) => t.apply(x),
        }
    }
}

fn dot(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(x, y)| *x * y.conj()).sum()
}

/// Residual growth factor past the best seen that declares divergence.
/// The zero start iterate has relative residual exactly 1, so this also
/// bounds absolute blow-up on the very first iteration.
const CG_DIVERGENCE_FACTOR: f64 = 1e4;

/// The shared hardened CG loop: solve `(A + λI) x = rhs` from zero via
/// `apply`, with best-iterate tracking, non-finite / divergence
/// containment, deterministic fault injection at
/// [`crate::fault::RECON_CG_ITER`], and cooperative budget checks between
/// iterations.
///
/// Errors from `apply` propagate — except [`Error::Budget`], which (once
/// at least one iterate exists) degrades to the best iterate with a
/// [`CgDiagnostic::BudgetExhausted`] flag. A budget that exhausts before
/// the first iterate completes is a hard [`Error::Budget`].
pub(crate) fn cg_loop(
    mut apply: impl FnMut(&[C64]) -> Result<Vec<C64>>,
    rhs: &[C64],
    opts: &CgOptions,
) -> Result<CgOutput> {
    let n = rhs.len();
    let mut x = vec![C64::zeroed(); n];
    let mut r = rhs.to_vec();
    let mut p = r.clone();
    let r0_norm = dot(&r, &r).re.sqrt().max(1e-300);
    let mut rs_old = dot(&r, &r).re;
    let mut residuals = Vec::with_capacity(opts.max_iterations);
    // The zero start iterate: relative residual ‖r₀‖/‖r₀‖ = 1 exactly.
    let mut best = x.clone();
    let mut best_rel = 1.0f64;
    let mut diagnostic = CgDiagnostic::MaxIterations;
    for iter in 0..opts.max_iterations {
        if opts.budget.exhausted() {
            diagnostic = CgDiagnostic::BudgetExhausted;
            break;
        }
        let _iter_span = telemetry::span!("recon.cg_iteration", { iter: iter });
        let mut ap = match apply(&p) {
            Ok(v) => v,
            Err(Error::Budget(_)) if !residuals.is_empty() => {
                diagnostic = CgDiagnostic::BudgetExhausted;
                break;
            }
            Err(e) => return Err(e),
        };
        if opts.lambda != 0.0 {
            for (a, &pv) in ap.iter_mut().zip(&p) {
                *a += pv.scale(opts.lambda);
            }
        }
        let denom = dot(&p, &ap).re;
        if !denom.is_finite() {
            diagnostic = CgDiagnostic::NonFinite;
            break;
        }
        if denom.abs() < 1e-300 {
            diagnostic = CgDiagnostic::Breakdown;
            break;
        }
        let alpha = rs_old / denom;
        for ((xi, pi), (ri, api)) in x.iter_mut().zip(&p).zip(r.iter_mut().zip(&ap)) {
            *xi += pi.scale(alpha);
            *ri -= api.scale(alpha);
        }
        let mut rs_new = dot(&r, &r).re;
        // Deterministic fault injection: poison (don't panic) so the
        // solver's own non-finite containment is what gets exercised.
        if crate::fault::should_fire(crate::fault::RECON_CG_ITER) {
            rs_new = f64::NAN;
        }
        let rel = rs_new.sqrt() / r0_norm;
        residuals.push(rel);
        // Residual time-series: a counter event per iteration (visible as
        // a chrome-trace counter track) plus a last-value gauge.
        telemetry::counter_event("recon.cg_residual", rel);
        telemetry::record_gauge("recon.cg_residual", rel);
        if !rel.is_finite() {
            diagnostic = CgDiagnostic::NonFinite;
            break;
        }
        if rel > best_rel * CG_DIVERGENCE_FACTOR {
            diagnostic = CgDiagnostic::Diverged;
            break;
        }
        if rel < best_rel {
            best_rel = rel;
            best.copy_from_slice(&x);
        }
        if rel < opts.tolerance {
            diagnostic = CgDiagnostic::Converged;
            break;
        }
        let beta = rs_new / rs_old;
        for (pi, &ri) in p.iter_mut().zip(&r) {
            *pi = ri + pi.scale(beta);
        }
        rs_old = rs_new;
    }
    if diagnostic == CgDiagnostic::BudgetExhausted && residuals.is_empty() {
        return Err(Error::Budget(
            "run budget exhausted before the first CG iteration".into(),
        ));
    }
    // Clean stops return the last iterate (converged ⇒ it is also the
    // best); contained failures return the best finite iterate instead of
    // the possibly-poisoned last one.
    let image = if diagnostic.is_clean() { x } else { best };
    Ok(CgOutput {
        image,
        residuals,
        diagnostic,
    })
}

/// Solve `(AᴴWA + λI) x = rhs` by conjugate gradients, starting from zero.
///
/// `rhs` must already be `AᴴW b` (compute it with one adjoint NuFFT of
/// the weighted data). Numerical failure modes (non-finite values,
/// divergence) and budget exhaustion are contained: the solve returns its
/// best iterate with the reason in [`CgOutput::diagnostic`].
pub fn cg_solve<const D: usize>(
    op: &NormalOp<'_, D>,
    rhs: &[C64],
    opts: &CgOptions,
) -> Result<CgOutput> {
    let _span = telemetry::span!("recon.cg_solve", {
        n: rhs.len(),
        max_iterations: opts.max_iterations
    });
    cg_loop(|v| op.apply(v), rhs, opts)
}

/// Convenience wrapper: full CG reconstruction from k-space data with
/// the gridded normal operator.
pub fn cg_reconstruct<const D: usize>(
    plan: &NufftPlan<f64, D>,
    coords: &[[f64; D]],
    data: &[C64],
    weights: &[f64],
    opts: &CgOptions,
) -> Result<CgOutput> {
    cg_reconstruct_with(plan, coords, data, weights, opts, NormalOpKind::Gridded)
}

/// Full CG reconstruction with an explicit normal-operator selection.
///
/// The trajectory is planned once per solve: the right-hand side and,
/// with [`NormalOpKind::Gridded`], every forward and adjoint half of the
/// normal operator run the planned gather and scatter over it.
/// [`NormalOpKind::Toeplitz`] builds the operator once (one gridding
/// pass at `2N`) and iterates gridding-free; a degradable build failure
/// (injected fault, non-finite PSF) falls back to the gridded path under
/// the engine's serial-fallback policy.
pub fn cg_reconstruct_with<const D: usize>(
    plan: &NufftPlan<f64, D>,
    coords: &[[f64; D]],
    data: &[C64],
    weights: &[f64],
    opts: &CgOptions,
    kind: NormalOpKind,
) -> Result<CgOutput> {
    let traj = plan.plan_trajectory(coords)?;
    // rhs = AᴴW b.
    let weighted: Vec<C64> = if weights.is_empty() {
        data.to_vec()
    } else {
        data.iter().zip(weights).map(|(d, &w)| d.scale(w)).collect()
    };
    let rhs = plan.adjoint_planned(&traj, &weighted)?.image;
    let toeplitz = match kind {
        NormalOpKind::Gridded => None,
        NormalOpKind::Toeplitz => {
            ToeplitzOperator::<D>::degradable(plan.config(), coords, weights)?
        }
    };
    let op = match toeplitz {
        Some(t) => NormalOp::Toeplitz(t),
        None => NormalOp::Nufft {
            plan,
            traj: &traj,
            weights,
        },
    };
    cg_solve(&op, &rhs, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NufftConfig;
    use crate::gridding::SerialGridder;
    use crate::metrics::rel_l2;
    use crate::phantom::Phantom2d;
    use crate::traj;

    #[test]
    fn cg_recovers_image_from_dense_sampling() {
        // With M ≫ N² random samples, AᴴA ≈ M·I and CG recovers the image.
        let n = 12;
        let mut coords = traj::random_nd::<2>(1500, 4);
        traj::shuffle(&mut coords, 1);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let truth: Vec<C64> = (0..n * n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let data = plan.forward(&truth, &coords).unwrap().samples;
        let out = cg_reconstruct(
            &plan,
            &coords,
            &data,
            &[],
            &CgOptions {
                max_iterations: 30,
                tolerance: 1e-9,
                lambda: 0.0,
                budget: Default::default(),
            },
        )
        .unwrap();
        let err = rel_l2(&out.image, &truth);
        assert!(err < 1e-3, "CG reconstruction error {err}");
    }

    #[test]
    fn residuals_decrease_monotonically_enough() {
        let n = 12;
        let coords = traj::random_nd::<2>(800, 9);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let truth: Vec<C64> = (0..n * n).map(|i| C64::from_re((i % 7) as f64)).collect();
        let data = plan.forward(&truth, &coords).unwrap().samples;
        let out = cg_reconstruct(&plan, &coords, &data, &[], &CgOptions::default()).unwrap();
        assert!(out.residuals.len() >= 3);
        let first = out.residuals[0];
        let last = *out.residuals.last().unwrap();
        assert!(last < first / 10.0, "residuals {first} → {last}");
    }

    #[test]
    fn cg_beats_direct_adjoint_on_radial_phantom() {
        let n = 32;
        let mut coords = traj::radial_2d(52, 64, true);
        traj::shuffle(&mut coords, 3);
        let phantom = Phantom2d::shepp_logan();
        let data = phantom.kspace(n, &coords);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let truth = phantom.rasterize_aa(n, 4);

        let normalize = |img: &[C64]| -> Vec<C64> {
            let peak = img.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-30);
            img.iter().map(|z| z.unscale(peak)).collect()
        };
        let tn = normalize(&truth);

        // Direct (unweighted) adjoint: blurred by the density.
        let direct = plan.adjoint(&coords, &data, &SerialGridder).unwrap().image;
        let err_direct = rel_l2(&normalize(&direct), &tn);

        // 12 CG iterations.
        let out = cg_reconstruct(
            &plan,
            &coords,
            &data,
            &[],
            &CgOptions {
                max_iterations: 12,
                tolerance: 1e-8,
                lambda: 1e-6,
                budget: Default::default(),
            },
        )
        .unwrap();
        let err_cg = rel_l2(&normalize(&out.image), &tn);
        assert!(
            err_cg < err_direct / 2.0,
            "CG {err_cg} should beat direct adjoint {err_direct}"
        );
    }

    fn bits_eq(a: &[C64], b: &[C64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn planned_gridded_cg_is_bitwise_the_serial_composition() {
        // 15 000 · 6² accumulations: every planned adjoint splits into
        // row bands wherever the global pool has two workers.
        let n = 24;
        let coords = traj::random_nd::<2>(15_000, 17);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let data: Vec<C64> = (0..coords.len())
            .map(|i| C64::new((i as f64 * 0.19).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let ramp: Vec<f64> = (0..coords.len())
            .map(|i| 0.5 + (i % 9) as f64 * 0.1)
            .collect();
        let opts = CgOptions {
            max_iterations: 5,
            tolerance: 0.0,
            lambda: 1e-3,
            ..Default::default()
        };
        for weights in [&[][..], &ramp[..]] {
            let weigh = |samples: &mut [C64]| {
                if !weights.is_empty() {
                    for (s, &w) in samples.iter_mut().zip(weights) {
                        *s = s.scale(w);
                    }
                }
            };
            let mut weighted = data.clone();
            weigh(&mut weighted);
            let rhs = plan
                .adjoint(&coords, &weighted, &SerialGridder)
                .unwrap()
                .image;
            let serial = cg_loop(
                |x| {
                    let mut samples = plan.forward(x, &coords)?.samples;
                    weigh(&mut samples);
                    Ok(plan.adjoint(&coords, &samples, &SerialGridder)?.image)
                },
                &rhs,
                &opts,
            )
            .unwrap();
            let planned =
                cg_reconstruct_with(&plan, &coords, &data, weights, &opts, NormalOpKind::Gridded)
                    .unwrap();
            let what = if weights.is_empty() {
                "unweighted"
            } else {
                "weighted"
            };
            assert_eq!(planned.residuals.len(), opts.max_iterations, "{what}");
            assert!(bits_eq(&planned.image, &serial.image), "{what}");
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&planned.residuals), bits(&serial.residuals), "{what}");
        }
    }

    // `toeplitz_path_matches_nufft_path` graduated into the
    // `tests/toeplitz.rs` property suite (radial/spiral/random
    // trajectories, D = 1 and 2, with and without density weights).

    #[test]
    fn non_finite_apply_returns_best_iterate() {
        // apply() yields NaNs: denom goes non-finite on the very first
        // iteration, so the best iterate is still the zero start.
        let rhs = vec![C64::from_re(1.0); 4];
        let out = cg_loop(
            |p| Ok(vec![C64::new(f64::NAN, 0.0); p.len()]),
            &rhs,
            &CgOptions::default(),
        )
        .unwrap();
        assert_eq!(out.diagnostic, CgDiagnostic::NonFinite);
        assert!(!out.diagnostic.is_clean());
        assert!(out.image.iter().all(|z| z.re == 0.0 && z.im == 0.0));
    }

    #[test]
    fn diverging_residual_is_contained() {
        // apply() returns the constant vector [eps, 1] regardless of input.
        // With rhs = [1, 0]: denom = eps, alpha = 1/eps, the new residual
        // ~1/eps dwarfs the start residual ⇒ relative residual ~1e8 > the
        // 1e4 divergence factor on iteration one.
        let eps = 1e-8;
        let rhs = vec![C64::from_re(1.0), C64::zeroed()];
        let out = cg_loop(
            |_| Ok(vec![C64::from_re(eps), C64::from_re(1.0)]),
            &rhs,
            &CgOptions::default(),
        )
        .unwrap();
        assert_eq!(out.diagnostic, CgDiagnostic::Diverged);
        // Best iterate is the zero start (rel = 1), not the blown-up x.
        assert!(out.image.iter().all(|z| z.re == 0.0 && z.im == 0.0));
        assert_eq!(out.residuals.len(), 1);
        assert!(out.residuals[0] > CG_DIVERGENCE_FACTOR);
    }

    #[test]
    fn exhausted_budget_before_first_iteration_is_a_hard_error() {
        let rhs = vec![C64::from_re(1.0); 4];
        let opts = CgOptions {
            budget: crate::budget::RunBudget::with_time_ms(0),
            ..Default::default()
        };
        let err = cg_loop(|p| Ok(p.to_vec()), &rhs, &opts).unwrap_err();
        assert!(matches!(err, Error::Budget(_)), "got {err:?}");
    }

    #[test]
    fn cancellation_mid_solve_returns_best_partial_iterate() {
        // Diagonal operator with six distinct eigenvalues: CG needs six
        // iterations for an exact solve, so cancelling after the second
        // application leaves a genuinely partial (but improving) iterate.
        let rhs: Vec<C64> = (0..6).map(|i| C64::from_re(1.0 + i as f64)).collect();
        let budget = crate::budget::RunBudget::unlimited();
        let handle = budget.clone();
        let mut applies = 0usize;
        let opts = CgOptions {
            max_iterations: 50,
            tolerance: 1e-300,
            lambda: 0.0,
            budget,
        };
        let out = cg_loop(
            move |p| {
                applies += 1;
                if applies == 2 {
                    handle.cancel();
                }
                Ok(p.iter()
                    .enumerate()
                    .map(|(i, z)| z.scale(1.0 + i as f64))
                    .collect())
            },
            &rhs,
            &opts,
        )
        .unwrap();
        assert_eq!(out.diagnostic, CgDiagnostic::BudgetExhausted);
        assert_eq!(out.residuals.len(), 2);
        // The best iterate improved on the zero start.
        assert!(out.image.iter().any(|z| z.re != 0.0 || z.im != 0.0));
        assert!(*out.residuals.last().unwrap() < 1.0);
    }

    #[test]
    fn converged_diagnostic_is_clean() {
        let rhs = vec![C64::from_re(2.0); 3];
        let out = cg_loop(|p| Ok(p.to_vec()), &rhs, &CgOptions::default()).unwrap();
        assert_eq!(out.diagnostic, CgDiagnostic::Converged);
        assert!(out.diagnostic.is_clean());
        let err = rel_l2(&out.image, &rhs);
        assert!(err < 1e-12);
    }
}
