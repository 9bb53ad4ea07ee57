//! Multi-coil (SENSE-style) acquisition and reconstruction.
//!
//! Clinical MRI acquires with arrays of receive coils, each modulating
//! the image by a smooth spatial sensitivity profile before the
//! non-Cartesian sampling the paper accelerates. The per-coil operator is
//! `A_c = F_Ω S_c` (sensitivity multiply, then forward NuFFT at the
//! trajectory Ω); reconstruction solves the joint least-squares problem
//! over all coils. Every coil costs one NuFFT per operator application —
//! with 8–32 coils and tens of CG iterations this is precisely the
//! "millions of NuFFTs" regime the paper's introduction motivates.
//!
//! Every coil shares one trajectory (§II-A), so the acquisition, the
//! SENSE adjoint and each CG-SENSE solve plan it once
//! ([`NufftPlan::plan_trajectory`]). Every forward NuFFT — each coil of
//! [`acquire`] and of the gridded normal operator — runs the planned
//! gather over it, and every adjoint — the SENSE adjoint, the CG
//! right-hand side and the gridded normal operator's per-coil adjoint —
//! runs the planned scatter. The Toeplitz normal operator keeps its coil
//! images in buffers that it hands to the convolution jobs by value and
//! takes back every iteration.

use crate::gridding::Gridder;
use crate::nufft::NufftPlan;
use crate::recon::{CgOptions, CgOutput, NormalOpKind};
use crate::toeplitz::ToeplitzOperator;
use crate::{Error, Result};
use jigsaw_num::C64;
use jigsaw_telemetry as telemetry;

/// A set of coil sensitivity maps over an `N^2` image (row-major, one
/// map per coil).
#[derive(Debug, Clone)]
pub struct CoilMaps {
    n: usize,
    maps: Vec<Vec<C64>>,
}

impl CoilMaps {
    /// Build from explicit maps.
    pub fn new(n: usize, maps: Vec<Vec<C64>>) -> Result<Self> {
        if maps.is_empty() {
            return Err(Error::Data("need at least one coil".into()));
        }
        for (c, m) in maps.iter().enumerate() {
            if m.len() != n * n {
                return Err(Error::Data(format!(
                    "coil {c} map has {} pixels, expected {}",
                    m.len(),
                    n * n
                )));
            }
        }
        Ok(Self { n, maps })
    }

    /// Synthetic birdcage-style array: `coils` smooth Gaussian-lobed
    /// profiles centered on a ring around the field of view, with a
    /// linear phase — the standard simulation stand-in for measured maps.
    pub fn synthetic(n: usize, coils: usize) -> Self {
        assert!(coils >= 1);
        let mut maps = Vec::with_capacity(coils);
        for c in 0..coils {
            let theta = c as f64 * 2.0 * core::f64::consts::PI / coils as f64;
            let cx = 0.85 * theta.cos();
            let cy = 0.85 * theta.sin();
            let mut m = Vec::with_capacity(n * n);
            for r in 0..n {
                let y = 2.0 * (r as f64 - (n / 2) as f64) / n as f64;
                for col in 0..n {
                    let x = 2.0 * (col as f64 - (n / 2) as f64) / n as f64;
                    let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                    let mag = (-d2 / 0.8).exp();
                    let phase = 0.7 * (x * theta.sin() - y * theta.cos());
                    m.push(C64::cis(phase).scale(mag));
                }
            }
            maps.push(m);
        }
        Self { n, maps }
    }

    /// Number of coils.
    pub fn coils(&self) -> usize {
        self.maps.len()
    }

    /// Image size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coil `c`'s map.
    pub fn map(&self, c: usize) -> &[C64] {
        &self.maps[c]
    }

    /// Sum-of-squares magnitude `Σ_c |S_c|²` per pixel (the SENSE normal
    /// operator's diagonal image-domain factor).
    pub fn sum_of_squares(&self) -> Vec<f64> {
        let mut sos = vec![0.0; self.n * self.n];
        for m in &self.maps {
            for (s, z) in sos.iter_mut().zip(m) {
                *s += z.norm_sqr();
            }
        }
        sos
    }
}

/// Simulate a multi-coil acquisition: `data[c] = F_Ω (S_c ⊙ image)`.
///
/// Plans the trajectory once and gathers every coil over it
/// ([`NufftPlan::forward_planned`]); each coil's samples are bitwise equal
/// to `plan.forward(&(S_c ⊙ image), coords)`.
pub fn acquire(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    image: &[C64],
    coords: &[[f64; 2]],
) -> Result<Vec<Vec<C64>>> {
    if image.len() != maps.n() * maps.n() {
        return Err(Error::Data("image size does not match coil maps".into()));
    }
    let traj = plan.plan_trajectory(coords)?;
    let mut out = Vec::with_capacity(maps.coils());
    for c in 0..maps.coils() {
        let weighted: Vec<C64> = image
            .iter()
            .zip(maps.map(c))
            .map(|(x, s)| *x * *s)
            .collect();
        out.push(plan.forward_planned(&traj, &weighted)?.samples);
    }
    Ok(out)
}

/// SENSE adjoint: `Σ_c conj(S_c) ⊙ Aᴴ data_c`, summed in coil order.
///
/// Every coil acquires the same trajectory (§II-A), so this plans it once
/// ([`NufftPlan::plan_trajectory`]) and runs [`adjoint_planned`]: each
/// coil scatters from the shared window decomposition, then FFTs and
/// de-apodizes in its own pool job.
///
/// `gridder` is not consulted. The planned scatter is bitwise identical
/// to every deterministic engine — serial, Slice-and-Dice and binned
/// (`tests/engines_agree.rs`) — and those are the only engines callers in
/// this repository pass. The parameter goes with the benchmark change
/// that stops passing it.
pub fn adjoint(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    data: &[Vec<C64>],
    coords: &[[f64; 2]],
    _gridder: &dyn Gridder<f64, 2>,
) -> Result<Vec<C64>> {
    let traj = plan.plan_trajectory(coords)?;
    adjoint_planned(plan, maps, data, &traj)
}

/// [`adjoint`] over a trajectory the caller already planned, so one plan
/// can serve several calls. Every coil streams through the persistent
/// worker pool ([`NufftPlan::adjoint_batch_planned`]); each coil's image
/// is bitwise equal to a cold `plan.adjoint(coords, &data[c],
/// &SerialGridder)`, and the coils are summed in coil order.
pub fn adjoint_planned(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    data: &[Vec<C64>],
    traj: &crate::nufft::PlannedTrajectory<2>,
) -> Result<Vec<C64>> {
    if data.len() != maps.coils() {
        return Err(Error::Data(format!(
            "{} coil data sets for {} coils",
            data.len(),
            maps.coils()
        )));
    }
    let n = maps.n();
    let mut acc = vec![C64::zeroed(); n * n];
    let batches: Vec<&[C64]> = data.iter().map(|d| d.as_slice()).collect();
    let outputs = plan.adjoint_batch_planned(traj, &batches)?;
    for (c, out) in outputs.iter().enumerate() {
        for ((a, x), s) in acc.iter_mut().zip(&out.image).zip(maps.map(c)) {
            *a += *x * s.conj();
        }
    }
    Ok(acc)
}

/// CG-SENSE: solve `(Σ_c S_cᴴ Aᴴ A S_c + λI) x = Σ_c S_cᴴ Aᴴ d_c` with
/// the gridded normal operator.
pub fn cg_sense(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    data: &[Vec<C64>],
    coords: &[[f64; 2]],
    opts: &CgOptions,
) -> Result<CgOutput> {
    solve(plan, maps, data, coords, opts, NormalOpKind::Gridded)
}

/// CG-SENSE with an explicit normal-operator selection — the same
/// [`NormalOpKind`] seam as [`crate::recon::cg_reconstruct_with`].
///
/// The trajectory is planned once per solve: the right-hand side is
/// [`adjoint_planned`] over it, and the gridded operator runs the planned
/// forward gather plus the planned one-coil adjoint per coil. With
/// [`NormalOpKind::Toeplitz`] one shared [`ToeplitzOperator`] is built up
/// front (a single gridding pass at `2N`) and each CG iteration convolves
/// every coil-weighted image on the pool — zero gridding in the hot loop.
/// A degradable build failure falls back to the gridded operator under
/// the engine's serial-fallback policy.
///
/// `gridder` is not consulted, as in [`adjoint`]; the parameter goes with
/// the benchmark change that stops passing it.
pub fn cg_sense_with(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    data: &[Vec<C64>],
    coords: &[[f64; 2]],
    _gridder: &dyn Gridder<f64, 2>,
    opts: &CgOptions,
    kind: NormalOpKind,
) -> Result<CgOutput> {
    solve(plan, maps, data, coords, opts, kind)
}

/// [`cg_sense_with`] without the unused engine argument.
fn solve(
    plan: &NufftPlan<f64, 2>,
    maps: &CoilMaps,
    data: &[Vec<C64>],
    coords: &[[f64; 2]],
    opts: &CgOptions,
    kind: NormalOpKind,
) -> Result<CgOutput> {
    let _span = telemetry::span!("recon.cg_sense", {
        coils: maps.coils(),
        m: coords.len(),
        max_iterations: opts.max_iterations
    });
    let traj = plan.plan_trajectory(coords)?;
    let rhs = adjoint_planned(plan, maps, data, &traj)?;
    let toeplitz = match kind {
        NormalOpKind::Gridded => None,
        NormalOpKind::Toeplitz => ToeplitzOperator::<2>::degradable(plan.config(), coords, &[])?,
    };
    let n = maps.n();
    if let Some(top) = toeplitz {
        // Coil `c`'s image `x·S_c`, written in place every iteration and
        // handed to the convolution jobs by value; they come back
        // convolved.
        let mut coils: Vec<Vec<C64>> = Vec::new();
        let normal = |x: &[C64]| -> Result<Vec<C64>> {
            // Cooperative budget check per application: the whole batch
            // is two FFTs per coil, far cheaper than the gridded path's
            // per-coil NuFFT pair, so one check up front suffices.
            if opts.budget.exhausted() {
                return Err(Error::Budget(
                    "run budget exhausted before the Toeplitz normal operator".into(),
                ));
            }
            coils.resize_with(maps.coils(), Vec::new);
            for (c, image) in coils.iter_mut().enumerate() {
                image.clear();
                image.extend(x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s));
            }
            coils = top.apply_batch_owned(std::mem::take(&mut coils))?;
            let mut acc = vec![C64::zeroed(); n * n];
            for (c, b) in coils.iter().enumerate() {
                for ((a, v), s) in acc.iter_mut().zip(b).zip(maps.map(c)) {
                    *a += *v * s.conj();
                }
            }
            Ok(acc)
        };
        return crate::recon::cg_loop(normal, &rhs, opts);
    }
    let normal = |x: &[C64]| -> Result<Vec<C64>> {
        let mut acc = vec![C64::zeroed(); n * n];
        for c in 0..maps.coils() {
            // Cooperative budget check between per-coil chunks: each coil
            // costs a forward + adjoint NuFFT, the unit of work worth
            // abandoning mid-iteration. `cg_loop` converts this into a
            // best-iterate return once an iterate exists.
            if opts.budget.exhausted() {
                return Err(Error::Budget(format!(
                    "run budget exhausted before coil {c} of the normal operator"
                )));
            }
            let weighted: Vec<C64> = x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s).collect();
            let fwd = plan.forward_planned(&traj, &weighted)?.samples;
            let back = plan.adjoint_planned(&traj, &fwd)?.image;
            for ((a, b), s) in acc.iter_mut().zip(&back).zip(maps.map(c)) {
                *a += *b * s.conj();
            }
        }
        Ok(acc)
    };
    // Shared hardened CG loop (the operator shape differs from
    // recon::NormalOp, so it enters as a closure).
    crate::recon::cg_loop(normal, &rhs, opts)
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
    fn synthetic_maps_are_smooth_and_cover_fov() {
        let maps = CoilMaps::synthetic(32, 8);
        assert_eq!(maps.coils(), 8);
        let sos = maps.sum_of_squares();
        // Coverage: every pixel sees some coil.
        let min = sos.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 1e-3, "coverage hole: min SoS {min}");
        // Smoothness: neighboring pixels differ by < 8 % of the peak.
        for r in 0..31 {
            for c in 0..31 {
                let a = maps.map(0)[r * 32 + c].abs();
                let b = maps.map(0)[r * 32 + c + 1].abs();
                assert!((a - b).abs() <= 0.08, "jump {} at ({r},{c})", (a - b).abs());
            }
        }
    }

    #[test]
    fn adjoint_consistency_multi_coil() {
        // ⟨A x, d⟩ = ⟨x, Aᴴ d⟩ summed over coils.
        let n = 16;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let maps = CoilMaps::synthetic(n, 4);
        let coords = traj::random_nd::<2>(120, 5);
        let x: Vec<C64> = (0..n * n)
            .map(|i| C64::new((i as f64 * 0.23).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let d: Vec<Vec<C64>> = (0..4)
            .map(|c| {
                (0..120)
                    .map(|i| C64::new((i + c) as f64 * 0.01, 0.5 - c as f64 * 0.1))
                    .collect()
            })
            .collect();
        let ax = acquire(&plan, &maps, &x, &coords).unwrap();
        // One planned trajectory for every coil gathers each coil exactly
        // as a one-shot forward of `S_c ⊙ x` does.
        for (c, got) in ax.iter().enumerate() {
            let weighted: Vec<C64> = x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s).collect();
            let want = plan.forward(&weighted, &coords).unwrap().samples;
            assert!(bits_eq(got, &want), "coil {c}");
        }
        let ahd = adjoint(&plan, &maps, &d, &coords, &SerialGridder).unwrap();
        let lhs: C64 = ax
            .iter()
            .zip(&d)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(u, v)| *u * v.conj()))
            .sum();
        let rhs: C64 = x.iter().zip(&ahd).map(|(u, v)| *u * v.conj()).sum();
        assert!(
            (lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn cg_sense_recovers_undersampled_phantom() {
        // 8 coils let CG-SENSE reconstruct from 2.5× undersampled radial
        // data far better than the single-coil adjoint.
        let n = 32;
        let phantom = Phantom2d::shepp_logan();
        let truth = phantom.rasterize_aa(n, 4);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let maps = CoilMaps::synthetic(n, 8);
        let mut coords = traj::radial_2d(20, 64, true); // 2.5× undersampled
        traj::shuffle(&mut coords, 8);
        let data = acquire(&plan, &maps, &truth, &coords).unwrap();
        let out = cg_sense(
            &plan,
            &maps,
            &data,
            &coords,
            &CgOptions {
                max_iterations: 25,
                tolerance: 1e-9,
                lambda: 1e-4,
                budget: Default::default(),
            },
        )
        .unwrap();
        // Normalize against SoS weighting before comparing.
        let sos = maps.sum_of_squares();
        let recon: Vec<C64> = out
            .image
            .iter()
            .zip(&sos)
            .map(|(z, &s)| if s > 1e-6 { *z } else { C64::zeroed() })
            .collect();
        let norm = |v: &[C64]| -> Vec<C64> {
            let p = v.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-30);
            v.iter().map(|z| z.unscale(p)).collect()
        };
        let err_cg = rel_l2(&norm(&recon), &norm(&truth));
        // Single-coil-style direct adjoint for comparison.
        let direct = adjoint(&plan, &maps, &data, &coords, &SerialGridder).unwrap();
        let err_direct = rel_l2(&norm(&direct), &norm(&truth));
        assert!(
            err_cg < 0.6 * err_direct,
            "CG-SENSE {err_cg} should beat direct adjoint {err_direct}"
        );
        assert!(err_cg < 0.25, "CG-SENSE error {err_cg}");
    }

    #[test]
    fn planned_sense_adjoint_is_bitwise_serial() {
        let n = 16;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let maps = CoilMaps::synthetic(n, 4);
        let coords = traj::random_nd::<2>(60, 9);
        let data: Vec<Vec<C64>> = (0..4)
            .map(|c| {
                (0..60)
                    .map(|i| C64::new((i * (c + 1)) as f64 * 0.013, 0.4 - c as f64 * 0.09))
                    .collect()
            })
            .collect();
        // Independent reference: a cold serial adjoint per coil, weighted
        // by conj(S_c) and summed in coil order.
        let mut reference = vec![C64::zeroed(); n * n];
        for (c, d) in data.iter().enumerate() {
            let image = plan.adjoint(&coords, d, &SerialGridder).unwrap().image;
            for ((a, x), s) in reference.iter_mut().zip(&image).zip(maps.map(c)) {
                *a += *x * s.conj();
            }
        }
        let traj = plan.plan_trajectory(&coords).unwrap();
        let planned = adjoint_planned(&plan, &maps, &data, &traj).unwrap();
        let unplanned = adjoint(&plan, &maps, &data, &coords, &SerialGridder).unwrap();
        for got in [&planned, &unplanned] {
            assert_eq!(got.len(), reference.len());
            for (x, y) in got.iter().zip(&reference) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
        // Coil-count mismatch rejected.
        assert!(adjoint_planned(&plan, &maps, &data[..2], &traj).is_err());
    }

    fn bits_eq(a: &[C64], b: &[C64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// A four-coil radial problem whose planned adjoints split into row
    /// bands wherever the global pool has two workers (20 · 800 · 6²
    /// accumulations, above 2^19), with the options of a fixed-length
    /// solve.
    struct PinProblem {
        plan: NufftPlan<f64, 2>,
        maps: CoilMaps,
        coords: Vec<[f64; 2]>,
        data: Vec<Vec<C64>>,
        opts: CgOptions,
    }

    fn pin_problem() -> PinProblem {
        let n = 24;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let maps = CoilMaps::synthetic(n, 4);
        let mut coords = traj::radial_2d(20, 800, true);
        traj::shuffle(&mut coords, 11);
        let truth = Phantom2d::shepp_logan().rasterize_aa(n, 2);
        let data = acquire(&plan, &maps, &truth, &coords).unwrap();
        let opts = CgOptions {
            max_iterations: 4,
            tolerance: 0.0,
            lambda: 1e-3,
            ..Default::default()
        };
        PinProblem {
            plan,
            maps,
            coords,
            data,
            opts,
        }
    }

    fn assert_same_solve(got: &CgOutput, want: &CgOutput, what: &str) {
        assert_eq!(got.residuals.len(), want.residuals.len(), "{what}");
        assert!(bits_eq(&got.image, &want.image), "{what}");
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.residuals), bits(&want.residuals), "{what}");
    }

    #[test]
    fn toeplitz_cg_sense_with_owned_coil_buffers_is_bitwise_the_borrowing_loop() {
        let PinProblem {
            plan,
            maps,
            coords,
            data,
            opts,
        } = pin_problem();
        let n = maps.n();
        let rhs = adjoint(&plan, &maps, &data, &coords, &SerialGridder).unwrap();
        let top = ToeplitzOperator::<2>::build(plan.config(), &coords, &[]).unwrap();
        // Fresh coil-weighted images every iteration, convolved through
        // the borrowing batch.
        let reference = crate::recon::cg_loop(
            |x| {
                let weighted: Vec<Vec<C64>> = (0..maps.coils())
                    .map(|c| x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s).collect())
                    .collect();
                let refs: Vec<&[C64]> = weighted.iter().map(|w| w.as_slice()).collect();
                let back = top.apply_batch(&refs)?;
                let mut acc = vec![C64::zeroed(); n * n];
                for (c, b) in back.iter().enumerate() {
                    for ((a, v), s) in acc.iter_mut().zip(b).zip(maps.map(c)) {
                        *a += *v * s.conj();
                    }
                }
                Ok(acc)
            },
            &rhs,
            &opts,
        )
        .unwrap();
        let got = cg_sense_with(
            &plan,
            &maps,
            &data,
            &coords,
            &SerialGridder,
            &opts,
            NormalOpKind::Toeplitz,
        )
        .unwrap();
        assert_same_solve(&got, &reference, "Toeplitz");
    }

    #[test]
    fn gridded_cg_sense_is_bitwise_the_serial_per_coil_composition() {
        let PinProblem {
            plan,
            maps,
            coords,
            data,
            opts,
        } = pin_problem();
        let n = maps.n();
        let rhs = adjoint(&plan, &maps, &data, &coords, &SerialGridder).unwrap();
        // The old gridded closure: a forward plus a cold serial adjoint
        // per coil.
        let reference = crate::recon::cg_loop(
            |x| {
                let mut acc = vec![C64::zeroed(); n * n];
                for c in 0..maps.coils() {
                    let weighted: Vec<C64> =
                        x.iter().zip(maps.map(c)).map(|(v, s)| *v * *s).collect();
                    let fwd = plan.forward(&weighted, &coords)?.samples;
                    let back = plan.adjoint(&coords, &fwd, &SerialGridder)?.image;
                    for ((a, b), s) in acc.iter_mut().zip(&back).zip(maps.map(c)) {
                        *a += *b * s.conj();
                    }
                }
                Ok(acc)
            },
            &rhs,
            &opts,
        )
        .unwrap();
        let got = cg_sense(&plan, &maps, &data, &coords, &opts).unwrap();
        assert_same_solve(&got, &reference, "gridded");
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let n = 16;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let maps = CoilMaps::synthetic(n, 2);
        let coords = traj::random_nd::<2>(10, 1);
        let bad_image = vec![C64::zeroed(); 10];
        assert!(acquire(&plan, &maps, &bad_image, &coords).is_err());
        let one_coil_data = vec![vec![C64::zeroed(); 10]];
        assert!(adjoint(&plan, &maps, &one_coil_data, &coords, &SerialGridder).is_err());
        assert!(CoilMaps::new(4, vec![]).is_err());
        assert!(CoilMaps::new(4, vec![vec![C64::zeroed(); 5]]).is_err());
    }
}
