//! Sampling-density compensation.
//!
//! The adjoint NuFFT of non-uniformly sampled data weights each k-space
//! region by how often it was sampled; for interpretable direct
//! reconstructions the samples must be pre-weighted by the inverse local
//! sampling density. The paper's reference list covers both approaches
//! implemented here:
//!
//! * [`ramp_radial`] — the analytic `|k|` ramp, exact for ideal radial
//!   (projection) sampling;
//! * [`pipe_menon`] — Pipe & Menon's fixed-point iteration
//!   `w ← w / (C w)`, where `C` is the gridding/regridding convolution
//!   (grid the weights, then interpolate back at the sample positions).
//!   Works for *any* trajectory; Johnson & Pipe \[12\] is the paper's
//!   citation for the kernel-design side of this scheme.

use crate::config::GridParams;
use crate::decomp::Decomposer;
use crate::gridding::{sample_windows, scatter_rowmajor, Gridder, SerialGridder};
use crate::interp;
use crate::lut::KernelLut;
use crate::Result;
use jigsaw_num::C64;

/// Analytic ramp (`|ν|`) density-compensation weights for radial
/// trajectories, normalized to mean 1. `floor` guards the DC sample
/// (where the true density diverges); it is expressed as a fraction of
/// the maximum radius (default-style value: `1/(2·samples_per_spoke)`).
pub fn ramp_radial<const D: usize>(coords: &[[f64; D]], floor: f64) -> Vec<f64> {
    let mut w: Vec<f64> = coords
        .iter()
        .map(|c| {
            let r: f64 = c.iter().map(|x| x * x).sum::<f64>().sqrt();
            r.max(floor)
        })
        .collect();
    let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
    if mean > 0.0 {
        for x in &mut w {
            *x /= mean;
        }
    }
    w
}

/// Pipe–Menon iterative density compensation.
///
/// `coords` are in oversampled-grid units (as consumed by the gridding
/// engines); `p`/`lut` define the convolution kernel. Returns weights
/// normalized to mean 1 after `iterations` fixed-point steps (3–15 is
/// typical; the iteration converges quickly because `C` is a local
/// smoothing operator).
pub fn pipe_menon<const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    iterations: usize,
) -> Result<Vec<f64>> {
    let m = coords.len();
    let mut w = vec![1.0f64; m];
    let npts = p.grid.pow(D as u32);
    let mut grid = vec![C64::zeroed(); npts];
    let mut back = vec![C64::zeroed(); m];
    for _ in 0..iterations {
        grid.fill(C64::zeroed());
        let values: Vec<C64> = w.iter().map(|&x| C64::new(x, 0.0)).collect();
        SerialGridder.grid(p, lut, coords, &values, &mut grid)?;
        interp::interpolate(p, lut, &grid, coords, &mut back)?;
        for (wi, b) in w.iter_mut().zip(&back) {
            let density = b.re;
            if density > 1e-12 {
                *wi /= density;
            }
        }
    }
    let mean = w.iter().sum::<f64>() / m.max(1) as f64;
    if mean > 0.0 {
        for x in &mut w {
            *x /= mean;
        }
    }
    Ok(w)
}

/// Residual flatness of a weight set: after convolving the weighted
/// sampling density through the kernel, how far from uniform is the
/// density seen at the sample positions? (Max relative deviation from
/// the mean; 0 = perfectly compensated.)
pub fn density_flatness<const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    weights: &[f64],
) -> Result<f64> {
    let npts = p.grid.pow(D as u32);
    let mut grid = vec![C64::zeroed(); npts];
    let values: Vec<C64> = weights.iter().map(|&x| C64::new(x, 0.0)).collect();
    let dec = Decomposer::new(p);
    for (c, &v) in coords.iter().zip(&values) {
        let (wins, _) = sample_windows(&dec, lut, c);
        scatter_rowmajor(p.grid, p.width, &wins, v, &mut grid);
    }
    let mut back = vec![C64::zeroed(); coords.len()];
    interp::interpolate(p, lut, &grid, coords, &mut back)?;
    let densities: Vec<f64> = back.iter().map(|z| z.re).collect();
    let mean = densities.iter().sum::<f64>() / densities.len().max(1) as f64;
    Ok(densities
        .iter()
        .map(|d| (d - mean).abs() / mean.max(1e-12))
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::traj;

    fn params(g: usize) -> (GridParams, KernelLut) {
        let p = GridParams {
            grid: g,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: KernelKind::Auto.resolve(6, 2.0),
        };
        let lut = KernelLut::from_params(&p);
        (p, lut)
    }

    fn map_coords(coords: &[[f64; 2]], g: usize) -> Vec<[f64; 2]> {
        coords
            .iter()
            .map(|c| {
                [
                    c[0].rem_euclid(1.0) * g as f64,
                    c[1].rem_euclid(1.0) * g as f64,
                ]
            })
            .collect()
    }

    #[test]
    fn ramp_weights_grow_radially_and_mean_one() {
        let coords = traj::radial_2d(16, 32, false);
        let w = ramp_radial(&coords, 1e-3);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        // Edge-of-spoke samples outweigh near-center ones.
        for spoke in 0..16 {
            let base = spoke * 32;
            let center = w[base + 16]; // r ≈ 0
            let edge = w[base]; // r ≈ 0.5
            assert!(edge > 3.0 * center, "spoke {spoke}: {edge} vs {center}");
        }
    }

    #[test]
    fn pipe_menon_flattens_radial_density() {
        let g = 64;
        let (p, lut) = params(g);
        let mut coords = traj::radial_2d(40, 64, true);
        traj::shuffle(&mut coords, 3);
        let mapped = map_coords(&coords, g);
        let uniform = vec![1.0; mapped.len()];
        let before = density_flatness(&p, &lut, &mapped, &uniform).unwrap();
        let w = pipe_menon(&p, &lut, &mapped, 10).unwrap();
        let after = density_flatness(&p, &lut, &mapped, &w).unwrap();
        assert!(
            after < before / 3.0,
            "Pipe-Menon should flatten density: {before} → {after}"
        );
    }

    #[test]
    fn pipe_menon_weights_correlate_with_ramp_on_radial() {
        let g = 64;
        let (p, lut) = params(g);
        let coords = traj::radial_2d(48, 64, true);
        let mapped = map_coords(&coords, g);
        let pm = pipe_menon(&p, &lut, &mapped, 10).unwrap();
        let ramp = ramp_radial(&coords, 1.0 / 128.0);
        // Pearson correlation between the two weight sets.
        let n = pm.len() as f64;
        let (mx, my) = (pm.iter().sum::<f64>() / n, ramp.iter().sum::<f64>() / n);
        let mut num = 0.0;
        let mut dx = 0.0;
        let mut dy = 0.0;
        for (a, b) in pm.iter().zip(&ramp) {
            num += (a - mx) * (b - my);
            dx += (a - mx).powi(2);
            dy += (b - my).powi(2);
        }
        let corr = num / (dx * dy).sqrt();
        assert!(corr > 0.6, "PM vs ramp correlation {corr}");
    }

    #[test]
    fn near_uniform_sampling_needs_no_compensation() {
        let g = 32;
        let (p, lut) = params(g);
        let coords = traj::perturbed_cartesian_2d(32, 0.2, 5);
        let mapped = map_coords(&coords, g);
        let w = pipe_menon(&p, &lut, &mapped, 8).unwrap();
        // Weights should be nearly constant (dense uniform sampling).
        let (lo, hi) = w
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        assert!(hi / lo < 2.0, "uniform sampling weights spread {lo}..{hi}");
    }
}
