//! Forward interpolation ("re-gridding") — the forward NuFFT's third step.
//!
//! The adjoint's gridding *scatters* sample values onto the grid; the
//! forward transform *gathers*: each non-uniform output value is the
//! kernel-weighted sum of the `W^d` grid points in its window (Fig. 1:
//! forward = pre-apodization → FFT → regridding).
//!
//! Gathering is embarrassingly parallel across samples (pure reads of the
//! grid), which is why the paper focuses its hardware on the adjoint
//! direction. [`interpolate`] gathers serially through the same shared
//! decomposition as the gridders, so forward/adjoint stay numerically
//! consistent; [`crate::nufft::NufftPlan::forward`] splits the samples
//! into pool jobs ([`crate::engine::WorkerPool::map`]) that each run it
//! on one chunk. Each sample's gather is independent, so the split never
//! changes a bit.

use crate::config::GridParams;
use crate::decomp::Decomposer;
use crate::gridding::{expand_windows, DimWindow};
use crate::lut::KernelLut;
use crate::{Error, Result};
use jigsaw_num::{Complex, Float};

/// Gather one sample's value from the grid given its expanded per-dim
/// windows ([`crate::gridding::expand_windows`]): the kernel-weighted sum
/// of the `W^d` window points. The planned and unplanned forward paths
/// both gather through here, so they are bitwise identical.
#[inline]
pub fn gather_from_windows<T: Float, const D: usize>(
    grid: &[Complex<T>],
    g: usize,
    w: usize,
    wins: &[DimWindow; D],
) -> Complex<T> {
    match D {
        2 => {
            let mut acc = Complex::<T>::zeroed();
            for jy in 0..w {
                let row = wins[0].idx[jy] as usize * g;
                let wy = wins[0].weight[jy];
                let mut rowacc = Complex::<T>::zeroed();
                for jx in 0..w {
                    rowacc +=
                        grid[row + wins[1].idx[jx] as usize].scale(T::from_f64(wins[1].weight[jx]));
                }
                acc += rowacc.scale(T::from_f64(wy));
            }
            acc
        }
        3 => {
            let mut acc = Complex::<T>::zeroed();
            for jz in 0..w {
                let plane = wins[0].idx[jz] as usize * g * g;
                let wz = wins[0].weight[jz];
                for jy in 0..w {
                    let row = plane + wins[1].idx[jy] as usize * g;
                    let wyz = wz * wins[1].weight[jy];
                    for jx in 0..w {
                        acc += grid[row + wins[2].idx[jx] as usize]
                            .scale(T::from_f64(wyz * wins[2].weight[jx]));
                    }
                }
            }
            acc
        }
        _ => {
            let mut acc = Complex::<T>::zeroed();
            let mut j = [0usize; D];
            loop {
                let mut idx = 0usize;
                let mut wt = 1.0;
                for d in 0..D {
                    idx = idx * g + wins[d].idx[j[d]] as usize;
                    wt *= wins[d].weight[j[d]];
                }
                acc += grid[idx].scale(T::from_f64(wt));
                let mut d = D;
                let mut done = false;
                loop {
                    if d == 0 {
                        done = true;
                        break;
                    }
                    d -= 1;
                    j[d] += 1;
                    if j[d] < w {
                        break;
                    }
                    j[d] = 0;
                }
                if done {
                    return acc;
                }
            }
        }
    }
}

/// Interpolate the oversampled grid at non-uniform coordinates
/// (oversampled-grid units), serially on the calling thread. `out[i]`
/// receives the gathered value for `coords[i]` (overwritten, not
/// accumulated).
pub fn interpolate<T: Float, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    grid: &[Complex<T>],
    coords: &[[f64; D]],
    out: &mut [Complex<T>],
) -> Result<()> {
    if coords.len() != out.len() {
        return Err(Error::Data(format!(
            "coordinate count {} != output count {}",
            coords.len(),
            out.len()
        )));
    }
    if grid.len() != p.grid.pow(D as u32) {
        return Err(Error::Data("grid buffer size mismatch".into()));
    }
    for (i, c) in coords.iter().enumerate() {
        if c.iter().any(|x| !x.is_finite()) {
            return Err(Error::Data(format!("non-finite coordinate at sample {i}")));
        }
    }
    let dec = Decomposer::new(p);
    let mut wins = [DimWindow::default(); D];
    for (o, c) in out.iter_mut().zip(coords) {
        expand_windows(&dec, lut, &dec.decompose_sample(c), &mut wins);
        *o = gather_from_windows(grid, p.grid, p.width, &wins);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::testutil::*;
    use crate::gridding::{Gridder, SerialGridder};
    use jigsaw_num::C64;

    #[test]
    fn gather_from_impulse_grid_returns_kernel_weight() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let mut grid = vec![C64::zeroed(); 64 * 64];
        grid[20 * 64 + 30] = C64::one();
        let mut out = vec![C64::zeroed(); 1];
        interpolate(&p, &lut, &grid, &[[20.0, 30.0]], &mut out).unwrap();
        // Sample exactly on the impulse: weight = peak² = 1.
        assert!((out[0].re - 1.0).abs() < 1e-12);
        // Half a grid unit away in x: weight = φ(0.5)·φ(0).
        let k = p.kernel;
        interpolate(&p, &lut, &grid, &[[20.5, 30.0]], &mut out).unwrap();
        assert!((out[0].re - k.eval(0.5, 6)).abs() < 1e-9);
    }

    #[test]
    fn adjoint_identity_holds() {
        // ⟨grid(c), g⟩ == ⟨c, interp(g)⟩ — gridding and interpolation are
        // exact adjoints because they share weights and windows.
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(120, 64.0, 42);
        let (_, gvals) = sample_batch::<2>(64 * 64, 64.0, 43);
        let g: Vec<C64> = gvals;
        // A c = gridded samples.
        let mut ac = vec![C64::zeroed(); 64 * 64];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut ac)
            .unwrap();
        // Aᴴ g = interpolated grid.
        let mut ahg = vec![C64::zeroed(); coords.len()];
        interpolate(&p, &lut, &g, &coords, &mut ahg).unwrap();
        let lhs: C64 = ac.iter().zip(&g).map(|(a, b)| *a * b.conj()).sum();
        let rhs: C64 = values.iter().zip(&ahg).map(|(a, b)| *a * b.conj()).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn gather_3d_wraps() {
        let mut p = small_params();
        p.grid = 16;
        let lut = KernelLut::from_params(&p);
        let mut grid = vec![C64::zeroed(); 16 * 16 * 16];
        grid[0] = C64::one(); // impulse at the origin corner
        let mut out = vec![C64::zeroed(); 1];
        // Sample just across the wrap: at (15.6, 0.2, 15.9).
        interpolate(&p, &lut, &grid, &[[15.6, 0.2, 15.9]], &mut out).unwrap();
        assert!(out[0].re > 0.0, "wrapped gather must see the impulse");
    }

    #[test]
    fn rejects_bad_input() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let grid = vec![C64::zeroed(); 64 * 64];
        let mut out = vec![C64::zeroed(); 2];
        assert!(interpolate(&p, &lut, &grid, &[[0.0, 0.0]], &mut out).is_err());
        let mut out1 = vec![C64::zeroed(); 1];
        assert!(interpolate(&p, &lut, &grid, &[[f64::INFINITY, 0.0]], &mut out1).is_err());
        let small = vec![C64::zeroed(); 10];
        assert!(interpolate(&p, &lut, &small, &[[0.0, 0.0]], &mut out1).is_err());
    }
}
