//! Adjoint gridding engines.
//!
//! Gridding scatters each non-uniform sample's value, weighted by the
//! interpolation kernel, onto the `W^d` oversampled-grid points inside its
//! window (torus boundary conditions). This crate implements the full
//! lineage the paper discusses:
//!
//! | Engine | Paper analogue | Parallel model |
//! |---|---|---|
//! | [`SerialGridder`] | MIRT CPU baseline | input-driven, serial |
//! | [`NaiveOutputGridder`] | §II-C naive output-parallel | every point checks every sample |
//! | [`BinnedGridder`] | Impatient-style binning | presort + tile–bin pairs |
//! | [`SliceDiceGridder`] | the paper's contribution | stacked tiles, column ownership |
//!
//! All engines consume coordinates already mapped to oversampled-grid
//! units `u ∈ [0, G)` and quantized through the shared [`Decomposer`], and
//! all use the same [`KernelLut`]; consequently the deterministic engines
//! produce **bitwise identical** `f64` grids (verified by tests), because
//! every grid point accumulates the same weights in the same sample order.

pub mod binned;
pub mod naive;
pub mod serial;
pub mod slice_dice;

pub use binned::BinnedGridder;
pub use naive::NaiveOutputGridder;
pub use serial::{ExactGridder, LerpGridder, SerialGridder};
pub use slice_dice::{AtomicFloat, SliceDiceGridder, SliceDiceMode};

use crate::config::GridParams;
use crate::decomp::{Decomposer, DimDecomp};
use crate::lut::KernelLut;
use crate::stats::GridStats;
use crate::{Error, Result};
use jigsaw_num::{Complex, Float};

/// Maximum supported interpolation window width (per dimension), which
/// [`GridParams::validate`] enforces: windows are expanded into
/// fixed-size scratch arrays. Table I's hardware range is 1–8.
pub const MAX_W: usize = 16;

/// An adjoint gridding engine: scatters samples onto the oversampled grid.
pub trait Gridder<T: Float, const D: usize>: Sync {
    /// Human-readable engine name (used by the bench harnesses).
    fn name(&self) -> &'static str;

    /// Accumulate `values` at `coords` (oversampled-grid units, `[0, G)`
    /// per dim) onto `out`, a row-major `[G; D]` grid. `out` is *not*
    /// cleared first, so multi-shot accumulation works.
    ///
    /// Returns instrumentation counters.
    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> GridStats;
}

/// Validate a sample batch against a grid configuration: matching lengths,
/// finite coordinates and values, and a correctly sized output buffer.
pub fn validate_batch<T: Float, const D: usize>(
    p: &GridParams,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &[Complex<T>],
) -> Result<()> {
    if coords.len() != values.len() {
        return Err(Error::Data(format!(
            "coordinate count {} != value count {}",
            coords.len(),
            values.len()
        )));
    }
    if out.len() != p.grid.pow(D as u32) {
        return Err(Error::Data(format!(
            "output grid has {} points, expected {}^{} = {}",
            out.len(),
            p.grid,
            D,
            p.grid.pow(D as u32)
        )));
    }
    for (i, c) in coords.iter().enumerate() {
        if c.iter().any(|x| !x.is_finite()) {
            return Err(Error::Data(format!("non-finite coordinate at sample {i}")));
        }
    }
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            return Err(Error::Data(format!("non-finite value at sample {i}")));
        }
    }
    Ok(())
}

/// Per-dimension window of one sample: grid indices and kernel weights.
///
/// Per-sample scratch, never stored: the LUT engines fill it from the
/// sample's [`DimDecomp`] with [`expand_windows`]; the exact and lerp
/// baselines fill it from the continuous kernel.
#[derive(Clone, Copy, Debug)]
pub struct DimWindow {
    /// Grid index of window point `j` (already torus-wrapped).
    pub idx: [u32; MAX_W],
    /// Kernel weight of window point `j`.
    pub weight: [f64; MAX_W],
}

impl Default for DimWindow {
    fn default() -> Self {
        Self {
            idx: [0; MAX_W],
            weight: [0.0; MAX_W],
        }
    }
}

/// Expand a sample's decomposition into its per-dimension windows: the
/// `W` torus-wrapped grid indices and LUT weights of every dimension.
///
/// Every LUT scatter and gather — the serial, binned and Slice-and-Dice
/// engines, the planned batches, the forward interpolator — takes its
/// windows from here, so they all interpolate with the same indices and
/// bit-identical weights. Only the first `W` slots of each dimension are
/// written, so a hot loop reuses one buffer for every sample.
#[inline(always)]
pub fn expand_windows<const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    dds: &[DimDecomp; D],
    wins: &mut [DimWindow; D],
) {
    let w = dec.width() as usize;
    for (win, dd) in wins.iter_mut().zip(dds) {
        for j in 0..w {
            win.idx[j] = dec.window_point(dd, j as u32).0;
        }
        win.weight[..w].copy_from_slice(lut.window_weights(dd.phi2));
    }
}

/// Decompose one sample's mapped coordinate and expand its windows into
/// a fresh buffer.
pub fn sample_windows<const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coord: &[f64; D],
) -> ([DimWindow; D], [DimDecomp; D]) {
    let dds = dec.decompose_sample(coord);
    let mut wins = [DimWindow::default(); D];
    expand_windows(dec, lut, &dds, &mut wins);
    (wins, dds)
}

/// Visit one sample's `W^D` window points in row-major order, skipping
/// the rows of the slowest axis (planes in 3-D, points in 1-D) that
/// `row_slot` rejects. `f(index, weight)` gets the point's index in a
/// row-major buffer holding grid row `k` at row `row_slot(k)`, and the
/// product of its per-dimension weights, slowest axis first.
#[inline(always)]
pub(crate) fn for_each_point<const D: usize>(
    g: usize,
    w: usize,
    wins: &[DimWindow; D],
    row_slot: impl Fn(u32) -> Option<usize>,
    mut f: impl FnMut(usize, f64),
) {
    match D {
        1 => {
            for j in 0..w {
                if let Some(s) = row_slot(wins[0].idx[j]) {
                    f(s, wins[0].weight[j]);
                }
            }
        }
        2 => {
            for jy in 0..w {
                let Some(s) = row_slot(wins[0].idx[jy]) else {
                    continue;
                };
                let row = s * g;
                let wy = wins[0].weight[jy];
                for jx in 0..w {
                    f(row + wins[1].idx[jx] as usize, wy * wins[1].weight[jx]);
                }
            }
        }
        3 => {
            for jz in 0..w {
                let Some(s) = row_slot(wins[0].idx[jz]) else {
                    continue;
                };
                let plane = s * g * g;
                let wz = wins[0].weight[jz];
                for jy in 0..w {
                    let row = plane + wins[1].idx[jy] as usize * g;
                    let wyz = wz * wins[1].weight[jy];
                    for jx in 0..w {
                        f(row + wins[2].idx[jx] as usize, wyz * wins[2].weight[jx]);
                    }
                }
            }
        }
        _ => {
            // Generic odometer over the W^D window.
            let mut j = [0usize; D];
            loop {
                if let Some(s) = row_slot(wins[0].idx[j[0]]) {
                    let mut idx = s;
                    let mut wt = wins[0].weight[j[0]];
                    for d in 1..D {
                        idx = idx * g + wins[d].idx[j[d]] as usize;
                        wt *= wins[d].weight[j[d]];
                    }
                    f(idx, wt);
                }
                let mut d = D;
                loop {
                    if d == 0 {
                        return;
                    }
                    d -= 1;
                    j[d] += 1;
                    if j[d] < w {
                        break;
                    }
                    j[d] = 0;
                }
            }
        }
    }
}

/// Scatter one sample into a row-major grid given its per-dim windows.
#[inline]
pub fn scatter_rowmajor<T: Float, const D: usize>(
    g: usize,
    w: usize,
    wins: &[DimWindow; D],
    value: Complex<T>,
    out: &mut [Complex<T>],
) {
    for_each_point(
        g,
        w,
        wins,
        |k| Some(k as usize),
        |i, wt| out[i] += value.scale(T::from_f64(wt)),
    );
}

/// Number of worker threads to use for the parallel engines: explicit
/// request, else `available_parallelism`.
pub fn worker_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::kernel::KernelKind;

    /// Standard small test configuration: G = 64, W = 6, L = 32, T = 8.
    pub fn small_params() -> GridParams {
        GridParams {
            grid: 64,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: KernelKind::Auto.resolve(6, 2.0),
        }
    }

    /// Deterministic pseudo-random sample batch covering interior, edge
    /// (wrap), and exactly-on-grid coordinates.
    pub fn sample_batch<const D: usize>(
        m: usize,
        g: f64,
        seed: u64,
    ) -> (Vec<[f64; D]>, Vec<jigsaw_num::C64>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64
        };
        let mut coords = Vec::with_capacity(m);
        let mut values = Vec::with_capacity(m);
        for i in 0..m {
            let mut c = [0.0; D];
            for x in c.iter_mut() {
                *x = match i % 7 {
                    0 => next() * 0.5,         // near the wrap edge
                    1 => g - next() * 0.5,     // near the other edge
                    2 => (next() * g).floor(), // exactly on a grid point
                    _ => next() * g,
                };
            }
            coords.push(c);
            values.push(jigsaw_num::C64::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0));
        }
        (coords, values)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use jigsaw_num::C64;

    #[test]
    fn validate_batch_catches_mismatch() {
        let p = small_params();
        let coords = vec![[1.0, 2.0]];
        let values: Vec<C64> = vec![];
        let out = vec![C64::zeroed(); 64 * 64];
        assert!(validate_batch(&p, &coords, &values, &out).is_err());
    }

    #[test]
    fn validate_batch_catches_nonfinite() {
        let p = small_params();
        let out = vec![C64::zeroed(); 64 * 64];
        let bad_coord = vec![[f64::NAN, 1.0]];
        let v = vec![C64::one()];
        assert!(validate_batch(&p, &bad_coord, &v, &out).is_err());
        let good_coord = vec![[1.0, 1.0]];
        let bad_v = vec![C64::new(f64::INFINITY, 0.0)];
        assert!(validate_batch(&p, &good_coord, &bad_v, &out).is_err());
        assert!(validate_batch(&p, &good_coord, &v, &out).is_ok());
    }

    #[test]
    fn validate_batch_catches_wrong_grid_size() {
        let p = small_params();
        let out = vec![C64::zeroed(); 64]; // should be 64²
        assert!(validate_batch::<f64, 2>(&p, &[], &[], &out).is_err());
    }

    #[test]
    fn scatter_mass_conservation_2d() {
        // Total scattered mass = value × (Σ weights)².
        let p = small_params();
        let dec = crate::decomp::Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        let coord = [17.3, 42.8];
        let (wins, _) = sample_windows(&dec, &lut, &coord);
        let mut out = vec![C64::zeroed(); 64 * 64];
        scatter_rowmajor(64, 6, &wins, C64::new(2.0, -1.0), &mut out);
        let total: C64 = out.iter().copied().sum();
        let wsum: f64 = (0..6).map(|j| wins[0].weight[j]).sum();
        let wsum2: f64 = (0..6).map(|j| wins[1].weight[j]).sum();
        let expect = C64::new(2.0, -1.0).scale(wsum * wsum2);
        assert!((total - expect).abs() < 1e-12);
    }

    use crate::lut::KernelLut;

    #[test]
    fn scatter_generic_matches_specialized_2d() {
        // The D = 2 fast path must agree with the generic odometer: compare
        // by running the odometer via a D = 2 call through the generic arm
        // — emulate by computing expected values manually.
        let p = small_params();
        let dec = crate::decomp::Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        let coord = [5.5, 60.9]; // wraps in x
        let (wins, _) = sample_windows(&dec, &lut, &coord);
        let mut fast = vec![C64::zeroed(); 64 * 64];
        scatter_rowmajor(64, 6, &wins, C64::one(), &mut fast);
        let mut slow = vec![C64::zeroed(); 64 * 64];
        for jy in 0..6 {
            for jx in 0..6 {
                let idx = wins[0].idx[jy] as usize * 64 + wins[1].idx[jx] as usize;
                slow[idx] += C64::one().scale(wins[0].weight[jy] * wins[1].weight[jx]);
            }
        }
        assert_eq!(
            fast.iter().map(|z| z.re.to_bits()).collect::<Vec<_>>(),
            slow.iter().map(|z| z.re.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn worker_threads_respects_request() {
        assert_eq!(worker_threads(Some(3)), 3);
        assert!(worker_threads(None) >= 1);
        assert_eq!(worker_threads(Some(0)), 1);
    }
}
