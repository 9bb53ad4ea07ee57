//! Serial input-driven gridding — the MIRT-style CPU baseline.
//!
//! "The simplest gridding implementation processes the randomly-ordered
//! non-uniform samples serially. Any uniform point lying within W/2
//! distance of the sample's coordinates is accumulated with a
//! distance-based contribution of the sample's magnitude" (§II-C).
//!
//! This engine is both the performance baseline (the denominator of every
//! speedup in Figs. 6–8) and the *quality* reference: run at `f64` it
//! defines the grid every other engine must reproduce.

use super::{expand_windows, scatter_rowmajor, validate_batch, DimWindow, Gridder};
use crate::config::GridParams;
use crate::decomp::Decomposer;
use crate::lut::KernelLut;
use crate::stats::GridStats;
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use std::time::Instant;

/// The serial input-driven gridder.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialGridder;

impl<T: Float, const D: usize> Gridder<T, D> for SerialGridder {
    fn name(&self) -> &'static str {
        "serial (MIRT-style baseline)"
    }

    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> GridStats {
        if let Err(e) = validate_batch(p, coords, values, out) {
            panic!("invalid sample batch: {e}");
        }
        let _span = telemetry::span!("gridding.serial", { dim: D, m: coords.len() });
        let dec = Decomposer::new(p);
        let w = p.width;
        let start = Instant::now();
        let mut wins = [DimWindow::default(); D];
        for (c, &v) in coords.iter().zip(values) {
            expand_windows(&dec, lut, &dec.decompose_sample(c), &mut wins);
            scatter_rowmajor(p.grid, w, &wins, v, out);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = GridStats {
            samples: coords.len(),
            samples_processed: coords.len(),
            boundary_checks: 0, // input-driven: windows are computed, not searched
            kernel_accumulations: (coords.len() * w.pow(D as u32)) as u64,
            presort_seconds: 0.0,
            gridding_seconds: elapsed,
            fft_seconds: 0.0,
            apod_seconds: 0.0,
        };
        stats.mirror("serial");
        stats
    }
}

/// Serial gridder that evaluates the kernel *exactly* at the true
/// (unquantized) offsets, bypassing the LUT entirely.
///
/// LUT gridding rounds coordinates to the table granularity `1/L`, which
/// shifts each sample by up to `1/(2L)` of a grid cell — a phase error of
/// up to `π/(2σL)` at the image edge. `ExactGridder` has no such error,
/// making it the reference for separating kernel-approximation error from
/// table-quantization error (the `ablation_lut` experiment and the L-sweep
/// behind Fig. 9).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactGridder;

impl<T: Float, const D: usize> Gridder<T, D> for ExactGridder {
    fn name(&self) -> &'static str {
        "serial (exact weights, no LUT)"
    }

    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> GridStats {
        let _ = lut; // exact evaluation ignores the table
        if let Err(e) = validate_batch(p, coords, values, out) {
            panic!("invalid sample batch: {e}");
        }
        let _span = telemetry::span!("gridding.exact", { dim: D, m: coords.len() });
        let w = p.width;
        let g = p.grid as f64;
        let kernel = &p.kernel;
        let start = Instant::now();
        for (c, &v) in coords.iter().zip(values) {
            let mut wins = [DimWindow::default(); D];
            for d in 0..D {
                let u = c[d].rem_euclid(g);
                let base = (u + w as f64 / 2.0).floor();
                for j in 0..w {
                    let k = base - j as f64;
                    wins[d].idx[j] = k.rem_euclid(g) as u32;
                    wins[d].weight[j] = kernel.eval(u - k, w);
                }
            }
            scatter_rowmajor(p.grid, w, &wins, v, out);
        }
        let stats = GridStats {
            samples: coords.len(),
            samples_processed: coords.len(),
            boundary_checks: 0,
            kernel_accumulations: (coords.len() * w.pow(D as u32)) as u64,
            presort_seconds: 0.0,
            gridding_seconds: start.elapsed().as_secs_f64(),
            fft_seconds: 0.0,
            apod_seconds: 0.0,
        };
        stats.mirror("exact");
        stats
    }
}

/// Serial gridder with *linearly interpolated* LUT weights and
/// unquantized window placement — the software-library operating point
/// (MIRT/NFFT table mode). Same `O(1/L²)` weight error as
/// [`KernelLut::eval_offset_lerp`], no coordinate-quantization floor,
/// still far cheaper than on-the-fly kernel evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LerpGridder;

impl<T: Float, const D: usize> Gridder<T, D> for LerpGridder {
    fn name(&self) -> &'static str {
        "serial (lerp LUT weights)"
    }

    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> GridStats {
        if let Err(e) = validate_batch(p, coords, values, out) {
            panic!("invalid sample batch: {e}");
        }
        let _span = telemetry::span!("gridding.lerp", { dim: D, m: coords.len() });
        let w = p.width;
        let g = p.grid as f64;
        let start = Instant::now();
        for (c, &v) in coords.iter().zip(values) {
            let mut wins = [DimWindow::default(); D];
            for d in 0..D {
                let u = c[d].rem_euclid(g);
                let base = (u + w as f64 / 2.0).floor();
                for j in 0..w {
                    let k = base - j as f64;
                    wins[d].idx[j] = k.rem_euclid(g) as u32;
                    wins[d].weight[j] = lut.eval_offset_lerp(u - k);
                }
            }
            scatter_rowmajor(p.grid, w, &wins, v, out);
        }
        let stats = GridStats {
            samples: coords.len(),
            samples_processed: coords.len(),
            boundary_checks: 0,
            kernel_accumulations: (coords.len() * w.pow(D as u32)) as u64,
            presort_seconds: 0.0,
            gridding_seconds: start.elapsed().as_secs_f64(),
            fft_seconds: 0.0,
            apod_seconds: 0.0,
        };
        stats.mirror("lerp");
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::testutil::*;
    use jigsaw_num::C64;

    #[test]
    fn lerp_gridder_beats_nearest_lut() {
        // Versus the exact-weight grid, lerp should be much closer than
        // the quantized-coordinate nearest-LUT engine.
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(150, 64.0, 23);
        let n = 64 * 64;
        let mut exact = vec![C64::zeroed(); n];
        ExactGridder.grid(&p, &lut, &coords, &values, &mut exact);
        let mut nearest = vec![C64::zeroed(); n];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut nearest);
        let mut lerp = vec![C64::zeroed(); n];
        LerpGridder.grid(&p, &lut, &coords, &values, &mut lerp);
        let e_nearest = crate::metrics::rel_l2(&nearest, &exact);
        let e_lerp = crate::metrics::rel_l2(&lerp, &exact);
        assert!(
            e_lerp < e_nearest / 20.0,
            "lerp {e_lerp} vs nearest {e_nearest}"
        );
    }

    #[test]
    fn exact_gridder_close_to_lut_gridder() {
        // With L = 32 the LUT grid differs from the exact grid only by
        // coordinate quantization (≤ 1/64 cell shifts).
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(100, 64.0, 17);
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        ExactGridder.grid(&p, &lut, &coords, &values, &mut b);
        let err = crate::metrics::rel_l2(&a, &b);
        assert!(err > 0.0, "LUT grid should differ slightly");
        assert!(err < 0.05, "but only slightly: {err}");
    }

    #[test]
    fn exact_gridder_matches_lut_on_quantized_coords() {
        // If coordinates are already multiples of 1/L, quantization is a
        // no-op and only LUT *weight* rounding remains (exact by
        // construction: LUT entries are exact kernel evaluations).
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let coords: Vec<[f64; 2]> = (0..50)
            .map(|i| {
                let q = |v: usize| (v % (64 * 32)) as f64 / 32.0;
                [q(i * 97 + 3), q(i * 53 + 11)]
            })
            .collect();
        let values: Vec<C64> = (0..50).map(|i| C64::new(i as f64, 1.0)).collect();
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        ExactGridder.grid(&p, &lut, &coords, &values, &mut b);
        let err = crate::metrics::max_abs_err(&a, &b);
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(err < 1e-11 * scale.max(1.0), "err {err}");
    }

    #[test]
    fn impulse_at_grid_point_reproduces_kernel() {
        // A unit sample exactly on grid point (20, 30) scatters the kernel
        // cross-section: the weight at offset j − W/2 in each dim.
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats = SerialGridder.grid(&p, &lut, &[[20.0, 30.0]], &[C64::one()], &mut out);
        assert_eq!(stats.kernel_accumulations, 36);
        // Center point (20,30): base = 23, window j = 0..6 covers 23..18;
        // point 20 is j = 3 with offset (3 + 0) − 3 = 0 → peak weight 1².
        assert!((out[20 * 64 + 30].re - 1.0).abs() < 1e-12);
        // Symmetric neighbors have equal weights.
        assert!((out[19 * 64 + 30].re - out[21 * 64 + 30].re).abs() < 1e-12);
        assert!((out[20 * 64 + 29].re - out[20 * 64 + 31].re).abs() < 1e-12);
    }

    #[test]
    fn edge_sample_wraps_torus() {
        // A sample at (0.2, 0.2) must deposit mass on both sides of the
        // grid edge (Fig. 2: samples a, c, f wrap).
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let mut out = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &[[0.2, 0.2]], &[C64::one()], &mut out);
        let near: f64 = (0..4)
            .flat_map(|r| (0..4).map(move |c| (r, c)))
            .map(|(r, c)| out[r * 64 + c].re)
            .sum();
        let far: f64 = (61..64)
            .flat_map(|r| (61..64).map(move |c| (r, c)))
            .map(|(r, c)| out[r * 64 + c].re)
            .sum();
        assert!(near > 0.0, "mass near origin corner");
        assert!(far > 0.0, "wrapped mass in the opposite corner");
    }

    #[test]
    fn accumulation_is_additive() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(50, 64.0, 7);
        let mut once = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut once);
        // Same batch gridded twice into one buffer = 2× the single grid.
        let mut twice = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut twice);
        SerialGridder.grid(&p, &lut, &coords, &values, &mut twice);
        for (a, b) in once.iter().zip(&twice) {
            assert!((b.re - 2.0 * a.re).abs() < 1e-12);
            assert!((b.im - 2.0 * a.im).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_in_sample_values() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(30, 64.0, 3);
        let scaled: Vec<C64> = values.iter().map(|v| v.scale(2.5)).collect();
        let mut g1 = vec![C64::zeroed(); 64 * 64];
        let mut g2 = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut g1);
        SerialGridder.grid(&p, &lut, &coords, &scaled, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b.re - 2.5 * a.re).abs() < 1e-10);
        }
    }

    #[test]
    fn three_dimensional_window() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let mut out = vec![C64::zeroed(); 64 * 64 * 64];
        let stats = SerialGridder.grid(&p, &lut, &[[32.0, 32.0, 32.0]], &[C64::one()], &mut out);
        assert_eq!(stats.kernel_accumulations, 216); // 6³
        assert!((out[32 * 64 * 64 + 32 * 64 + 32].re - 1.0).abs() < 1e-12);
        let total: f64 = out.iter().map(|z| z.re).sum();
        let wsum: f64 = (0..6)
            .map(|j| {
                let dec = crate::decomp::Decomposer::new(&p);
                let dd = dec.decompose(dec.quantize(32.0));
                lut.lookup(dec.window_point(&dd, j).1)
            })
            .sum();
        assert!((total - wsum.powi(3)).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "invalid sample batch")]
    fn rejects_nan_coordinate() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let mut out = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &[[f64::NAN, 0.0]], &[C64::one()], &mut out);
    }
}
