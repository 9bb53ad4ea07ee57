//! Precomputed interpolation-weight look-up table.
//!
//! "By constraining the kernel granularity, offline precomputation and
//! storage of the discrete kernel weights in a look-up table (LUT) is
//! possible […] reducing the amount of online computation required for
//! each interpolation operation" (§II-B). The paper identifies LUT-based
//! weights (vs Impatient's on-the-fly evaluation) as one of the reasons
//! Slice-and-Dice wins on GPU — the `ablation_lut` bench quantifies it.
//!
//! The table stores `W·L/2 + 1` weights per dimension, exploiting window
//! symmetry; an unfolded index `t ∈ [0, W·L]` (offset `δ = t/L − W/2`)
//! folds to `min(t, WL − t)`.

use crate::config::GridParams;
use crate::decomp::lut_index;
use crate::kernel::KernelKind;
use std::sync::Arc;

/// A folded, per-dimension kernel weight table in `f64`.
///
/// The hardware simulator quantizes these weights to its 16-bit format;
/// the software engines use them directly, so every engine interpolates
/// with bit-identical weights.
///
/// The weight storage is reference-counted, so `Clone` is `O(1)` — the
/// pooled execution paths clone the table into `'static` worker jobs on
/// every dispatch.
#[derive(Debug, Clone)]
pub struct KernelLut {
    w: usize,
    l: usize,
    weights: Arc<[f64]>,
    /// Row `φ₂ ∈ [0, 2L)` holds, for window point `j`, the weight at
    /// unfolded index `lut_index(L, j, φ₂)`: a window with half-LUT
    /// offset `φ₂` takes its `W` weights from one contiguous row.
    phases: Arc<[f64]>,
}

impl KernelLut {
    /// Build the table for a (resolved) kernel, window width `w`, and
    /// table oversampling factor `l`.
    pub fn build(kernel: &KernelKind, w: usize, l: usize) -> Self {
        let wl = w * l;
        let weights: Arc<[f64]> = (0..=wl / 2)
            .map(|s| kernel.eval(s as f64 / l as f64 - w as f64 / 2.0, w))
            .collect();
        let phases = (0..2 * l as u32)
            .flat_map(|phi2| (0..w as u32).map(move |j| lut_index(l as u32, j, phi2) as usize))
            .map(|t| weights[t.min(wl - t)])
            .collect();
        Self {
            w,
            l,
            weights,
            phases,
        }
    }

    /// The `W` weights of a window with half-LUT offset `phi2`, in window
    /// point order (see [`crate::decomp::Decomposer::lut_index`]).
    #[inline]
    pub fn window_weights(&self, phi2: u32) -> &[f64] {
        &self.phases[phi2 as usize * self.w..][..self.w]
    }

    /// Build from grid parameters.
    pub fn from_params(p: &GridParams) -> Self {
        Self::build(&p.kernel, p.width, p.table_oversampling)
    }

    /// Number of stored weights (`WL/2 + 1`).
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table is empty (never true for valid configs).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Window width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Table oversampling factor.
    pub fn table_oversampling(&self) -> usize {
        self.l
    }

    /// The raw folded table (index `s` holds the weight at offset
    /// `|δ| = W/2 − s/L`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Look up by *unfolded* index `t ∈ [0, WL]`.
    #[inline(always)]
    pub fn lookup(&self, t: u32) -> f64 {
        let wl = (self.w * self.l) as u32;
        debug_assert!(t <= wl, "unfolded index {t} out of range (WL = {wl})");
        let folded = t.min(wl - t) as usize;
        self.weights[folded]
    }

    /// Nearest-entry lookup for a real offset `δ ∈ [−W/2, W/2]` — used by
    /// code that hasn't pre-quantized coordinates (e.g. the forward
    /// interpolator's reference path).
    #[inline]
    pub fn eval_offset(&self, delta: f64) -> f64 {
        let t = ((delta + self.w as f64 / 2.0) * self.l as f64).round();
        let wl = (self.w * self.l) as f64;
        if !(0.0..=wl).contains(&t) {
            return 0.0;
        }
        self.lookup(t as u32)
    }

    /// Linearly-interpolated lookup for a real offset `δ ∈ [−W/2, W/2]` —
    /// the table mode software NuFFT libraries (MIRT, NFFT) default to:
    /// interpolating between adjacent entries turns the `O(1/L)` nearest-
    /// entry error into `O(1/L²)`, removing the coordinate-quantization
    /// floor without growing the table. (The JIGSAW hardware uses nearest
    /// lookup; this mode exists for the software baselines and ablations.)
    #[inline]
    pub fn eval_offset_lerp(&self, delta: f64) -> f64 {
        let wl = (self.w * self.l) as f64;
        let t = (delta + self.w as f64 / 2.0) * self.l as f64;
        if !(0.0..=wl).contains(&t) {
            return 0.0;
        }
        let t0 = t.floor();
        let frac = t - t0;
        let a = self.lookup(t0 as u32);
        let b = self.lookup(((t0 as u32) + 1).min(wl as u32));
        a + frac * (b - a)
    }

    /// Maximum absolute quantization error of the table vs the continuous
    /// kernel, probed at `probes` points — used by accuracy ablations.
    pub fn quantization_error(&self, kernel: &KernelKind, probes: usize) -> f64 {
        let half = self.w as f64 / 2.0;
        (0..probes)
            .map(|i| {
                let d = -half + (i as f64 + 0.5) / probes as f64 * self.w as f64;
                (self.eval_offset(d) - kernel.eval(d, self.w)).abs()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KernelKind {
        KernelKind::Auto.resolve(6, 2.0)
    }

    #[test]
    fn table_size_matches_paper() {
        // W = 8, L = 64 → 256 weights + center (§IV Weight Lookup).
        let lut = KernelLut::build(&KernelKind::Auto.resolve(8, 2.0), 8, 64);
        assert_eq!(lut.len(), 257);
    }

    #[test]
    fn center_is_peak() {
        let lut = KernelLut::build(&kb(), 6, 32);
        let wl = 6 * 32;
        assert_eq!(lut.lookup(wl as u32 / 2), 1.0);
        for t in 0..=wl as u32 {
            assert!(lut.lookup(t) <= 1.0);
        }
    }

    #[test]
    fn window_rows_equal_folded_lookups() {
        for (w, l) in [(6, 32), (5, 1), (8, 4), (1, 2)] {
            let lut = KernelLut::build(&KernelKind::Auto.resolve(w, 2.0), w, l);
            for phi2 in 0..2 * l as u32 {
                let row = lut.window_weights(phi2);
                for (j, &wt) in row.iter().enumerate() {
                    let t = lut_index(l as u32, j as u32, phi2);
                    assert_eq!(wt.to_bits(), lut.lookup(t).to_bits(), "W={w} L={l}");
                }
            }
        }
    }

    #[test]
    fn folded_lookup_is_symmetric() {
        let lut = KernelLut::build(&kb(), 6, 32);
        let wl = 6 * 32;
        for t in 0..=wl as u32 {
            assert_eq!(lut.lookup(t), lut.lookup(wl as u32 - t));
        }
    }

    #[test]
    fn lookup_matches_kernel_eval() {
        let k = kb();
        let lut = KernelLut::build(&k, 6, 32);
        for t in 0..=(6 * 32) as u32 {
            let delta = t as f64 / 32.0 - 3.0;
            assert!((lut.lookup(t) - k.eval(delta, 6)).abs() < 1e-15);
        }
    }

    #[test]
    fn eval_offset_rounds_to_nearest() {
        let k = kb();
        let lut = KernelLut::build(&k, 6, 32);
        // δ = 0.51/32 above an entry rounds to the next entry.
        let d0 = -1.0;
        let exact = lut.eval_offset(d0);
        assert_eq!(exact, k.eval(-1.0, 6));
        assert_eq!(lut.eval_offset(d0 + 0.4 / 32.0), exact);
        assert_eq!(lut.eval_offset(4.0), 0.0);
        assert_eq!(lut.eval_offset(-3.4), 0.0);
    }

    #[test]
    fn lerp_lookup_converges_quadratically() {
        let k = kb();
        let probe = |l: usize| -> f64 {
            let lut = KernelLut::build(&k, 6, l);
            (0..4000)
                .map(|i| {
                    let d = -3.0 + (i as f64 + 0.5) / 4000.0 * 6.0;
                    (lut.eval_offset_lerp(d) - k.eval(d, 6)).abs()
                })
                .fold(0.0, f64::max)
        };
        let e16 = probe(16);
        let e64 = probe(64);
        // Quadratic convergence: 4× finer table → ~16× smaller error.
        assert!(e64 < e16 / 10.0, "e16={e16} e64={e64}");
        // And far better than nearest lookup at the same L.
        let lut16 = KernelLut::build(&k, 6, 16);
        let nearest16 = lut16.quantization_error(&k, 4000);
        assert!(e16 < nearest16 / 3.0, "lerp {e16} vs nearest {nearest16}");
    }

    #[test]
    fn lerp_lookup_exact_at_entries_and_zero_outside() {
        let k = kb();
        let lut = KernelLut::build(&k, 6, 32);
        for s in 0..=96u32 {
            let d = s as f64 / 32.0 - 3.0;
            assert!((lut.eval_offset_lerp(d) - k.eval(d, 6)).abs() < 1e-14);
        }
        assert_eq!(lut.eval_offset_lerp(3.5), 0.0);
        assert_eq!(lut.eval_offset_lerp(-4.0), 0.0);
    }

    #[test]
    fn quantization_error_shrinks_with_l() {
        let k = kb();
        let e8 = KernelLut::build(&k, 6, 8).quantization_error(&k, 4000);
        let e64 = KernelLut::build(&k, 6, 64).quantization_error(&k, 4000);
        let e512 = KernelLut::build(&k, 6, 512).quantization_error(&k, 4000);
        assert!(e64 < e8 / 4.0, "e8={e8} e64={e64}");
        assert!(e512 < e64 / 4.0, "e64={e64} e512={e512}");
    }

    #[test]
    fn from_params_consistent() {
        let p = GridParams {
            grid: 64,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: kb(),
        };
        let a = KernelLut::from_params(&p);
        let b = KernelLut::build(&kb(), 6, 32);
        assert_eq!(a.weights(), b.weights());
    }
}
