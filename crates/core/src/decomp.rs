//! The Slice-and-Dice coordinate decomposition (§III, Fig. 4).
//!
//! This module is the software twin of the JIGSAW *select* unit. All
//! engines — serial, binned, Slice-and-Dice, and the hardware simulator —
//! derive their interpolation windows from the same integer decomposition,
//! which both guarantees they produce identical grids and mirrors how the
//! hardware computes everything with truncations and small adders:
//!
//! 1. Coordinates are quantized to the table granularity `1/L`
//!    ("the supported non-uniform coordinate granularity is defined by the
//!    table oversampling factor L", §II-B).
//! 2. The window *base* is `b = ⌊u + W/2⌋`; the window covers the `W`
//!    grid points `k_j = (b − j) mod G`, `j = 0..W`, and the LUT offset of
//!    point `j` is `(j + φ)·L` where `φ = frac(u + W/2)`.
//! 3. Slice-and-Dice splits `b` by the virtual tile size: *tile
//!    coordinate* `q = b div T` (truncate low bits) and *relative
//!    coordinate* `r = b mod T`. A pipeline/thread with index `p` is
//!    affected iff the forward distance `d = (r − p) mod T` is `< W`; the
//!    affected grid point is in tile `q` if `p ≤ r` and tile `q − 1`
//!    (wrap) if `p > r`.

use crate::config::GridParams;

/// Per-dimension decomposition of one quantized coordinate: everything
/// a sample's window is expanded from, in 8 bytes. The select unit's
/// relative and tile coordinates are bit fields of `base` (see
/// [`Decomposer::rel_coord`] and [`Decomposer::tile_coord`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DimDecomp {
    /// Window base `b = ⌊u + W/2⌋ mod G` (torus).
    pub base: u32,
    /// Fractional offset `φ` in half-LUT units: `phi2 = 2·φ·L ∈ [0, 2L)`.
    /// Half units make the decomposition exact for every `(W, L)` pair,
    /// including odd `W·L` (e.g. `L = 1`, `W = 5`).
    pub phi2: u32,
}

/// Integer decomposition engine for one [`GridParams`] configuration.
///
/// ```
/// use jigsaw_core::config::GridParams;
/// use jigsaw_core::decomp::Decomposer;
/// use jigsaw_core::kernel::KernelKind;
///
/// let p = GridParams { grid: 64, width: 6, table_oversampling: 32,
///                      tile: 8, kernel: KernelKind::Auto.resolve(6, 2.0) };
/// let dec = Decomposer::new(&p);
/// // Sample at u = 20.25: window base = floor(20.25 + 3) = 23.
/// let d = dec.decompose(dec.quantize(20.25));
/// assert_eq!((d.base, dec.tile_coord(&d), dec.rel_coord(&d)), (23, 2, 7));
/// // Pipeline 5 is affected (forward distance 2 < W), writes tile 2.
/// assert_eq!(dec.forward_distance(dec.rel_coord(&d), 5), 2);
/// assert!(dec.affects(2) && !dec.wrapped(dec.rel_coord(&d), 5));
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Decomposer {
    g: u32,
    t: u32,
    w: u32,
    l: u32,
    tiles: u32,
    log2_t: u32,
}

impl Decomposer {
    /// Build a decomposer. The params must already be validated.
    pub fn new(p: &GridParams) -> Self {
        debug_assert!(p.validate().is_ok());
        Self {
            g: p.grid as u32,
            t: p.tile as u32,
            w: p.width as u32,
            l: p.table_oversampling as u32,
            tiles: (p.grid / p.tile) as u32,
            log2_t: p.tile.trailing_zeros(),
        }
    }

    /// Grid size `G`.
    pub fn grid(&self) -> u32 {
        self.g
    }
    /// Tile dimension `T`.
    pub fn tile(&self) -> u32 {
        self.t
    }
    /// Window width `W`.
    pub fn width(&self) -> u32 {
        self.w
    }
    /// Table oversampling `L`.
    pub fn table_oversampling(&self) -> u32 {
        self.l
    }
    /// Tiles per dimension `G/T`.
    pub fn tiles_per_dim(&self) -> u32 {
        self.tiles
    }

    /// Quantize a coordinate `u ∈ ℝ` (oversampled grid units, wrapped onto
    /// the torus) to an integer in units of `1/L`: `U = round(u·L) mod G·L`.
    #[inline]
    pub fn quantize(&self, u: f64) -> u32 {
        let gl = (self.g * self.l) as f64;
        let scaled = (u * self.l as f64).round();
        // `rem_euclid` is a libm `fmod` call, and the identity on
        // `[0, G·L)`, where mapped coordinates already lie.
        if (0.0..gl).contains(&scaled) {
            scaled as u32
        } else {
            scaled.rem_euclid(gl) as u32
        }
    }

    /// Decompose a quantized coordinate `uq` (units of `1/L`).
    #[inline]
    pub fn decompose(&self, uq: u32) -> DimDecomp {
        // Work in half-units of 1/(2L) so that the W/2 shift is always an
        // integer: s2 = 2·uq + W·L. `L` is a power of two, so the div and
        // mod by 2L are a shift and a mask (in hardware, wires); the mod G
        // divides only for the few bases that wrap the torus.
        let s2 = 2 * uq as u64 + (self.w * self.l) as u64;
        let b = s2 >> (self.l.trailing_zeros() + 1);
        let g = self.g as u64;
        DimDecomp {
            base: (if b < g { b } else { b % g }) as u32,
            phi2: (s2 & (2 * self.l as u64 - 1)) as u32,
        }
    }

    /// Decompose every dimension of one sample's mapped coordinate.
    #[inline]
    pub fn decompose_sample<const D: usize>(&self, coord: &[f64; D]) -> [DimDecomp; D] {
        core::array::from_fn(|d| self.decompose(self.quantize(coord[d])))
    }

    /// Relative coordinate `r = b mod T` — "in which column": the low
    /// `log2 T` bits of the base.
    #[inline]
    pub fn rel_coord(&self, d: &DimDecomp) -> u32 {
        d.base & (self.t - 1)
    }

    /// Tile coordinate `q = b div T` — "which depth in the dice": the
    /// base with its low `log2 T` bits truncated.
    #[inline]
    pub fn tile_coord(&self, d: &DimDecomp) -> u32 {
        d.base >> self.log2_t
    }

    /// Tile and relative coordinate of any grid index `k`, the same
    /// truncation [`Self::tile_coord`] / [`Self::rel_coord`] apply to a
    /// window base.
    #[inline]
    pub fn split(&self, k: u32) -> (u32, u32) {
        (k >> self.log2_t, k & (self.t - 1))
    }

    /// The `j`-th window point (`j ∈ [0, W)`): grid index and *unfolded*
    /// LUT index `t = round((j + φ)·L)` (round half up). The torus wrap
    /// is one compare-and-subtract: `b + G − j < 2G` because `b < G` and
    /// `j < W ≤ G`.
    #[inline]
    pub fn window_point(&self, d: &DimDecomp, j: u32) -> (u32, u32) {
        debug_assert!(j < self.w);
        let k = d.base + self.g - j;
        let k = if k >= self.g { k - self.g } else { k };
        (k, self.lut_index(j, d.phi2))
    }

    /// Unfolded LUT index for forward distance `dist` and fractional
    /// offset `phi2` (see [`lut_index`]).
    #[inline]
    pub fn lut_index(&self, dist: u32, phi2: u32) -> u32 {
        lut_index(self.l, dist, phi2)
    }

    /// Fold an unfolded LUT index into the stored symmetric half-table:
    /// `min(t, WL − t)` (§IV: "only half of the weights must be stored").
    #[inline]
    pub fn fold(&self, t: u32) -> u32 {
        let wl = self.w * self.l;
        t.min(wl - t)
    }

    /// Select-unit boundary check: forward (mod-T) distance from pipeline
    /// index `p` to relative coordinate `rel`. In hardware this is
    /// `rel + T − p` on a `log2(T)`-bit adder, whose natural wraparound
    /// implements the `mod T`.
    #[inline]
    pub fn forward_distance(&self, rel: u32, p: u32) -> u32 {
        (rel + self.t - p) & (self.t - 1)
    }

    /// Whether a forward distance means "affected" (`d < W`).
    #[inline]
    pub fn affects(&self, dist: u32) -> bool {
        dist < self.w
    }

    /// Wrap detection (§IV: "if the relative coordinate is less than the
    /// pipeline index, a wrap has occurred in that dimension").
    #[inline]
    pub fn wrapped(&self, rel: u32, p: u32) -> bool {
        rel < p
    }

    /// Tile coordinate of the point pipeline `p` accumulates for this
    /// sample: `q`, decremented (mod tiles-per-dim) on wrap.
    #[inline]
    pub fn tile_for_pipeline(&self, d: &DimDecomp, p: u32) -> u32 {
        let tile = self.tile_coord(d);
        if self.wrapped(self.rel_coord(d), p) {
            (tile + self.tiles - 1) % self.tiles
        } else {
            tile
        }
    }
}

/// Unfolded LUT index for forward distance `dist` and fractional offset
/// `phi2` at table oversampling `l`: `t = round(dist·L + phi2/2)`,
/// rounding half up — in hardware, an add and a 1-bit truncation.
#[inline]
pub fn lut_index(l: u32, dist: u32, phi2: u32) -> u32 {
    (2 * dist * l + phi2 + 1) >> 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn params(g: usize, w: usize, l: usize, t: usize) -> GridParams {
        GridParams {
            grid: g,
            width: w,
            table_oversampling: l,
            tile: t,
            kernel: KernelKind::Auto.resolve(w, 2.0),
        }
    }

    #[test]
    fn quantize_wraps_torus() {
        let d = Decomposer::new(&params(16, 4, 8, 8));
        assert_eq!(d.quantize(0.0), 0);
        assert_eq!(d.quantize(15.9999), 0); // rounds to 16·L ≡ 0
        assert_eq!(d.quantize(-0.125), 15 * 8 + 7); // −1/8 ≡ 15.875
        assert_eq!(d.quantize(16.25), 2); // 0.25 · 8
    }

    #[test]
    fn decompose_reconstructs_coordinate() {
        let p = params(64, 6, 32, 8);
        let d = Decomposer::new(&p);
        for i in 0..64 * 32 {
            let dec = d.decompose(i);
            // q·T + r == base.
            assert_eq!(d.tile_coord(&dec) * 8 + d.rel_coord(&dec), dec.base);
            // base and phi2 reconstruct u + W/2 (mod G).
            let u_half = 2 * i as u64 + (6 * 32) as u64;
            assert_eq!(
                (dec.base as u64 * 64 + dec.phi2 as u64) % (64 * 64),
                u_half % (64 * 64)
            );
        }
    }

    #[test]
    fn window_points_are_centered_on_sample() {
        let p = params(32, 6, 32, 8);
        let d = Decomposer::new(&p);
        let u = 10.3;
        let uq = d.quantize(u);
        let dec = d.decompose(uq);
        let pts: Vec<u32> = (0..6).map(|j| d.window_point(&dec, j).0).collect();
        // u + W/2 = 13.3 → base 13; window {13,12,11,10,9,8}.
        assert_eq!(pts, vec![13, 12, 11, 10, 9, 8]);
    }

    #[test]
    fn window_wraps_around_grid_edge() {
        let p = params(32, 6, 32, 8);
        let d = Decomposer::new(&p);
        let dec = d.decompose(d.quantize(0.5)); // base = 3
        let pts: Vec<u32> = (0..6).map(|j| d.window_point(&dec, j).0).collect();
        assert_eq!(pts, vec![3, 2, 1, 0, 31, 30]);
    }

    #[test]
    fn lut_indices_span_table() {
        let p = params(32, 6, 32, 8);
        let d = Decomposer::new(&p);
        let dec = d.decompose(d.quantize(10.25)); // φ = frac(13.25) = 0.25
        for j in 0..6 {
            let (_, t) = d.window_point(&dec, j);
            assert_eq!(t, j * 32 + 8); // (j + 0.25)·32
            assert!(d.fold(t) <= 6 * 32 / 2);
        }
    }

    #[test]
    fn fold_symmetry() {
        let d = Decomposer::new(&params(32, 6, 32, 8));
        let wl = 6 * 32;
        for t in 0..=wl {
            assert_eq!(d.fold(t), d.fold(wl - t));
            assert!(d.fold(t) <= wl / 2);
        }
    }

    #[test]
    fn select_unit_equals_direct_window_membership() {
        // The hardware-style check (forward distance < W, wrap iff r < p)
        // must identify exactly the same (tile, pipeline) pairs as
        // enumerating the window directly.
        let p = params(64, 6, 32, 8);
        let d = Decomposer::new(&p);
        for step in 0..512 {
            let u = step as f64 * 0.123;
            let dec = d.decompose(d.quantize(u));
            // Direct enumeration.
            let mut direct: Vec<(u32, u32)> = (0..6)
                .map(|j| {
                    let (k, _) = d.window_point(&dec, j);
                    (k >> 3, k & 7) // (tile, rel-pos-in-tile)
                })
                .collect();
            direct.sort_unstable();
            // Select-unit enumeration over all pipelines.
            let mut selected: Vec<(u32, u32)> = (0..8)
                .filter(|&pipe| d.affects(d.forward_distance(d.rel_coord(&dec), pipe)))
                .map(|pipe| (d.tile_for_pipeline(&dec, pipe), pipe))
                .collect();
            selected.sort_unstable();
            assert_eq!(direct, selected, "u={u}");
        }
    }

    #[test]
    fn select_unit_distance_matches_window_offset() {
        // For an affected pipeline, the forward distance equals the window
        // offset j of the point it owns, so the LUT index agrees too.
        let p = params(64, 6, 32, 8);
        let d = Decomposer::new(&p);
        for step in 0..256 {
            let u = step as f64 * 0.37 + 0.011;
            let dec = d.decompose(d.quantize(u));
            for pipe in 0..8 {
                let dist = d.forward_distance(d.rel_coord(&dec), pipe);
                if !d.affects(dist) {
                    continue;
                }
                let (k, t) = d.window_point(&dec, dist);
                let tile = d.tile_for_pipeline(&dec, pipe);
                assert_eq!(k, tile * 8 + pipe, "grid index mismatch at u={u}");
                assert_eq!(t, d.lut_index(dist, dec.phi2));
            }
        }
    }

    #[test]
    fn exactly_w_pipelines_affected_per_dim() {
        let p = params(64, 6, 32, 8);
        let d = Decomposer::new(&p);
        for step in 0..100 {
            let dec = d.decompose(d.quantize(step as f64 * 0.61));
            let n = (0..8)
                .filter(|&pipe| d.affects(d.forward_distance(d.rel_coord(&dec), pipe)))
                .count();
            assert_eq!(n, 6);
        }
    }

    #[test]
    fn odd_wl_half_unit_rounding() {
        // L = 1, W = 5: φ carries a half; LUT index rounds half up.
        let p = params(32, 5, 1, 8);
        let d = Decomposer::new(&p);
        let dec = d.decompose(d.quantize(10.0)); // u + W/2 = 12.5
        assert_eq!(dec.base, 12);
        assert_eq!(dec.phi2, 1); // half unit
                                 // t_j = round(j + 0.5) = j + 1 (half up).
        for j in 0..5 {
            assert_eq!(d.lut_index(j, dec.phi2), j + 1);
        }
    }

    #[test]
    fn tile_wrap_decrements_mod_tiles() {
        let p = params(32, 6, 32, 8);
        let d = Decomposer::new(&p);
        // base = 2 → rel = 2, tile = 0. Pipeline 5 is affected
        // (distance (2−5) mod 8 = 5 < 6) and wraps to tile −1 ≡ 3.
        let dec = d.decompose(d.quantize(2.0 - 3.0)); // u = −1 → u+3 = 2
        assert_eq!(d.rel_coord(&dec), 2);
        assert_eq!(d.tile_coord(&dec), 0);
        assert!(d.wrapped(d.rel_coord(&dec), 5));
        assert_eq!(d.tile_for_pipeline(&dec, 5), 3);
        assert!(!d.wrapped(d.rel_coord(&dec), 1));
        assert_eq!(d.tile_for_pipeline(&dec, 1), 0);
    }
}
