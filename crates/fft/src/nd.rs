//! Multi-dimensional FFTs via the row-column method.
//!
//! An N-dimensional transform factorizes into 1-D transforms along each
//! axis. Data is stored flat in row-major order (`dims = [d0, d1, ...]`,
//! with the *last* dimension contiguous), matching the grid layout used by
//! the gridding engines in `jigsaw-core`.
//!
//! # Cache-blocked interleaved panel passes
//!
//! A strided axis pass used to walk every line one element at a time —
//! `d` cache misses per line at large strides. Every axis pass now
//! processes *panels* of [`PANEL_LINES`] adjacent lines instead, gathered
//! into **k-major split-plane (SoA)** scratch: element `k` of panel lane
//! `l` lives at `re[k·lanes + l]` / `im[k·lanes + l]`. For a strided axis
//! that gather reads `lanes` adjacent grid elements per `k` (one streamed
//! AoS→SoA split); for the contiguous axis it is a cache-blocked tile
//! transpose. The panel then runs through
//! [`crate::Fft1d::process_planes`] — the batched kernel whose twiddle
//! loads amortize across lanes and whose inner lane loops compile to
//! shuffle-free vector code — and scatters back the same way. Per-lane
//! floating-point operations are exactly the scalar 1-D path's, so the
//! blocked pass is bitwise identical to line-at-a-time processing.
//!
//! Every axis pass runs serially on the calling thread. Callers that want
//! parallelism run whole transforms side by side (one coil per worker in
//! `jigsaw-core`), which keeps each transform's floating-point operations
//! independent of scheduling.

use crate::{Direction, Fft1d};
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::cancel;

/// Lines per cache-blocked panel. 32 lines × 16-byte elements = 512-byte
/// blocked reads/writes per grid row — wide enough to amortize the strided
/// access, small enough that a `32×d` panel stays cache-resident for every
/// supported grid size. Fixed, so the panel partition depends only on the
/// shape.
pub const PANEL_LINES: usize = 32;

/// `k`-tile depth of the transpose gather/scatter on the contiguous axis:
/// one tile is `K_TILE × PANEL_LINES` scalars per plane (4 KiB each at
/// `f64`), small enough that the plane tile and the `lanes` line segments
/// feeding it all stay L1-resident while the tile fills.
const K_TILE: usize = 16;

/// A planned multi-dimensional FFT.
///
/// One [`Fft1d`] plan is created per axis, so a square 2-D plan holds two
/// identical 1-D plans.
pub struct FftNd<T> {
    dims: Vec<usize>,
    plans: Vec<Fft1d<T>>, // parallel to dims
    len: usize,
}

/// Geometry of one panel: `lines` lines whose element `(l, k)` lives
/// at `start + l·line_step + k·elem_step` in the flat array.
#[derive(Clone, Copy)]
struct Panel {
    start: usize,
    lines: usize,
    line_step: usize,
    elem_step: usize,
}

/// Gather a panel from the AoS grid into k-major split-plane scratch
/// (`re[k*lanes + l] / im[k*lanes + l] =
/// src[start + l*line_step + k*elem_step].{re, im}`) — the layout
/// [`crate::Fft1d::process_planes`] consumes.
///
/// For a strided axis (`line_step == 1`: the lines are adjacent elements)
/// every `k`-row reads `lanes` contiguous grid elements and splits them
/// into the two planes; for the contiguous axis (`elem_step == 1`) this is
/// a tile transpose walked line-by-line inside `k`-tiles of [`K_TILE`], so
/// grid reads stay sequential and the plane tile stays L1-resident
/// (walking `k`-major outright would read the `lanes` lines at a multi-KiB
/// power-of-two stride — every access aliasing onto one L1 set).
fn gather_panel<T: Float>(src: &[Complex<T>], p: &Panel, d: usize, re: &mut [T], im: &mut [T]) {
    let lanes = p.lines;
    if p.line_step == 1 {
        for k in 0..d {
            let s = p.start + k * p.elem_step;
            let row = &src[s..s + lanes];
            let dr = &mut re[k * lanes..(k + 1) * lanes];
            let di = &mut im[k * lanes..(k + 1) * lanes];
            for l in 0..lanes {
                dr[l] = row[l].re;
                di[l] = row[l].im;
            }
        }
        return;
    }
    let mut kb = 0;
    while kb < d {
        let ke = (kb + K_TILE).min(d);
        for l in 0..lanes {
            let base = p.start + l * p.line_step;
            for k in kb..ke {
                let z = src[base + k * p.elem_step];
                re[k * lanes + l] = z.re;
                im[k * lanes + l] = z.im;
            }
        }
        kb = ke;
    }
}

/// Scatter k-major split-plane panel scratch back into the AoS grid
/// (inverse of [`gather_panel`], same tiling rationale).
fn scatter_panel<T: Float>(re: &[T], im: &[T], p: &Panel, d: usize, dst: &mut [Complex<T>]) {
    let lanes = p.lines;
    if p.line_step == 1 {
        for k in 0..d {
            let s = p.start + k * p.elem_step;
            let row = &mut dst[s..s + lanes];
            let sr = &re[k * lanes..(k + 1) * lanes];
            let si = &im[k * lanes..(k + 1) * lanes];
            for l in 0..lanes {
                row[l] = Complex::new(sr[l], si[l]);
            }
        }
        return;
    }
    let mut kb = 0;
    while kb < d {
        let ke = (kb + K_TILE).min(d);
        for l in 0..lanes {
            let base = p.start + l * p.line_step;
            for k in kb..ke {
                dst[base + k * p.elem_step] = Complex::new(re[k * lanes + l], im[k * lanes + l]);
            }
        }
        kb = ke;
    }
}

/// The per-axis telemetry span (axis index must be a static name).
fn axis_span(axis: usize, d: usize, panels: usize) -> telemetry::span::SpanGuard {
    let name = match axis {
        0 => "fft.axis0",
        1 => "fft.axis1",
        2 => "fft.axis2",
        _ => "fft.axis3",
    };
    telemetry::span!(name, { d: d, panels: panels })
}

impl<T: Float> FftNd<T> {
    /// Plan a transform over a row-major array of shape `dims`.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension");
        let plans = dims.iter().map(|&d| Fft1d::new(d)).collect();
        let len = dims.iter().product();
        Self {
            dims: dims.to_vec(),
            plans,
            len,
        }
    }

    /// The shape this plan transforms.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the planned array has zero elements. Consistent with
    /// [`Self::len`]; always `false` in practice because [`Self::new`]
    /// rejects empty and zero-sized shapes, but derived from `len` rather
    /// than hardcoded so the invariant and the accessor cannot drift.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The panel partition of one axis pass: every line along `axis`
    /// grouped into blocks of at most [`PANEL_LINES`] adjacent lines.
    /// Depends only on the shape.
    fn panels_for_axis(&self, axis: usize) -> Vec<Panel> {
        let d = self.dims[axis];
        let stride: usize = self.dims[axis + 1..].iter().product();
        let outer: usize = self.dims[..axis].iter().product();
        let mut panels = Vec::new();
        if stride == 1 {
            // Contiguous lines tile the array: block adjacent rows.
            let nlines = outer;
            let mut l0 = 0;
            while l0 < nlines {
                let b = PANEL_LINES.min(nlines - l0);
                panels.push(Panel {
                    start: l0 * d,
                    lines: b,
                    line_step: d,
                    elem_step: 1,
                });
                l0 += b;
            }
        } else {
            for o in 0..outer {
                let base = o * d * stride;
                let mut i0 = 0;
                while i0 < stride {
                    let b = PANEL_LINES.min(stride - i0);
                    panels.push(Panel {
                        start: base + i0,
                        lines: b,
                        line_step: 1,
                        elem_step: stride,
                    });
                    i0 += b;
                }
            }
        }
        panels
    }

    /// Transform `data` (row-major, shape [`Self::dims`]) in place,
    /// serially on the calling thread with cache-blocked panel passes.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the planned shape.
    pub fn process(&self, data: &mut [Complex<T>], dir: Direction) {
        assert_eq!(data.len(), self.len, "buffer must match planned shape");
        let mut re_s: Vec<T> = Vec::new();
        let mut im_s: Vec<T> = Vec::new();
        let mut work: Vec<T> = Vec::new();
        for axis in 0..self.dims.len() {
            let d = self.dims[axis];
            if d == 1 {
                continue;
            }
            let plan = &self.plans[axis];
            let panels = self.panels_for_axis(axis);
            let _span = axis_span(axis, d, panels.len());
            let max_lines = panels.iter().map(|p| p.lines).max().unwrap_or(0);
            re_s.resize(max_lines * d, T::ZERO);
            im_s.resize(max_lines * d, T::ZERO);
            for p in &panels {
                if cancel::cancelled() {
                    // Cooperative cancellation: stop between panels. `data`
                    // is left partially transformed; the budget owner that
                    // tripped the flag discards it (see
                    // `jigsaw_testkit::cancel`).
                    return;
                }
                let re = &mut re_s[..p.lines * d];
                let im = &mut im_s[..p.lines * d];
                gather_panel(data, p, d, re, im);
                work.resize(plan.batch_scratch_len(p.lines), T::ZERO);
                plan.process_planes(re, im, p.lines, dir, &mut work);
                scatter_panel(re, im, p, d, data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_num::C64;

    /// Direct 2-D DFT oracle.
    fn dft2(input: &[C64], rows: usize, cols: usize, dir: Direction) -> Vec<C64> {
        let sign = if dir == Direction::Forward { -1.0 } else { 1.0 };
        let mut out = vec![C64::zeroed(); rows * cols];
        for kr in 0..rows {
            for kc in 0..cols {
                let mut acc = C64::zeroed();
                for jr in 0..rows {
                    for jc in 0..cols {
                        let theta = sign
                            * 2.0
                            * core::f64::consts::PI
                            * (jr as f64 * kr as f64 / rows as f64
                                + jc as f64 * kc as f64 / cols as f64);
                        acc += input[jr * cols + jc] * C64::cis(theta);
                    }
                }
                if dir == Direction::Inverse {
                    acc = acc.unscale((rows * cols) as f64);
                }
                out[kr * cols + kc] = acc;
            }
        }
        out
    }

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64 * 0.17).sin(), (i as f64 * 0.31).cos()))
            .collect()
    }

    #[test]
    fn matches_2d_dft() {
        for (r, c) in [(4usize, 4usize), (8, 4), (3, 5), (8, 6)] {
            let x = signal(r * c);
            let want = dft2(&x, r, c, Direction::Forward);
            let plan = FftNd::new(&[r, c]);
            let mut got = x.clone();
            plan.process(&mut got, Direction::Forward);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-9, "{r}x{c}");
            }
        }
    }

    #[test]
    fn roundtrip_2d() {
        let (r, c) = (32, 64);
        let x = signal(r * c);
        let plan = FftNd::new(&[r, c]);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-11);
        }
    }

    #[test]
    fn roundtrip_3d() {
        let dims = [8usize, 4, 16];
        let n: usize = dims.iter().product();
        let x = signal(n);
        let plan = FftNd::new(&dims);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-11);
        }
    }

    #[test]
    fn separable_impulse_2d() {
        // An impulse at the origin transforms to an all-ones grid.
        let (r, c) = (8, 8);
        let mut x = vec![C64::zeroed(); r * c];
        x[0] = C64::one();
        FftNd::new(&[r, c]).process(&mut x, Direction::Forward);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn one_dimensional_degenerate() {
        let x = signal(16);
        let plan_nd = FftNd::new(&[16]);
        let plan_1d = Fft1d::new(16);
        let mut a = x.clone();
        let mut b = x.clone();
        plan_nd.process(&mut a, Direction::Forward);
        plan_1d.process(&mut b, Direction::Forward);
        for (p, q) in a.iter().zip(&b) {
            assert!((*p - *q).abs() < 1e-13);
        }
    }

    #[test]
    fn unit_dims_are_skipped() {
        let x = signal(8);
        let plan = FftNd::new(&[1, 8, 1]);
        let mut a = x.clone();
        plan.process(&mut a, Direction::Forward);
        let mut b = x.clone();
        Fft1d::new(8).process(&mut b, Direction::Forward);
        for (p, q) in a.iter().zip(&b) {
            assert!((*p - *q).abs() < 1e-13);
        }
    }

    #[test]
    #[should_panic(expected = "buffer must match")]
    fn shape_mismatch_panics() {
        let plan = FftNd::<f64>::new(&[4, 4]);
        let mut data = vec![C64::zeroed(); 8];
        plan.process(&mut data, Direction::Forward);
    }

    #[test]
    fn is_empty_tracks_len() {
        let plan = FftNd::<f64>::new(&[4, 4]);
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
    }

    #[test]
    fn panels_cover_every_line_once() {
        // Every (line) element index must be visited exactly once per axis.
        let plan = FftNd::<f64>::new(&[6, 48, 5]);
        for axis in 0..3 {
            let d = plan.dims[axis];
            let panels = plan.panels_for_axis(axis);
            let mut seen = vec![0u32; plan.len()];
            for p in &panels {
                for l in 0..p.lines {
                    for k in 0..d {
                        seen[p.start + l * p.line_step + k * p.elem_step] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "axis {axis} coverage");
        }
    }

    #[test]
    fn blocked_strided_pass_matches_column_dft() {
        // Golden strided-axis check at a width that forces multiple panels
        // (stride 48 > PANEL_LINES): transform axis 0 of a [8, 48] array
        // and compare every column against the 1-D oracle.
        let (r, c) = (8usize, 48usize);
        let x = signal(r * c);
        let plan = FftNd::new(&[r, 1, c]); // unit dim: axis1 skipped
        let mut got = x.clone();
        // Only transform along axis 0 by comparing against per-column DFTs
        // after undoing the axis-2 pass is fiddly; instead check the full
        // 2-D result against the separable oracle.
        plan.process(&mut got, Direction::Forward);
        let want = dft2(&x, r, c, Direction::Forward);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }
}
