//! Complete forward and adjoint NuFFT plans.
//!
//! The plan precomputes everything reusable — kernel LUT, apodization
//! factors, FFT twiddles — and then executes the paper's three-step
//! pipeline (Fig. 1) with per-stage timing, because the *ratio* of
//! gridding to FFT time is the paper's core motivation (gridding is
//! 99.6 % of the NuFFT on a modern CPU, §I) and its headline result
//! (gridding and FFT time equalized on GPU, §VI-A).
//!
//! For multi-coil MRI (§II-A: "each of the C receive coils acquires the
//! same k-space trajectory") the plan additionally supports *planned*
//! execution: [`NufftPlan::plan_trajectory`] maps and quantizes every
//! coordinate into its integer window decomposition (§III) once, and
//! every production transform in both directions streams through it on
//! the persistent [`crate::engine::WorkerPool`], expanding each sample's
//! window as it goes. [`NufftPlan::adjoint_batch_planned`] scatters a
//! batch of coils into arena-recycled grid buffers, and
//! [`NufftPlan::forward_planned`] gathers one image's samples. The
//! one-shot [`NufftPlan::forward`] plans its coordinates and then runs
//! that same gather, so the forward NuFFT has one gather.
//!
//! A batch of several coils runs one coil per pooled job, which scatters,
//! FFTs and de-apodizes that coil on one worker. A one-coil adjoint batch
//! (every served request) of at least 2^19 kernel accumulations (`M·W^D`)
//! splits its scatter the way JIGSAW splits the grid across pipelines
//! (§III): job `b` owns a contiguous band of rows of the slowest grid
//! axis, streams every sample past it in order and adds only the window
//! points on its own rows. Each grid point is written by one job in
//! sample order, so the image stays bitwise equal to the serial one; the
//! caller copies the bands into one grid and finishes the transform. A
//! smaller one-coil batch runs as one coil job.
//!
//! Every parallel step dispatches through
//! [`crate::engine::WorkerPool::map`], which returns the jobs' values in
//! job order and owns the serial-fallback policy: a failed coil, band or
//! gather job runs again by itself on the calling thread, or the call
//! returns `Error::Execution` with the fallback off.
//!
//! Every uniform FFT runs serially ([`FftNd::process`]) on whichever
//! thread holds the grid, and so do the apodized embed and the
//! de-apodized extract around it; a single-image [`NufftPlan::adjoint`]
//! parallelizes only in its gridding engine, and the forward NuFFT only
//! in its gather, one chunk of planned samples per pool job. On a 2-vCPU
//! host an FFT split into pool panels was slower than the serial blocked
//! one at every size `BENCH_fft_scaling.json` records (0.59× its speed at
//! 256²).
//!
//! Conventions (`ν` in cycles, image indices `k ∈ [−N/2, N/2)^d`):
//!
//! * adjoint: `ĥ_k = Σ_j c_j e^{+2πi k·ν_j}` (matches [`crate::nudft::adjoint_nudft`]),
//! * forward: `c_j = Σ_k f_k e^{−2πi k·ν_j}` (matches [`crate::nudft::forward_nudft`]).

use crate::apod::Apodization;
use crate::config::{GridParams, NufftConfig};
use crate::decomp::{Decomposer, DimDecomp};
use crate::engine::{keys, WorkerPool};
use crate::gridding::slice_dice::CANCEL_CHECK_MASK;
use crate::gridding::{expand_windows, for_each_point, scatter_rowmajor, DimWindow, Gridder};
use crate::interp::gather_from_windows;
use crate::lut::KernelLut;
use crate::stats::GridStats;
use crate::{Error, Result};
use jigsaw_fft::{Direction, FftNd};
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::{cancel, faultpoint};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock breakdown of one NuFFT execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Coordinate mapping / grid preparation.
    pub prep_seconds: f64,
    /// Gridding (adjoint) or interpolation (forward).
    pub interp_seconds: f64,
    /// Uniform FFT over the oversampled grid.
    pub fft_seconds: f64,
    /// Apodization correction + grid extraction/embedding.
    pub apod_seconds: f64,
}

impl StageTimings {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.prep_seconds + self.interp_seconds + self.fft_seconds + self.apod_seconds
    }

    /// Fraction of time in the interpolation stage — the paper's
    /// "gridding accounts for 99.6 % of NuFFT computation time" statistic.
    pub fn interp_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.interp_seconds / self.total()
        }
    }
}

/// Result bundle of an adjoint NuFFT.
#[derive(Debug, Clone)]
pub struct AdjointOutput<T> {
    /// Reconstructed `[N; D]` image (row-major).
    pub image: Vec<Complex<T>>,
    /// Stage timings.
    pub timings: StageTimings,
    /// Gridding-engine counters.
    pub grid_stats: GridStats,
}

/// Result bundle of a forward NuFFT.
#[derive(Debug, Clone)]
pub struct ForwardOutput<T> {
    /// Non-uniform sample values.
    pub samples: Vec<Complex<T>>,
    /// Stage timings.
    pub timings: StageTimings,
}

/// A trajectory whose per-sample window decomposition has been computed
/// once and cached for reuse across coils/frames.
///
/// Produced by [`NufftPlan::plan_trajectory`]. Holds, for every sample,
/// its integer decomposition — window base and half-LUT offset per
/// dimension, 8 bytes each — from which the adjoint scatter and the
/// forward gather expand the `W` indices and weights per dimension as
/// they stream. Sharing is `Arc`-based, so cloning the trajectory (or
/// capturing it in pooled jobs) is `O(1)`.
#[derive(Debug, Clone)]
pub struct PlannedTrajectory<const D: usize> {
    decomps: Arc<[[DimDecomp; D]]>,
    grid: usize,
    width: usize,
    table_oversampling: usize,
    plan_seconds: f64,
}

impl<const D: usize> PlannedTrajectory<D> {
    /// Number of planned samples.
    pub fn len(&self) -> usize {
        self.decomps.len()
    }

    /// Whether the trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.decomps.is_empty()
    }

    /// Seconds spent planning (coordinate mapping + decomposition) — the
    /// one-time cost amortized over every batched coil.
    pub fn plan_seconds(&self) -> f64 {
        self.plan_seconds
    }
}

/// The fewest kernel accumulations (`M·W^D`) at which a one-coil planned
/// adjoint splits its scatter into row bands. Below it the split's fixed
/// costs outweigh halving the scatter: a second worker to wake, the
/// caller to wake for the merged grid, and the FFT on the caller's core,
/// whose cache does not hold the grid. Paired in-process timings on a
/// 2-vCPU host (radial, one coil, split against one coil job) lost 4–15 %
/// at up to 0.44 M accumulations on G = 64–256 and were within ±3 % from
/// 0.59 M to 0.88 M at G = 128. From 1.3 M on, every measured grid won
/// 5–35 %.
const ROW_BAND_MIN_ACCUMULATIONS: u64 = 1 << 19;

/// What a planned adjoint's coil or row-band jobs fall back under
/// (`engine.fallbacks` flight-recorder detail).
const ADJOINT_LABEL: &str = "nufft.adjoint_batch_planned";

/// The contiguous rows `[lo, lo + len)` of the slowest grid axis (rows
/// in 2-D, planes in 3-D, points in 1-D) that one planned scatter job
/// owns.
#[derive(Clone, Copy, Debug)]
struct RowBand {
    lo: u32,
    len: u32,
}

impl RowBand {
    /// Band `b` of `nbands`: rows `[b·g/nbands, (b+1)·g/nbands)`.
    fn nth(b: usize, nbands: usize, g: usize) -> Self {
        let (lo, hi) = (b * g / nbands, (b + 1) * g / nbands);
        Self {
            lo: lo as u32,
            len: (hi - lo) as u32,
        }
    }
}

/// Scatter `values` through their planned windows onto the rows `band`
/// owns, in sample order. `buf` holds grid row `band.lo + s` at row `s`
/// (row-major), so a band starting at row 0 can scatter straight into a
/// full grid. Polls cancellation every `CANCEL_CHECK_MASK + 1` samples
/// and returns `false` if cancelled, leaving `buf` partly written.
///
/// The row-band jobs scatter through here, and a coil job runs the same
/// steps per sample, so every grid point receives the same
/// `value · (w_y · w_x)` terms in the same order whichever job owns it,
/// or runs it again after a failure: the bitwise-equality guarantee
/// rests on this.
fn scatter_planned<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    decomps: &[[DimDecomp; D]],
    values: &[Complex<T>],
    band: RowBand,
    buf: &mut [Complex<T>],
) -> bool {
    let (g, w) = (dec.grid(), dec.width());
    // A window covers rows `(base − j) mod G` for `j < W`, so it touches
    // the band iff `(base − lo) mod G < len + W − 1`.
    let reach = band.len + w - 1;
    let touches = |base: u32| {
        let from_lo = if base >= band.lo {
            base - band.lo
        } else {
            base + g - band.lo
        };
        from_lo < reach
    };
    let slot = |k: u32| {
        let s = k.wrapping_sub(band.lo);
        (s < band.len).then_some(s as usize)
    };
    let mut wins = [DimWindow::default(); D];
    for (i, (dds, &v)) in decomps.iter().zip(values).enumerate() {
        if i & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            return false;
        }
        if !touches(dds[0].base) {
            continue;
        }
        expand_windows(dec, lut, dds, &mut wins);
        for_each_point(g as usize, w as usize, &wins, slot, |idx, wt| {
            buf[idx] += v.scale(T::from_f64(wt));
        });
    }
    true
}

/// The reusable internals of a plan, shared via `Arc` so pooled jobs can
/// hold `'static` references to the FFT, apodization table, and LUT.
struct PlanInner<T, const D: usize> {
    cfg: NufftConfig,
    params: GridParams,
    lut: KernelLut,
    apod: Apodization,
    fft: FftNd<T>,
}

impl<T: Float, const D: usize> PlanInner<T, D> {
    /// Map trajectory coordinates (cycles) onto the oversampled grid
    /// (`u = (ν mod 1)·G`).
    fn map_coords(&self, coords: &[[f64; D]]) -> Vec<[f64; D]> {
        let g = self.params.grid as f64;
        coords
            .iter()
            .map(|c| {
                let mut u = [0.0; D];
                for d in 0..D {
                    u[d] = c[d].rem_euclid(1.0) * g;
                }
                u
            })
            .collect()
    }

    /// Pre-apodize an `[N; D]` image and embed it into the (pre-zeroed)
    /// oversampled grid — the forward NuFFT's first stage.
    fn embed_apodized(&self, image: &[Complex<T>], grid: &mut [Complex<T>]) {
        let n = self.cfg.n;
        let g = self.params.grid;
        for (flat, &v) in image.iter().enumerate() {
            let mut rem = flat;
            let mut dst = 0usize;
            let mut f = 1.0;
            for d in 0..D {
                let stride = n.pow((D - 1 - d) as u32);
                let i = (rem / stride) % n;
                rem %= stride;
                let k = i as i64 - (n / 2) as i64;
                let s = k.rem_euclid(g as i64) as usize;
                dst = dst * g + s;
                f *= self.apod.factor(i);
            }
            grid[dst] = v.scale(T::from_f64(f));
        }
    }

    /// Extract `ĥ_k = FFT[g][(−k) mod G]` with de-apodization from the
    /// FFT'd oversampled grid — the adjoint NuFFT's last stage.
    fn extract_deapodized(&self, grid: &[Complex<T>]) -> Vec<Complex<T>> {
        let n = self.cfg.n;
        let g = self.params.grid;
        (0..n.pow(D as u32))
            .map(|flat| {
                let mut rem = flat;
                let mut src = 0usize;
                let mut f = 1.0;
                for d in 0..D {
                    // Row-major: peel dims from the most significant side.
                    let stride = n.pow((D - 1 - d) as u32);
                    let i = (rem / stride) % n;
                    rem %= stride;
                    let k = i as i64 - (n / 2) as i64;
                    let s = (-k).rem_euclid(g as i64) as usize;
                    src = src * g + s;
                    f *= self.apod.factor(i);
                }
                grid[src].scale(T::from_f64(f))
            })
            .collect()
    }

    /// The adjoint NuFFT's post-gridding stages: uniform FFT over an
    /// already-gridded oversampled buffer, then extraction and
    /// de-apodization, both serially on the calling thread. `grid` is
    /// consumed as scratch.
    ///
    /// A pooled coil job runs this on its worker; a single-image adjoint
    /// runs it on the caller's thread after its (possibly parallel)
    /// gridding engine returns.
    fn finish_adjoint(&self, grid: &mut [Complex<T>]) -> Result<(Vec<Complex<T>>, StageTimings)> {
        let g = self.params.grid;
        let n = self.cfg.n;
        if grid.len() != g.pow(D as u32) {
            return Err(Error::Data(format!(
                "grid has {} points, expected {}^{}",
                grid.len(),
                g,
                D
            )));
        }
        let t2 = Instant::now();
        {
            let _span = telemetry::span!("fft.process", { points: grid.len() });
            self.fft.process(grid, Direction::Forward);
        }
        let fft_seconds = t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        let image = {
            let _apod_span = telemetry::span!("nufft.apod", { n: n, dim: D });
            self.extract_deapodized(grid)
        };
        let apod_seconds = t3.elapsed().as_secs_f64();
        Ok((
            image,
            StageTimings {
                prep_seconds: 0.0,
                interp_seconds: 0.0,
                fft_seconds,
                apod_seconds,
            },
        ))
    }
}

/// A planned NuFFT for a fixed configuration and dimensionality.
///
/// ```
/// use jigsaw_core::{NufftConfig, NufftPlan};
/// use jigsaw_core::gridding::SliceDiceGridder;
/// use jigsaw_core::traj;
/// use jigsaw_num::C64;
///
/// // Adjoint NuFFT of 1000 radial k-space samples onto a 32x32 image.
/// let coords = traj::radial_2d(20, 50, true);
/// let values = vec![C64::one(); coords.len()];
/// let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(32)).unwrap();
/// let out = plan.adjoint(&coords, &values, &SliceDiceGridder::default()).unwrap();
/// assert_eq!(out.image.len(), 32 * 32);
/// assert_eq!(out.grid_stats.boundary_checks, 1000 * 64); // M*T^2
/// ```
///
/// Multi-coil batches amortize the window decomposition:
///
/// ```
/// use jigsaw_core::{NufftConfig, NufftPlan};
/// use jigsaw_core::traj;
/// use jigsaw_num::C64;
///
/// let coords = traj::radial_2d(10, 40, true);
/// let coil_a = vec![C64::one(); coords.len()];
/// let coil_b = vec![C64::new(0.0, 1.0); coords.len()];
/// let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(32)).unwrap();
/// let traj = plan.plan_trajectory(&coords).unwrap();
/// let images = plan
///     .adjoint_batch_planned(&traj, &[&coil_a, &coil_b])
///     .unwrap();
/// assert_eq!(images.len(), 2);
/// ```
pub struct NufftPlan<T, const D: usize> {
    inner: Arc<PlanInner<T, D>>,
}

/// Plans share their immutable state (`cfg`, LUT, apodization, FFT
/// twiddles) behind an `Arc`, so cloning is `O(1)` — the serve cache
/// clones one plan into every entry that reuses it.
impl<T, const D: usize> Clone for NufftPlan<T, D> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Float, const D: usize> NufftPlan<T, D> {
    /// Plan a transform. Validates the configuration.
    pub fn new(cfg: NufftConfig) -> Result<Self> {
        cfg.validate()?;
        if !(1..=4).contains(&D) {
            return Err(Error::Config(format!("unsupported dimensionality {D}")));
        }
        let params = cfg.grid_params();
        let lut = KernelLut::from_params(&params);
        let apod = Apodization::new(&cfg);
        let fft = FftNd::new(&[params.grid; D]);
        Ok(Self {
            inner: Arc::new(PlanInner {
                cfg,
                params,
                lut,
                apod,
                fft,
            }),
        })
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &NufftConfig {
        &self.inner.cfg
    }

    /// Grid-side parameters.
    pub fn grid_params(&self) -> &GridParams {
        &self.inner.params
    }

    /// The shared kernel LUT.
    pub fn lut(&self) -> &KernelLut {
        &self.inner.lut
    }

    /// Map trajectory coordinates (cycles) onto the oversampled grid
    /// (`u = (ν mod 1)·G`).
    pub fn map_coords(&self, coords: &[[f64; D]]) -> Vec<[f64; D]> {
        self.inner.map_coords(coords)
    }

    /// Validate coordinate finiteness, producing the standard error.
    fn check_finite(coords: &[[f64; D]]) -> Result<()> {
        for (i, c) in coords.iter().enumerate() {
            if c.iter().any(|x| !x.is_finite()) {
                return Err(Error::Data(format!("non-finite coordinate at sample {i}")));
            }
        }
        Ok(())
    }

    /// Adjoint NuFFT: non-uniform samples → `[N; D]` image, using the
    /// given gridding engine.
    pub fn adjoint(
        &self,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        gridder: &dyn Gridder<T, D>,
    ) -> Result<AdjointOutput<T>> {
        if coords.len() != values.len() {
            return Err(Error::Data(format!(
                "coordinate count {} != value count {}",
                coords.len(),
                values.len()
            )));
        }
        Self::check_finite(coords)?;
        let _span = telemetry::span!("nufft.adjoint", { dim: D, m: coords.len() });
        let g = self.inner.params.grid;

        let t0 = Instant::now();
        let mapped = {
            let _prep = telemetry::span!("nufft.prep", { m: coords.len() });
            self.inner.map_coords(coords)
        };
        let mut grid = vec![Complex::<T>::zeroed(); g.pow(D as u32)];
        let prep_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let grid_stats = gridder.grid(
            &self.inner.params,
            &self.inner.lut,
            &mapped,
            values,
            &mut grid,
        )?;
        let interp_seconds = t1.elapsed().as_secs_f64();

        let (image, mut timings) = self.inner.finish_adjoint(&mut grid)?;
        timings.prep_seconds = prep_seconds;
        timings.interp_seconds = interp_seconds;
        Ok(AdjointOutput {
            image,
            timings,
            grid_stats,
        })
    }

    /// Batched adjoint NuFFT: many value sets (e.g. receive coils) on one
    /// trajectory. Maps coordinates once and reuses one grid buffer, so
    /// per-batch overhead is gridding + FFT only.
    ///
    /// Coils execute sequentially through the supplied engine; for the
    /// decomposition-amortizing, pool-parallel path see
    /// [`Self::adjoint_batch_planned`].
    pub fn adjoint_batch(
        &self,
        coords: &[[f64; D]],
        batches: &[&[Complex<T>]],
        gridder: &dyn Gridder<T, D>,
    ) -> Result<Vec<AdjointOutput<T>>> {
        Self::check_finite(coords)?;
        let _span = telemetry::span!("nufft.adjoint_batch", {
            dim: D,
            m: coords.len(),
            coils: batches.len()
        });
        let g = self.inner.params.grid;
        let mapped = self.inner.map_coords(coords);
        let mut grid = vec![Complex::<T>::zeroed(); g.pow(D as u32)];
        let mut out = Vec::with_capacity(batches.len());
        for values in batches {
            if values.len() != coords.len() {
                return Err(Error::Data(format!(
                    "batch has {} values for {} coordinates",
                    values.len(),
                    coords.len()
                )));
            }
            grid.fill(Complex::zeroed());
            let t1 = Instant::now();
            let grid_stats = gridder.grid(
                &self.inner.params,
                &self.inner.lut,
                &mapped,
                values,
                &mut grid,
            )?;
            let interp_seconds = t1.elapsed().as_secs_f64();
            let (image, mut timings) = self.inner.finish_adjoint(&mut grid)?;
            timings.interp_seconds = interp_seconds;
            out.push(AdjointOutput {
                image,
                timings,
                grid_stats,
            });
        }
        Ok(out)
    }

    /// Precompute the per-sample window decomposition for a trajectory.
    ///
    /// This runs the map → quantize → decompose stage (§III) exactly once
    /// per sample; the result can then drive any number of
    /// [`Self::adjoint_batch_planned`] and [`Self::forward_planned`] calls
    /// without repeating that work. Both expand each sample's windows with
    /// [`expand_windows`], the function the unplanned engines use. The
    /// scatter visits grid points in the same order as
    /// [`crate::gridding::SerialGridder`], and the gather sums them in the
    /// same order as [`crate::interp::interpolate`], so planned outputs
    /// are bitwise identical to the unplanned serial ones.
    pub fn plan_trajectory(&self, coords: &[[f64; D]]) -> Result<PlannedTrajectory<D>> {
        Self::check_finite(coords)?;
        let _span = telemetry::span!("nufft.plan_trajectory", { dim: D, m: coords.len() });
        let t0 = Instant::now();
        let p = &self.inner.params;
        let dec = Decomposer::new(p);
        let g = p.grid as f64;
        // The same `u = (ν mod 1)·G` as `map_coords`, without the
        // intermediate buffer, collected straight into the shared slice
        // (one allocation, no copy out of a `Vec`).
        let decomps: Arc<[[DimDecomp; D]]> = coords
            .iter()
            .map(|c| dec.decompose_sample(&core::array::from_fn(|d| c[d].rem_euclid(1.0) * g)))
            .collect();
        Ok(PlannedTrajectory {
            decomps,
            grid: p.grid,
            width: p.width,
            table_oversampling: p.table_oversampling,
            plan_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// Check a planned trajectory was built against this plan's geometry.
    fn check_traj(&self, traj: &PlannedTrajectory<D>) -> Result<()> {
        let p = &self.inner.params;
        let planned = (traj.grid, traj.width, traj.table_oversampling);
        let ours = (p.grid, p.width, p.table_oversampling);
        if planned != ours {
            return Err(Error::Config(format!(
                "planned trajectory (G, W, L) = {planned:?} does not match plan {ours:?}"
            )));
        }
        Ok(())
    }

    /// Batched adjoint NuFFT over a planned trajectory: every coil's
    /// samples stream through the cached window decomposition on the
    /// persistent [`WorkerPool`], scattering into arena-recycled grid
    /// buffers.
    ///
    /// A batch of several coils runs one coil per job, which scatters and
    /// finishes (FFT + de-apodization) that coil on its worker, and so
    /// does a one-coil batch of fewer than 2^19 kernel accumulations
    /// (`M·W^D`). A larger one-coil batch on a pool of more than one
    /// worker splits the coil's scatter instead: job `b` of
    /// `B = min(workers, G)` owns rows `[b·G/B, (b+1)·G/B)` of the slowest
    /// grid axis and adds only the window points on them, and the calling
    /// thread copies the bands into one grid and finishes it.
    ///
    /// Each coil's image is bitwise identical to
    /// `self.adjoint(coords, coil, &SerialGridder)` on any pool, because
    /// every grid point is written by one job, which expands the same
    /// windows and consumes them in sample order.
    /// `timings.prep_seconds` is zero here — the mapping/decomposition
    /// cost lives in [`PlannedTrajectory::plan_seconds`], paid once — and
    /// a split coil's `timings.interp_seconds` runs from dispatch to the
    /// merged grid.
    pub fn adjoint_batch_planned(
        &self,
        traj: &PlannedTrajectory<D>,
        batches: &[&[Complex<T>]],
    ) -> Result<Vec<AdjointOutput<T>>> {
        self.adjoint_batch_planned_with(WorkerPool::global(), traj, batches)
    }

    /// One coil's [`Self::adjoint_batch_planned`]: the single adjoint of
    /// `values` over `traj`, the production scatter of every one-image
    /// caller.
    pub(crate) fn adjoint_planned(
        &self,
        traj: &PlannedTrajectory<D>,
        values: &[Complex<T>],
    ) -> Result<AdjointOutput<T>> {
        self.adjoint_batch_planned(traj, &[values])?
            .pop()
            .ok_or_else(|| Error::Execution("planned adjoint returned no image".into()))
    }

    /// [`Self::adjoint_batch_planned`] with the jobs on `pool`.
    fn adjoint_batch_planned_with(
        &self,
        pool: &WorkerPool,
        traj: &PlannedTrajectory<D>,
        batches: &[&[Complex<T>]],
    ) -> Result<Vec<AdjointOutput<T>>> {
        self.check_traj(traj)?;
        let m = traj.len();
        for (c, values) in batches.iter().enumerate() {
            if values.len() != m {
                return Err(Error::Data(format!(
                    "coil {c} has {} values for {m} planned samples",
                    values.len()
                )));
            }
        }
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let _span = telemetry::span!("nufft.adjoint_batch_planned", {
            dim: D,
            m: m,
            coils: batches.len()
        });
        let split = pool.size() > 1 && self.kernel_accumulations(m) >= ROW_BAND_MIN_ACCUMULATIONS;
        match batches {
            [values] if split => Ok(vec![self.adjoint_banded(pool, traj, values)?]),
            _ => self.adjoint_coil_jobs(pool, traj, batches),
        }
    }

    /// One coil per pooled job: job `c` scatters coil `c` into a grid
    /// from its worker's arena, finishes it there and parks the grid
    /// again.
    fn adjoint_coil_jobs(
        &self,
        pool: &WorkerPool,
        traj: &PlannedTrajectory<D>,
        batches: &[&[Complex<T>]],
    ) -> Result<Vec<AdjointOutput<T>>> {
        let g = self.inner.params.grid;
        let npoints = g.pow(D as u32);
        let m = traj.len();
        let inner = Arc::clone(&self.inner);
        let decomps = Arc::clone(&traj.decomps);
        let dec = Decomposer::new(&self.inner.params);
        let coils: Vec<Arc<[Complex<T>]>> = batches.iter().map(|b| Arc::from(*b)).collect();
        let finished = pool.map(ADJOINT_LABEL, batches.len(), move |c, arena| {
            let _coil_span = telemetry::span!("nufft.coil_adjoint", { coil: c, m: m });
            faultpoint!(crate::fault::NUFFT_COIL);
            let mut grid = arena.take_vec(keys::COIL_GRID, npoints, Complex::<T>::zeroed());
            let t1 = Instant::now();
            // Its own loop, not `scatter_planned` over a band of every
            // row: in traced `cg_sense` pairs that made the eight-coil
            // SENSE adjoint 0.3–6.3 ms slower in 8 of 8 rounds.
            let (g, w) = (inner.params.grid, inner.params.width);
            let mut scattered = true;
            let mut wins = [DimWindow::default(); D];
            for (i, (dds, &v)) in decomps.iter().zip(coils[c].iter()).enumerate() {
                if i & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
                    scattered = false;
                    break;
                }
                expand_windows(&dec, &inner.lut, dds, &mut wins);
                scatter_rowmajor(g, w, &wins, v, &mut grid);
            }
            let interp_seconds = t1.elapsed().as_secs_f64();
            let finished = if scattered {
                inner.finish_adjoint(&mut grid).map(|(image, mut timings)| {
                    timings.interp_seconds = interp_seconds;
                    (image, timings)
                })
            } else {
                // Cooperative cancellation: the coil stopped mid-gridding
                // and skips the FFT/de-apodization; its partial grid is
                // recycled like any other buffer.
                Err(Error::Budget(format!("coil {c} cancelled mid-gridding")))
            };
            arena.give_vec(keys::COIL_GRID, grid);
            finished
        })?;
        finished
            .into_iter()
            .map(|r| r.map(|(image, timings)| self.planned_output(m, image, timings)))
            .collect()
    }

    /// One coil split across the pool: job `b` of `B = min(workers, G)`
    /// scatters the coil onto the rows of band `b`. Band 0 owns row 0
    /// onward, so it scatters in place into a full grid from its worker's
    /// arena; every other band fills a slab of just its rows. The calling
    /// thread copies the slabs into the grid in band order, finishes it,
    /// and gives every buffer back to the arena of the worker whose job
    /// produced it.
    fn adjoint_banded(
        &self,
        pool: &WorkerPool,
        traj: &PlannedTrajectory<D>,
        values: &[Complex<T>],
    ) -> Result<AdjointOutput<T>> {
        let g = self.inner.params.grid;
        let row_len = g.pow(D as u32 - 1);
        let nbands = pool.size().min(g);
        let m = traj.len();
        let inner = Arc::clone(&self.inner);
        let decomps = Arc::clone(&traj.decomps);
        let dec = Decomposer::new(&self.inner.params);
        let values: Arc<[Complex<T>]> = Arc::from(values);
        let t1 = Instant::now();
        let mut bands = pool.map(ADJOINT_LABEL, nbands, move |b, arena| {
            let band = RowBand::nth(b, nbands, g);
            let _band_span = telemetry::span!("nufft.band_adjoint", {
                band: b,
                lo: band.lo,
                rows: band.len,
                m: m
            });
            faultpoint!(crate::fault::NUFFT_COIL);
            let rows = if b == 0 { g } else { band.len as usize };
            let mut buf = arena.take_vec(keys::COIL_GRID, rows * row_len, Complex::<T>::zeroed());
            let done = scatter_planned(&dec, &inner.lut, &decomps, &values, band, &mut buf);
            (buf, done)
        })?;
        let cancelled = bands.iter().any(|&(_, done)| !done);
        let (mut grid, _) = bands.remove(0);
        for (b, (slab, _)) in (1..).zip(bands) {
            let start = RowBand::nth(b, nbands, g).lo as usize * row_len;
            grid[start..start + slab.len()].copy_from_slice(&slab);
            pool.restore(b, keys::COIL_GRID, slab);
        }
        let interp_seconds = t1.elapsed().as_secs_f64();
        let finished = if cancelled {
            Err(Error::Budget("coil 0 cancelled mid-gridding".into()))
        } else {
            self.inner.finish_adjoint(&mut grid)
        };
        pool.restore(0, keys::COIL_GRID, grid);
        let (image, mut timings) = finished?;
        timings.interp_seconds = interp_seconds;
        Ok(self.planned_output(m, image, timings))
    }

    /// The kernel accumulations a scatter of `m` samples does: `M·W^D`.
    fn kernel_accumulations(&self, m: usize) -> u64 {
        m as u64 * (self.inner.params.width as u64).pow(D as u32)
    }

    /// One planned adjoint's output: its image and stage times, with the
    /// counters every planned scatter reports (`M` samples, `M·W^D`
    /// accumulations, no boundary checks).
    fn planned_output(
        &self,
        m: usize,
        image: Vec<Complex<T>>,
        timings: StageTimings,
    ) -> AdjointOutput<T> {
        AdjointOutput {
            image,
            timings,
            grid_stats: GridStats {
                samples: m,
                samples_processed: m,
                boundary_checks: 0,
                kernel_accumulations: self.kernel_accumulations(m),
                presort_seconds: 0.0,
                gridding_seconds: timings.interp_seconds,
            },
        }
    }

    /// The adjoint NuFFT's post-gridding stages: uniform FFT over an
    /// already-gridded oversampled buffer, then extraction and
    /// de-apodization, both serially on the calling thread.
    ///
    /// This is the host-side half of an accelerator integration (§IV
    /// "System Integration"): JIGSAW streams back the gridded target grid
    /// and the host completes the NuFFT. `grid` is consumed as scratch.
    pub fn finish_adjoint(
        &self,
        grid: &mut [Complex<T>],
    ) -> Result<(Vec<Complex<T>>, StageTimings)> {
        self.inner.finish_adjoint(grid)
    }

    /// Forward NuFFT: `[N; D]` image → non-uniform samples. Plans the
    /// coordinates ([`Self::plan_trajectory`]) and runs
    /// [`Self::forward_planned`] over them; `timings.prep_seconds` is the
    /// planning time.
    pub fn forward(&self, image: &[Complex<T>], coords: &[[f64; D]]) -> Result<ForwardOutput<T>> {
        let traj = self.plan_trajectory(coords)?;
        let mut out = self.forward_planned(&traj, image)?;
        out.timings.prep_seconds = traj.plan_seconds;
        Ok(out)
    }

    /// Forward NuFFT over a planned trajectory, the production gather:
    /// pre-apodize and embed `image` into the oversampled grid and FFT it,
    /// both serially on the calling thread, then gather the samples in
    /// one chunk per job of the global pool, each expanding its samples'
    /// windows from the stored decompositions.
    ///
    /// Every sample's gather is independent and sums its window points in
    /// the order [`crate::interp::interpolate`] does, so the output is
    /// bitwise identical to that serial gather on any pool.
    /// `timings.prep_seconds` is zero here — the mapping/decomposition
    /// cost lives in [`PlannedTrajectory::plan_seconds`], paid once.
    pub fn forward_planned(
        &self,
        traj: &PlannedTrajectory<D>,
        image: &[Complex<T>],
    ) -> Result<ForwardOutput<T>> {
        self.forward_planned_with(WorkerPool::global(), traj, image)
    }

    /// [`Self::forward_planned`] with the gather jobs on `pool`.
    fn forward_planned_with(
        &self,
        pool: &WorkerPool,
        traj: &PlannedTrajectory<D>,
        image: &[Complex<T>],
    ) -> Result<ForwardOutput<T>> {
        self.check_traj(traj)?;
        let n = self.inner.cfg.n;
        let g = self.inner.params.grid;
        if image.len() != n.pow(D as u32) {
            return Err(Error::Data(format!(
                "image has {} pixels, expected {}^{}",
                image.len(),
                n,
                D
            )));
        }
        let m = traj.len();
        let _span = telemetry::span!("nufft.forward", { dim: D, m: m });
        let t0 = Instant::now();
        let mut grid = vec![Complex::<T>::zeroed(); g.pow(D as u32)];
        self.inner.embed_apodized(image, &mut grid);
        let apod_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        {
            let _fft_span = telemetry::span!("fft.process", { points: grid.len() });
            self.inner.fft.process(&mut grid, Direction::Forward);
        }
        let fft_seconds = t1.elapsed().as_secs_f64();

        // Job `j` gathers samples `[j·M/J, (j+1)·M/J)` from the shared
        // grid; each sample's gather is independent, so the split never
        // changes a bit.
        let t2 = Instant::now();
        let njobs = pool.size().min(m);
        let inner = Arc::clone(&self.inner);
        let decomps = Arc::clone(&traj.decomps);
        let dec = Decomposer::new(&self.inner.params);
        let grid = Arc::new(grid);
        let chunks = pool.map("nufft.forward", njobs, move |j, _arena| {
            let (g, w) = (inner.params.grid, inner.params.width);
            let mut wins = [DimWindow::default(); D];
            decomps[j * m / njobs..(j + 1) * m / njobs]
                .iter()
                .map(|dds| {
                    expand_windows(&dec, &inner.lut, dds, &mut wins);
                    gather_from_windows(&grid, g, w, &wins)
                })
                .collect::<Vec<_>>()
        })?;
        let samples = chunks.concat();
        let interp_seconds = t2.elapsed().as_secs_f64();

        Ok(ForwardOutput {
            samples,
            timings: StageTimings {
                prep_seconds: 0.0,
                interp_seconds,
                fft_seconds,
                apod_seconds,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::{SerialGridder, SliceDiceGridder};
    use crate::metrics::rel_l2;
    use crate::nudft::{adjoint_nudft, forward_nudft};
    use jigsaw_num::C64;

    fn test_coords(m: usize, seed: u64) -> Vec<[f64; 2]> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64 - 0.5
        };
        (0..m).map(|_| [next(), next()]).collect()
    }

    fn test_values(m: usize, seed: u64) -> Vec<C64> {
        let mut s = seed | 3;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64 - 0.5
        };
        (0..m).map(|_| C64::new(next(), next())).collect()
    }

    #[test]
    fn adjoint_matches_nudft_exact_weights() {
        // With exact (non-LUT) kernel weights, accuracy is limited only by
        // the Kaiser-Bessel aliasing error (~1e-6 for W = 6, sigma = 2).
        let n = 32;
        let m = 200;
        let coords = test_coords(m, 1);
        let values = test_values(m, 2);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let out = plan
            .adjoint(&coords, &values, &crate::gridding::ExactGridder)
            .unwrap();
        let exact = adjoint_nudft(n, &coords, &values, None);
        let err = rel_l2(&out.image, &exact);
        assert!(err < 2e-5, "adjoint NuFFT error vs NuDFT: {err}");
    }

    #[test]
    fn adjoint_lut_error_bounded_and_shrinks_with_l() {
        // LUT gridding quantizes coordinates to 1/L of a grid cell; the
        // worst-case phase error at the image edge is pi/(2*sigma*L).
        let n = 32;
        let coords = test_coords(150, 1);
        let values = test_values(150, 2);
        let exact = adjoint_nudft(n, &coords, &values, None);
        let mut errs = Vec::new();
        for l in [32usize, 256] {
            let mut cfg = NufftConfig::with_n(n);
            cfg.table_oversampling = l;
            let plan = NufftPlan::<f64, 2>::new(cfg).unwrap();
            let out = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
            let err = rel_l2(&out.image, &exact);
            let bound = core::f64::consts::PI / (2.0 * 2.0 * l as f64);
            assert!(err < bound, "L={l}: err {err} exceeds bound {bound}");
            errs.push(err);
        }
        assert!(errs[1] < errs[0] / 4.0, "error must shrink ~1/L: {errs:?}");
    }

    #[test]
    fn forward_matches_nudft() {
        let n = 32;
        let image = test_values(n * n, 5);
        let coords = test_coords(150, 6);
        let mut cfg = NufftConfig::with_n(n);
        cfg.table_oversampling = 4096; // make LUT quantization negligible
        let plan = NufftPlan::<f64, 2>::new(cfg).unwrap();
        let out = plan.forward(&image, &coords).unwrap();
        let exact = forward_nudft(n, &image, &coords, None);
        let err = rel_l2(&out.samples, &exact);
        assert!(err < 3e-4, "forward NuFFT error vs NuDFT: {err}");

        // Default L = 32 stays within the quantization bound.
        let plan32 = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let out32 = plan32.forward(&image, &coords).unwrap();
        let err32 = rel_l2(&out32.samples, &exact);
        assert!(
            err32 < core::f64::consts::PI / (2.0 * 2.0 * 32.0),
            "{err32}"
        );
    }

    #[test]
    fn adjoint_engine_choice_does_not_change_result() {
        let n = 32;
        let coords = test_coords(100, 9);
        let values = test_values(100, 10);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let a = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
        let b = plan
            .adjoint(&coords, &values, &SliceDiceGridder::default())
            .unwrap();
        for (x, y) in a.image.iter().zip(&b.image) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn forward_adjoint_inner_product() {
        // ⟨A f, c⟩ ≈ ⟨f, Aᴴ c⟩ for the NuFFT pair (approximate adjoints —
        // both approximate the same NuDFT).
        let n = 16;
        let coords = test_coords(60, 20);
        let c = test_values(60, 21);
        let f = test_values(n * n, 22);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let af = plan.forward(&f, &coords).unwrap().samples;
        let ahc = plan.adjoint(&coords, &c, &SerialGridder).unwrap().image;
        let lhs: C64 = af.iter().zip(&c).map(|(a, b)| *a * b.conj()).sum();
        let rhs: C64 = f.iter().zip(&ahc).map(|(a, b)| *a * b.conj()).sum();
        assert!(
            (lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn beatty_low_oversampling_still_accurate() {
        // σ = 1.25 with a Beatty-widened kernel should stay accurate
        // (§II-B: smaller σ needs larger W).
        let n = 32;
        let coords = test_coords(100, 30);
        let values = test_values(100, 31);
        let mut cfg = NufftConfig::with_n(n);
        cfg.sigma = 1.25;
        cfg.width = crate::config::beatty_width(6, 1.25).min(8);
        cfg.table_oversampling = 1024;
        let plan = NufftPlan::<f64, 2>::new(cfg).unwrap();
        let out = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
        let exact = adjoint_nudft(n, &coords, &values, None);
        let err = rel_l2(&out.image, &exact);
        assert!(err < 2e-3, "σ=1.25 adjoint error: {err}");
    }

    #[test]
    fn coordinates_wrap_mod_one() {
        // ν and ν + 1 are the same frequency (torus).
        let n = 16;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let values = test_values(1, 40);
        let a = plan
            .adjoint(&[[0.3, -0.4]], &values, &SerialGridder)
            .unwrap();
        let b = plan
            .adjoint(&[[1.3, 0.6]], &values, &SerialGridder)
            .unwrap();
        for (x, y) in a.image.iter().zip(&b.image) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn timings_are_populated() {
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(32)).unwrap();
        let coords = test_coords(500, 50);
        let values = test_values(500, 51);
        let out = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
        assert!(out.timings.interp_seconds > 0.0);
        assert!(out.timings.fft_seconds > 0.0);
        assert!(out.timings.total() > 0.0);
        assert!(out.timings.interp_fraction() > 0.0 && out.timings.interp_fraction() < 1.0);
        assert_eq!(out.grid_stats.samples, 500);
    }

    #[test]
    fn adjoint_batch_matches_individual_calls() {
        let n = 16;
        let coords = test_coords(80, 70);
        let a = test_values(80, 71);
        let b = test_values(80, 72);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let batched = plan
            .adjoint_batch(&coords, &[&a, &b], &SerialGridder)
            .unwrap();
        let single_a = plan.adjoint(&coords, &a, &SerialGridder).unwrap();
        let single_b = plan.adjoint(&coords, &b, &SerialGridder).unwrap();
        for (x, y) in batched[0].image.iter().zip(&single_a.image) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
        }
        for (x, y) in batched[1].image.iter().zip(&single_b.image) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
        }
        // Mismatched batch length is rejected.
        let short = vec![jigsaw_num::C64::one(); 3];
        assert!(plan
            .adjoint_batch(&coords, &[&short], &SerialGridder)
            .is_err());
    }

    #[test]
    fn planned_adjoint_batch_is_bitwise_serial() {
        let n = 16;
        let coords = test_coords(90, 80);
        let coils: Vec<Vec<C64>> = (0..5).map(|i| test_values(90, 81 + i)).collect();
        let refs: Vec<&[C64]> = coils.iter().map(|c| c.as_slice()).collect();
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let traj = plan.plan_trajectory(&coords).unwrap();
        assert_eq!(traj.len(), 90);
        let batched = plan.adjoint_batch_planned(&traj, &refs).unwrap();
        assert_eq!(batched.len(), 5);
        for (c, coil) in coils.iter().enumerate() {
            let single = plan.adjoint(&coords, coil, &SerialGridder).unwrap();
            for (x, y) in batched[c].image.iter().zip(&single.image) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "coil {c}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "coil {c}");
            }
            assert_eq!(
                batched[c].grid_stats.kernel_accumulations,
                single.grid_stats.kernel_accumulations
            );
        }
    }

    #[test]
    fn planned_batch_edge_cases() {
        let n = 16;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        // Empty coil list → empty output.
        let coords = test_coords(10, 100);
        let traj = plan.plan_trajectory(&coords).unwrap();
        assert!(plan.adjoint_batch_planned(&traj, &[]).unwrap().is_empty());
        // Empty trajectory → no samples.
        let image = test_values(n * n, 101);
        let none = plan.plan_trajectory(&[]).unwrap();
        assert!(plan
            .forward_planned(&none, &image)
            .unwrap()
            .samples
            .is_empty());
        // Single-sample trajectory.
        let one = plan.plan_trajectory(&[[0.25, -0.125]]).unwrap();
        assert_eq!(one.len(), 1);
        let v = [C64::one()];
        let out = plan.adjoint_batch_planned(&one, &[&v]).unwrap();
        let single = plan.adjoint(&[[0.25, -0.125]], &v, &SerialGridder).unwrap();
        for (x, y) in out[0].image.iter().zip(&single.image) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
        }
        // Wrong-length coil rejected.
        let bad = vec![C64::one(); 3];
        assert!(plan.adjoint_batch_planned(&traj, &[&bad]).is_err());
        // Trajectory planned against a different geometry rejected.
        let other = NufftPlan::<f64, 2>::new(NufftConfig::with_n(32)).unwrap();
        let foreign = other.plan_trajectory(&coords).unwrap();
        assert!(plan.adjoint_batch_planned(&foreign, &[]).is_err());
        let mut cfg = NufftConfig::with_n(n);
        cfg.table_oversampling = 16;
        let coarse = NufftPlan::<f64, 2>::new(cfg).unwrap();
        let foreign = coarse.plan_trajectory(&coords).unwrap();
        assert!(plan.forward_planned(&foreign, &image).is_err());
        // Wrong-size image rejected.
        assert!(plan.forward_planned(&traj, &image[1..]).is_err());
        // Non-finite coordinates rejected at planning time.
        assert!(plan.plan_trajectory(&[[f64::NAN, 0.0]]).is_err());
    }

    #[test]
    fn planned_sample_is_eight_bytes_per_dimension() {
        // A plan stores each sample's decomposition, never its expanded
        // windows: 8 bytes per dimension whatever W is.
        fn stored<const D: usize>(coords: &[[f64; D]]) -> usize {
            let plan = NufftPlan::<f64, D>::new(NufftConfig::with_n(16)).unwrap();
            std::mem::size_of_val(&plan.plan_trajectory(coords).unwrap().decomps[0])
        }
        assert_eq!(stored(&[[0.1]]), 8);
        assert_eq!(stored(&[[0.1, -0.2]]), 16);
        assert_eq!(stored(&[[0.1, -0.2, 0.3]]), 24);
    }

    #[test]
    fn pooled_forward_gather_is_bitwise_serial_on_every_pool() {
        let n = 16;
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let image = test_values(n * n, 160);
        // 333 samples: 3 and 4 jobs split them unevenly.
        let coords = test_coords(333, 161);
        // The serial gather from the same embedded, transformed grid.
        let inner = &plan.inner;
        let mut grid = vec![C64::zeroed(); inner.params.grid.pow(2)];
        inner.embed_apodized(&image, &mut grid);
        inner.fft.process(&mut grid, Direction::Forward);
        let mapped = inner.map_coords(&coords);
        let mut want = vec![C64::zeroed(); coords.len()];
        crate::interp::interpolate(&inner.params, &inner.lut, &grid, &mapped, &mut want).unwrap();
        let traj = plan.plan_trajectory(&coords).unwrap();
        for workers in 1..=4 {
            let pool = WorkerPool::new(workers);
            let got = plan.forward_planned_with(&pool, &traj, &image).unwrap();
            assert!(bits_eq(&got.samples, &want), "{workers} workers");
            assert_eq!(pool.worker_job_counts(), vec![1; workers]);
        }
    }

    #[test]
    fn rejects_bad_data() {
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(16)).unwrap();
        assert!(plan.adjoint(&[[0.0, 0.0]], &[], &SerialGridder).is_err());
        assert!(plan
            .adjoint(&[[f64::NAN, 0.0]], &[C64::one()], &SerialGridder)
            .is_err());
        let bad_image = vec![C64::zeroed(); 7];
        assert!(plan.forward(&bad_image, &[[0.0, 0.0]]).is_err());
    }

    #[test]
    fn f32_plan_reasonable_accuracy() {
        let n = 32;
        let coords = test_coords(100, 60);
        let values64 = test_values(100, 61);
        let values32: Vec<jigsaw_num::C32> = values64
            .iter()
            .map(|v| jigsaw_num::C32::from_c64(*v))
            .collect();
        let plan = NufftPlan::<f32, 2>::new(NufftConfig::with_n(n)).unwrap();
        let out = plan.adjoint(&coords, &values32, &SerialGridder).unwrap();
        let exact = adjoint_nudft(n, &coords, &values64, None);
        let out64: Vec<C64> = out.image.iter().map(|z| z.to_c64()).collect();
        let err = rel_l2(&out64, &exact);
        // Bounded by LUT coordinate quantization at L = 32, not by f32.
        assert!(err < 0.02, "f32 adjoint error: {err}");
    }

    fn bits_eq(a: &[C64], b: &[C64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Pools of 1, 2, 3, 4 and 8 workers. The row bands follow the pool
    /// size, so the property pins its pools instead of taking the global
    /// one, which a 1-CPU host sizes at one.
    fn band_pools() -> Vec<WorkerPool> {
        [1, 2, 3, 4, 8].map(WorkerPool::new).into()
    }

    /// Samples on every row of the slowest axis at quarter-row offsets,
    /// so every window base occurs (each band's first and last touching
    /// base and the first one past it among them), plus samples within
    /// half a row of the torus seam (`u < 0.5` and `u > G − 0.5`). The
    /// faster axes are random.
    fn band_edge_coords<const D: usize>(n: usize, seed: u64) -> Vec<[f64; D]> {
        let g = (2 * n) as f64;
        let mut rows: Vec<f64> = (0..2 * n)
            .flat_map(|k| [0.0, 0.25, 0.5, 0.75].map(|d| (k as f64 + d) / g))
            .collect();
        rows.extend([0.2, 0.49, -0.2, -0.01].map(|u| u / g));
        let mut fast = test_coords(rows.len() * D, seed).into_iter().map(|c| c[1]);
        rows.into_iter()
            .map(|r| core::array::from_fn(|d| if d == 0 { r } else { fast.next().unwrap() }))
            .collect()
    }

    /// A one-coil adjoint split into one row band per worker of every
    /// pool of [`band_pools`] equals `adjoint(.., &SerialGridder)` bit for
    /// bit. The bands run whatever the problem size; the cutoff that
    /// selects them is pinned separately.
    fn assert_banded_is_serial<const D: usize>(
        n: usize,
        coords: &[[f64; D]],
        pools: &[WorkerPool],
    ) {
        let plan = NufftPlan::<f64, D>::new(NufftConfig::with_n(n)).unwrap();
        let values = test_values(coords.len(), n as u64 + D as u64);
        let want = plan.adjoint(coords, &values, &SerialGridder).unwrap();
        let traj = plan.plan_trajectory(coords).unwrap();
        for pool in pools {
            let what = format!("D = {D}, N = {n}, {} workers", pool.size());
            let got = plan
                .adjoint_banded(pool, &traj, &values)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(bits_eq(&got.image, &want.image), "{what}");
            assert_eq!(
                got.grid_stats.kernel_accumulations, want.grid_stats.kernel_accumulations,
                "{what}"
            );
        }
    }

    /// `m` random 3-D samples.
    fn coords_3d(m: usize, seed: u64) -> Vec<[f64; 3]> {
        let flat: Vec<f64> = test_coords(3 * m, seed).into_iter().map(|c| c[0]).collect();
        flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect()
    }

    /// The fewest samples whose scatter reaches the row-band cutoff.
    fn samples_at_cutoff<const D: usize>(plan: &NufftPlan<f64, D>) -> usize {
        let per_sample = plan.kernel_accumulations(1);
        ROW_BAND_MIN_ACCUMULATIONS.div_ceil(per_sample) as usize
    }

    /// A D = 3 plan on G = 16 with W = 8: 512 accumulations a sample, so
    /// 1024 samples land exactly on the 2^19 cutoff.
    fn cutoff_plan() -> NufftPlan<f64, 3> {
        let cfg = NufftConfig {
            width: 8,
            ..NufftConfig::with_n(8)
        };
        NufftPlan::new(cfg).unwrap()
    }

    #[test]
    fn one_coil_row_bands_are_bitwise_serial_on_every_pool() {
        // A band job that panics (on an out-of-band write, say) fails
        // the property: its re-run on the calling thread panics again,
        // and the call returns `Error::Execution`. The fault guard keeps
        // every test that arms a fault or turns the fallback off from
        // running meanwhile.
        let _lock = crate::fault::test_guard();
        let pools = band_pools();
        // D = 1, 2 and 3 over every window base. N = 8 gives G = 16:
        // 8 workers make 2-row bands, so a W = 6 window spans three or
        // four bands. N = 20 gives G = 40, which 3 bands do not divide.
        assert_banded_is_serial::<1>(16, &band_edge_coords(16, 120), &pools);
        assert_banded_is_serial::<2>(8, &band_edge_coords(8, 121), &pools);
        assert_banded_is_serial::<2>(20, &band_edge_coords(20, 122), &pools);
        assert_banded_is_serial::<3>(8, &band_edge_coords(8, 123), &pools);
        // Every slow-axis window within rows 1..=6 of G = 32: every band
        // above row 6 sees no sample.
        let narrow: Vec<[f64; 2]> = test_coords(60, 124)
            .into_iter()
            .enumerate()
            .map(|(i, c)| [0.1 + i as f64 * 2e-4, c[1]])
            .collect();
        assert_banded_is_serial::<2>(16, &narrow, &pools);
        // An empty trajectory gives an all-zero image on every pool.
        assert_banded_is_serial::<2>(16, &[], &pools);
    }

    #[test]
    fn one_coil_batches_split_into_row_bands_from_the_work_cutoff() {
        let _lock = crate::fault::test_guard();
        let pool = WorkerPool::new(2);
        let plan = cutoff_plan();
        let at = samples_at_cutoff(&plan);
        assert_eq!(plan.kernel_accumulations(at), ROW_BAND_MIN_ACCUMULATIONS);
        for (m, jobs) in [(at - 1, [1, 0]), (at, [1, 1])] {
            let coords = coords_3d(m, 150);
            let values = test_values(m, 151);
            let traj = plan.plan_trajectory(&coords).unwrap();
            let before = pool.worker_job_counts();
            let got = plan
                .adjoint_batch_planned_with(&pool, &traj, &[&values])
                .unwrap();
            let ran: Vec<u64> = pool
                .worker_job_counts()
                .iter()
                .zip(&before)
                .map(|(a, b)| a - b)
                .collect();
            assert_eq!(ran, jobs, "{m} samples");
            let want = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
            assert!(bits_eq(&got[0].image, &want.image), "{m} samples");
        }
        // On a one-worker pool a coil at the cutoff runs as one job.
        let solo = WorkerPool::new(1);
        let coords = coords_3d(at, 152);
        let values = test_values(at, 153);
        let traj = plan.plan_trajectory(&coords).unwrap();
        plan.adjoint_batch_planned_with(&solo, &traj, &[&values])
            .unwrap();
        assert_eq!(solo.worker_job_counts(), [1]);
    }

    #[test]
    fn cancelled_row_bands_are_a_budget_error_and_recycle_their_buffers() {
        let _lock = crate::fault::test_guard();
        let pool = WorkerPool::new(2);
        let plan = cutoff_plan();
        let m = samples_at_cutoff(&plan);
        let coords = coords_3d(m, 140);
        let values = test_values(m, 141);
        let traj = plan.plan_trajectory(&coords).unwrap();
        let flag = cancel::CancelFlag::new();
        flag.cancel();
        let cancelled = {
            let _scope = cancel::CancelScope::enter(Some(flag));
            plan.adjoint_batch_planned_with(&pool, &traj, &[&values])
        };
        assert!(matches!(cancelled, Err(Error::Budget(_))), "{cancelled:?}");
        // Both bands ran: band 0's full grid and band 1's half-grid slab
        // went back to their workers' arenas.
        assert_eq!(pool.worker_job_counts(), [1, 1]);
        let g3 = (2 * plan.config().n).pow(3);
        let bytes = std::mem::size_of::<C64>();
        assert_eq!(pool.resident_scratch_bytes(), (g3 + g3 / 2) * bytes);
        let again = plan
            .adjoint_batch_planned_with(&pool, &traj, &[&values])
            .unwrap();
        let want = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
        assert!(bits_eq(&again[0].image, &want.image));
        assert_eq!(pool.resident_scratch_bytes(), (g3 + g3 / 2) * bytes);
    }
}
