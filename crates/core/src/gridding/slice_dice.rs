//! Slice-and-Dice gridding — the paper's contribution (§III).
//!
//! The oversampled grid is split into virtual tiles of side `T`; the tiles
//! are conceptually *stacked* into "dice", so each of the `T^d` relative
//! positions — a *column* — appears once per tile. A sample's coordinate
//! decomposes (div/mod `T`) into a tile coordinate and a relative
//! coordinate; a two-part boundary check (forward mod-`T` distance `< W`,
//! wrap iff `rel < p`) determines, per column, whether the sample affects
//! it and in which tile. Because `W ≤ T`, each sample touches **at most
//! one point per column**, so column owners never interact: no presort, no
//! duplicate processing, `M·T^d` checks total.
//!
//! JIGSAW evaluates those `T^d` checks in parallel, one select unit per
//! pipeline. A CPU worker would evaluate them one after another, so the
//! software modes answer the same question from the other side: the
//! checks that pass are exactly the `W^d` points of the sample's window
//! ([`super::expand_windows`]), so a worker expands the window once and
//! keeps the points of the columns it owns. [`GridStats::boundary_checks`]
//! still reports the `M·T^d` logical checks.
//!
//! Four execution modes mirror the paper's software variants:
//!
//! * [`SliceDiceMode::Serial`] — one worker plays all columns (reference).
//! * [`SliceDiceMode::ColumnParallel`] — the pure output-driven model:
//!   workers own disjoint column sets of the dice, scan the whole sample
//!   stream, and never synchronize (JIGSAW's structure in software). Job
//!   `k` owns a contiguous range of row-axis pipeline indices — every grid
//!   row (plane in 3-D) whose index mod `T` lies in that range — and
//!   accumulates into a private row-major slab that the caller merges
//!   with whole-row adds.
//! * [`SliceDiceMode::BlockAtomic`] — the paper's *GPU* scheme: the sample
//!   stream is split across blocks, every block runs the column structure
//!   on its subset, and updates to the shared grid use atomic adds ("We
//!   use atomic addition instructions to ensure proper synchronization").
//! * [`SliceDiceMode::BlockReduce`] — same input split, but with private
//!   per-block grids merged deterministically at the end (an ablation on
//!   the atomic traffic).

use super::{
    expand_windows, for_each_point, scatter_rowmajor, validate_batch, worker_threads, DimWindow,
    Gridder,
};
use crate::config::GridParams;
use crate::decomp::Decomposer;
use crate::engine::{keys, WorkerPool};
use crate::lut::KernelLut;
use crate::stats::GridStats;
use crate::{Error, Result};
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::{cancel, faultpoint};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Samples between cooperative-cancellation checkpoints in the gridding
/// inner loops (power-of-two-minus-one mask). 1024 samples of window
/// accumulation cost tens of microseconds, so a cancelled job stops well
/// inside one chunk; the per-sample cost is one predictable mask test
/// (plus one relaxed load every 1024th sample — see
/// [`jigsaw_testkit::cancel::cancelled`]).
pub(crate) const CANCEL_CHECK_MASK: usize = 1023;

/// Execution strategy for [`SliceDiceGridder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SliceDiceMode {
    /// Single worker, dice-structured traversal.
    Serial,
    /// Output-driven: workers own disjoint dice columns (default).
    #[default]
    ColumnParallel,
    /// Input-driven blocks with atomic accumulation into the shared grid
    /// (the paper's GPU mapping). Non-deterministic accumulation order.
    BlockAtomic,
    /// Input-driven blocks with private grids and a deterministic merge.
    BlockReduce,
}

/// The Slice-and-Dice gridder.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceDiceGridder {
    /// Execution mode.
    pub mode: SliceDiceMode,
    /// Worker thread / block count (`None` = available parallelism).
    ///
    /// This controls the *partition* of work (and therefore, for the
    /// non-deterministic block modes, the reduction shape) — not how many
    /// OS threads exist: the partition's jobs are multiplexed onto the
    /// persistent global pool.
    pub threads: Option<usize>,
}

impl SliceDiceGridder {
    /// Convenience constructor.
    pub fn new(mode: SliceDiceMode) -> Self {
        Self {
            mode,
            threads: None,
        }
    }
}

impl<T: AtomicFloat, const D: usize> Gridder<T, D> for SliceDiceGridder {
    fn name(&self) -> &'static str {
        match self.mode {
            SliceDiceMode::Serial => "slice-and-dice (serial)",
            SliceDiceMode::ColumnParallel => "slice-and-dice (column-parallel)",
            SliceDiceMode::BlockAtomic => "slice-and-dice (block-atomic GPU model)",
            SliceDiceMode::BlockReduce => "slice-and-dice (block-reduce)",
        }
    }

    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> Result<GridStats> {
        validate_batch(p, coords, values, out)?;
        let _span = telemetry::span!("gridding.slice_dice", {
            dim: D,
            m: coords.len(),
            tile: p.tile,
        });
        let stats = match self.mode {
            SliceDiceMode::Serial => grid_rows(p, lut, coords, values, out, 1),
            SliceDiceMode::ColumnParallel => {
                grid_rows(p, lut, coords, values, out, worker_threads(self.threads))
            }
            SliceDiceMode::BlockAtomic => {
                grid_block_atomic(p, lut, coords, values, out, worker_threads(self.threads))
            }
            SliceDiceMode::BlockReduce => {
                grid_block_reduce(p, lut, coords, values, out, worker_threads(self.threads))
            }
        }?;
        stats.mirror("slice_dice");
        Ok(stats)
    }
}

/// The dice columns one job owns, as grid rows: every row of the
/// slowest axis (plane in 3-D, point in 1-D) whose index mod `T` — its
/// row-axis pipeline index — lies in `lo..hi`. The job's slab holds them
/// row-major in grid order, `hi − lo` rows per tile.
#[derive(Clone, Copy)]
struct OwnedRows {
    lo: u32,
    hi: u32,
}

impl OwnedRows {
    /// Slab row of grid row `k`, or `None` if another job owns it.
    #[inline]
    fn slot(self, dec: &Decomposer, k: u32) -> Option<usize> {
        let (q, r) = dec.split(k);
        (self.lo..self.hi)
            .contains(&r)
            .then(|| (q * (self.hi - self.lo) + r - self.lo) as usize)
    }

    /// Grid row held in slab row `s`.
    fn row(self, t: usize, s: usize) -> usize {
        let per_tile = (self.hi - self.lo) as usize;
        s / per_tile * t + self.lo as usize + s % per_tile
    }
}

/// One row owner's job: stream the *full* sample stream, expand each
/// sample's window once, and accumulate its points on owned rows into
/// `slab`. Every grid point receives the same weight products in sample
/// order whichever job owns it, or runs it again after a failure — the
/// bitwise-equality guarantee rests on this.
fn rows_worker<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    rows: OwnedRows,
    slab: &mut [Complex<T>],
) {
    let (g, w) = (dec.grid() as usize, dec.width() as usize);
    let mut wins = [DimWindow::default(); D];
    for (i, (c, &v)) in coords.iter().zip(values).enumerate() {
        if i & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            // Cooperative cancellation: stop mid-stream. The partial
            // slab is discarded by the budget owner; checkpoints never
            // panic (a panic would make the pool run the job again and
            // defeat the cancellation).
            return;
        }
        expand_windows(dec, lut, &dec.decompose_sample(c), &mut wins);
        let slot = |k| rows.slot(dec, k);
        for_each_point(g, w, &wins, slot, |idx, wt| {
            slab[idx] += v.scale(T::from_f64(wt));
        });
    }
}

/// Merge one job's slab into the row-major output with whole-row adds.
/// Jobs own disjoint rows, so slabs merge in any order without changing a
/// single bit of the result.
fn merge_rows<T: Float>(
    t: usize,
    row_len: usize,
    rows: OwnedRows,
    slab: &[Complex<T>],
    out: &mut [Complex<T>],
) {
    for (s, src) in slab.chunks(row_len).enumerate() {
        let k = rows.row(t, s);
        for (o, &v) in out[k * row_len..(k + 1) * row_len].iter_mut().zip(src) {
            *o += v;
        }
    }
}

/// Column-owned execution: split the `T` row-axis pipeline indices into
/// contiguous ranges, one per job; every job scans the full sample stream
/// and accumulates into its private rows. Deterministic (per-point order
/// = stream order) for any thread count: the partition only decides which
/// job owns a row, never the order of accumulations within it.
fn grid_rows<T: Float, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &mut [Complex<T>],
    nthreads: usize,
) -> Result<GridStats> {
    let dec = Decomposer::new(p);
    let t = p.tile;
    let row_len = p.grid.pow(D as u32 - 1);
    let rows_per_job = t.div_ceil(nthreads.clamp(1, t));
    let njobs = t.div_ceil(rows_per_job);
    let owned = move |k: usize| OwnedRows {
        lo: (k * rows_per_job) as u32,
        hi: ((k + 1) * rows_per_job).min(t) as u32,
    };
    let rows_len = p.tiles_per_dim() * row_len;

    let start = Instant::now();
    // Jobs run on the global pool; row slabs come from (and return to) the
    // owning worker's scratch arena.
    let pool = WorkerPool::global();
    let coords_shared: Arc<[[f64; D]]> = coords.into();
    let values_shared: Arc<[Complex<T>]> = values.into();
    let lut_shared = lut.clone();
    let slabs = pool.map("gridding.slice_dice.columns", njobs, move |k, arena| {
        faultpoint!(crate::fault::GRIDDING_CHUNK);
        let rows = owned(k);
        let len = (rows.hi - rows.lo) as usize * rows_len;
        let mut slab = arena.take_vec(keys::DICE_COLUMNS, len, Complex::<T>::zeroed());
        rows_worker(
            &dec,
            &lut_shared,
            &coords_shared,
            &values_shared,
            rows,
            &mut slab,
        );
        slab
    })?;
    for (k, slab) in slabs.into_iter().enumerate() {
        merge_rows(t, row_len, owned(k), &slab, out);
        pool.restore(k, keys::DICE_COLUMNS, slab);
    }
    Ok(slice_dice_stats(p, coords.len(), D, start))
}

/// Counters of every Slice-and-Dice mode: `M·T^d` logical select checks
/// (what JIGSAW's select units evaluate) and `M·W^d` accumulations.
fn slice_dice_stats(p: &GridParams, m: usize, d: usize, start: Instant) -> GridStats {
    GridStats {
        samples: m,
        samples_processed: m,
        boundary_checks: (m * p.tile.pow(d as u32)) as u64,
        kernel_accumulations: (m * p.width.pow(d as u32)) as u64,
        presort_seconds: 0.0,
        gridding_seconds: start.elapsed().as_secs_f64(),
    }
}

/// A shared grid of atomically updatable floats (split re/im planes).
///
/// Models the GPU `atomicAdd` the paper's Slice-and-Dice kernel uses when
/// multiple blocks write the shared output grid. Implemented with a
/// compare-exchange loop on the bit pattern — no unsafe code.
/// Atomic `f32` complex grid (re/im planes of `AtomicU32`).
pub struct AtomicGrid32 {
    re: Vec<AtomicU32>,
    im: Vec<AtomicU32>,
}

/// Atomic `f64` complex grid (re/im planes of `AtomicU64`).
pub struct AtomicGrid64 {
    re: Vec<AtomicU64>,
    im: Vec<AtomicU64>,
}

/// Floats that support lock-free atomic accumulation via bit-pattern CAS.
pub trait AtomicFloat: Float {
    /// The shared-grid representation for this precision (`Send + Sync`
    /// so pool jobs can share it via `Arc` across `'static` jobs).
    type Grid: Send + Sync + 'static;
    /// Allocate a zeroed atomic grid of `n` complex points.
    fn alloc_grid(n: usize) -> Self::Grid;
    /// `grid[idx] += v`, atomically per component.
    fn fetch_add(grid: &Self::Grid, idx: usize, v: Complex<Self>);
    /// Drain the grid into a complex buffer (`out[i] += grid[i]`).
    fn drain(grid: &Self::Grid, out: &mut [Complex<Self>]);
}

impl AtomicFloat for f32 {
    type Grid = AtomicGrid32;
    fn alloc_grid(n: usize) -> AtomicGrid32 {
        AtomicGrid32 {
            re: (0..n).map(|_| AtomicU32::new(0f32.to_bits())).collect(),
            im: (0..n).map(|_| AtomicU32::new(0f32.to_bits())).collect(),
        }
    }
    #[inline]
    fn fetch_add(grid: &AtomicGrid32, idx: usize, v: Complex<f32>) {
        cas_add_f32(&grid.re[idx], v.re);
        cas_add_f32(&grid.im[idx], v.im);
    }
    fn drain(grid: &AtomicGrid32, out: &mut [Complex<f32>]) {
        for (i, o) in out.iter_mut().enumerate() {
            o.re += f32::from_bits(grid.re[i].load(Ordering::Relaxed));
            o.im += f32::from_bits(grid.im[i].load(Ordering::Relaxed));
        }
    }
}

impl AtomicFloat for f64 {
    type Grid = AtomicGrid64;
    fn alloc_grid(n: usize) -> AtomicGrid64 {
        AtomicGrid64 {
            re: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            im: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }
    #[inline]
    fn fetch_add(grid: &AtomicGrid64, idx: usize, v: Complex<f64>) {
        cas_add_f64(&grid.re[idx], v.re);
        cas_add_f64(&grid.im[idx], v.im);
    }
    fn drain(grid: &AtomicGrid64, out: &mut [Complex<f64>]) {
        for (i, o) in out.iter_mut().enumerate() {
            o.re += f64::from_bits(grid.re[i].load(Ordering::Relaxed));
            o.im += f64::from_bits(grid.im[i].load(Ordering::Relaxed));
        }
    }
}

#[inline]
fn cas_add_f32(atom: &AtomicU32, v: f32) {
    if v == 0.0 {
        return;
    }
    let mut cur = atom.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + v).to_bits();
        match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[inline]
fn cas_add_f64(atom: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    let mut cur = atom.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// One input block's job for the atomic mode: grid a block of samples
/// into the shared atomic grid. Shared by the pooled jobs and the serial
/// redo after a failed job.
fn block_atomic_worker<T: AtomicFloat, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    shared: &T::Grid,
) {
    let (g, w) = (dec.grid() as usize, dec.width() as usize);
    let mut wins = [DimWindow::default(); D];
    for (i, (c, &v)) in coords.iter().zip(values).enumerate() {
        if i & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            return; // cancelled: partial grid discarded by the owner
        }
        expand_windows(dec, lut, &dec.decompose_sample(c), &mut wins);
        for_each_point(
            g,
            w,
            &wins,
            |k| Some(k as usize),
            |idx, wt| {
                T::fetch_add(shared, idx, v.scale(T::from_f64(wt)));
            },
        );
    }
}

/// Block-parallel execution with atomic accumulation (the GPU scheme).
///
/// The one parallel path that does not run through
/// [`WorkerPool::map`]: its jobs add into one shared grid, so a failed
/// job cannot be re-run by itself. After a contained job failure it
/// discards the shared grid and redoes every block in one serial pass
/// when the fallback is on, and returns `Error::Execution` when it is
/// off.
fn grid_block_atomic<T: AtomicFloat, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &mut [Complex<T>],
    nthreads: usize,
) -> Result<GridStats> {
    let dec = Decomposer::new(p);
    let npoints = p.grid.pow(D as u32);
    let start = Instant::now();
    let m = coords.len();
    let nthreads = nthreads.min(m.max(1)).max(1);
    let chunk = m.div_ceil(nthreads).max(1);
    let mut shared = Arc::new(T::alloc_grid(npoints));
    let pool = WorkerPool::global();
    let coords_shared: Arc<[[f64; D]]> = coords.into();
    let values_shared: Arc<[Complex<T>]> = values.into();
    let lut_shared = lut.clone();
    let shared_jobs = Arc::clone(&shared);
    let run = pool.try_run(nthreads, move |tid, _arena| {
        faultpoint!(crate::fault::GRIDDING_CHUNK);
        let lo = (tid * chunk).min(m);
        let hi = ((tid + 1) * chunk).min(m);
        block_atomic_worker::<T, D>(
            &dec,
            &lut_shared,
            &coords_shared[lo..hi],
            &values_shared[lo..hi],
            &shared_jobs,
        );
    });
    if let Err(failure) = run {
        const LABEL: &str = "gridding.slice_dice.atomic";
        if !crate::engine::serial_fallback_enabled() {
            return Err(Error::Execution(format!("{LABEL}: {failure}")));
        }
        // Surviving jobs accumulated into the shared atomic grid, so
        // discard it wholesale and redo all blocks in one serial pass
        // over a fresh grid.
        crate::engine::note_serial_fallback(LABEL);
        shared = Arc::new(T::alloc_grid(npoints));
        block_atomic_worker::<T, D>(&dec, lut, coords, values, &shared);
    }
    T::drain(&shared, out);
    Ok(slice_dice_stats(p, m, D, start))
}

/// One input block's job for the reduce mode: grid a block of samples
/// into a private partial grid.
fn block_reduce_worker<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    partial: &mut [Complex<T>],
) {
    let (g, w) = (dec.grid() as usize, dec.width() as usize);
    let mut wins = [DimWindow::default(); D];
    for (i, (c, &v)) in coords.iter().zip(values).enumerate() {
        if i & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            return; // cancelled: partial grid discarded by the owner
        }
        expand_windows(dec, lut, &dec.decompose_sample(c), &mut wins);
        scatter_rowmajor(g, w, &wins, v, partial);
    }
}

/// Block-parallel execution with private grids + deterministic merge.
///
/// The merge runs in block order (`tid` ascending), so for a fixed
/// `threads` request the result is reproducible, and a failed block's
/// re-run grids the same samples into the same partial — though
/// unlike the column modes it is *not* bitwise equal to serial, because
/// splitting the sample stream reassociates the floating-point sums.
fn grid_block_reduce<T: Float, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &mut [Complex<T>],
    nthreads: usize,
) -> Result<GridStats> {
    let dec = Decomposer::new(p);
    let npoints = p.grid.pow(D as u32);
    let m = coords.len();
    let nthreads = nthreads.min(m.max(1)).max(1);
    let chunk = m.div_ceil(nthreads);
    let start = Instant::now();
    let pool = WorkerPool::global();
    let coords_shared: Arc<[[f64; D]]> = coords.into();
    let values_shared: Arc<[Complex<T>]> = values.into();
    let lut_shared = lut.clone();
    let partials = pool.map("gridding.slice_dice.blocks", nthreads, move |tid, arena| {
        faultpoint!(crate::fault::GRIDDING_CHUNK);
        let r = (tid * chunk).min(m)..((tid + 1) * chunk).min(m);
        let mut partial = arena.take_vec(keys::PARTIAL_GRID, npoints, Complex::<T>::zeroed());
        block_reduce_worker::<T, D>(
            &dec,
            &lut_shared,
            &coords_shared[r.clone()],
            &values_shared[r],
            &mut partial,
        );
        partial
    })?;
    for (tid, partial) in partials.into_iter().enumerate() {
        for (o, &v) in out.iter_mut().zip(&partial) {
            *o += v;
        }
        pool.restore(tid, keys::PARTIAL_GRID, partial);
    }
    Ok(slice_dice_stats(p, m, D, start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::testutil::*;
    use crate::gridding::{BinnedGridder, SerialGridder};
    use jigsaw_num::C64;

    fn grids_match_bitwise(a: &[C64], b: &[C64], ctx: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im differs at {i}");
        }
    }

    #[test]
    fn serial_mode_matches_input_driven_serial() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(400, 64.0, 13);
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut a)
            .unwrap();
        SliceDiceGridder::new(SliceDiceMode::Serial)
            .grid(&p, &lut, &coords, &values, &mut b)
            .unwrap();
        grids_match_bitwise(&a, &b, "slice-dice serial");
    }

    #[test]
    fn column_parallel_matches_serial_any_thread_count() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(300, 64.0, 99);
        let mut reference = vec![C64::zeroed(); 64 * 64];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut reference)
            .unwrap();
        for threads in [1usize, 2, 7, 64] {
            let mut b = vec![C64::zeroed(); 64 * 64];
            SliceDiceGridder {
                mode: SliceDiceMode::ColumnParallel,
                threads: Some(threads),
            }
            .grid(&p, &lut, &coords, &values, &mut b)
            .unwrap();
            grids_match_bitwise(&reference, &b, &format!("threads={threads}"));
        }
    }

    #[test]
    fn block_reduce_matches_serial_within_fp_reassociation() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(500, 64.0, 3);
        let mut a = vec![C64::zeroed(); 64 * 64];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut a)
            .unwrap();
        let mut b = vec![C64::zeroed(); 64 * 64];
        SliceDiceGridder {
            mode: SliceDiceMode::BlockReduce,
            threads: Some(4),
        }
        .grid(&p, &lut, &coords, &values, &mut b)
        .unwrap();
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12 * scale.max(1.0));
        }
    }

    #[test]
    fn block_atomic_matches_serial_within_fp_reassociation() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(500, 64.0, 4);
        let mut a = vec![C64::zeroed(); 64 * 64];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut a)
            .unwrap();
        let mut b = vec![C64::zeroed(); 64 * 64];
        SliceDiceGridder {
            mode: SliceDiceMode::BlockAtomic,
            threads: Some(4),
        }
        .grid(&p, &lut, &coords, &values, &mut b)
        .unwrap();
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12 * scale.max(1.0));
        }
    }

    #[test]
    fn block_atomic_f32_matches_f64_reference() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values64) = sample_batch::<2>(300, 64.0, 8);
        let values32: Vec<jigsaw_num::C32> = values64
            .iter()
            .map(|v| jigsaw_num::C32::from_c64(*v))
            .collect();
        let mut a = vec![C64::zeroed(); 64 * 64];
        SerialGridder
            .grid(&p, &lut, &coords, &values64, &mut a)
            .unwrap();
        let mut b = vec![jigsaw_num::C32::zeroed(); 64 * 64];
        SliceDiceGridder {
            mode: SliceDiceMode::BlockAtomic,
            threads: Some(3),
        }
        .grid(&p, &lut, &coords, &values32, &mut b)
        .unwrap();
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - y.to_c64()).abs() < 1e-4 * scale.max(1.0));
        }
    }

    #[test]
    fn boundary_check_count_is_m_t_d() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(100, 64.0, 6);
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats = SliceDiceGridder::new(SliceDiceMode::Serial)
            .grid(&p, &lut, &coords, &values, &mut out)
            .unwrap();
        assert_eq!(stats.boundary_checks, 100 * 64); // M·T²
        assert_eq!(stats.kernel_accumulations, 100 * 36); // M·W²
        assert_eq!(stats.samples_processed, 100); // no duplication
        assert_eq!(stats.presort_seconds, 0.0); // no presort
    }

    #[test]
    fn three_dimensional_matches_serial() {
        let mut p = small_params();
        p.grid = 32;
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<3>(80, 32.0, 15);
        let n = 32usize.pow(3);
        let mut a = vec![C64::zeroed(); n];
        let mut b = vec![C64::zeroed(); n];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut a)
            .unwrap();
        SliceDiceGridder {
            mode: SliceDiceMode::ColumnParallel,
            threads: Some(3),
        }
        .grid(&p, &lut, &coords, &values, &mut b)
        .unwrap();
        grids_match_bitwise(&a, &b, "3d");
    }

    #[test]
    fn agrees_with_binned_engine() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(250, 64.0, 31);
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        BinnedGridder::default()
            .grid(&p, &lut, &coords, &values, &mut a)
            .unwrap();
        SliceDiceGridder::default()
            .grid(&p, &lut, &coords, &values, &mut b)
            .unwrap();
        grids_match_bitwise(&a, &b, "binned vs slice-dice");
    }
}
