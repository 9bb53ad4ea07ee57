//! Binned (geometrically tiled) gridding — the Impatient-style baseline.
//!
//! "Binning breaks the uniform grid into small subsections, or tiles […]
//! The non-uniform samples are then pre-sorted into subsets, or bins,
//! corresponding to the tiles that they affect. […] Tile–bin pairs are
//! processed sequentially" (§II-C).
//!
//! The engine deliberately reproduces the three overheads the paper
//! attributes to binning:
//!
//! 1. **Presort pass** — a full pass over the samples before any gridding
//!    work (timed separately in [`GridStats::presort_seconds`]).
//! 2. **Duplicate processing** — a sample whose window straddles tile
//!    boundaries is placed in up to `2^d` bins and processed once per bin
//!    (Fig. 3a: 6 samples become 16 processed instances);
//!    [`GridStats::samples_processed`] counts the inflation.
//! 3. **Output-driven boundary checks** — the logical GPU model checks
//!    every point in a tile against every sample in its bin:
//!    `Σ_tiles |bin|·B^d` checks ([`GridStats::boundary_checks`]).
//!
//! Parallelism is across tile–bin pairs; each worker owns a disjoint range
//! of tiles in a tile-blocked scratch buffer (the software analogue of
//! "a single tile fits in the on-chip cache"), which is un-blocked into
//! the row-major output at the end.

use super::{sample_windows, validate_batch, worker_threads, Gridder};
use crate::config::GridParams;
use crate::decomp::Decomposer;
use crate::engine::{keys, WorkerPool};
use crate::lut::KernelLut;
use crate::stats::GridStats;
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::faultpoint;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// The binned gridder.
#[derive(Debug, Clone, Copy)]
pub struct BinnedGridder {
    /// Binning tile size `B` (power of two, `W ≤ B`, `B | G`). This is the
    /// *cache* tile of the binning scheme, independent of Slice-and-Dice's
    /// virtual tile `T`.
    pub bin_tile: usize,
    /// Worker thread count (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl Default for BinnedGridder {
    fn default() -> Self {
        Self {
            bin_tile: 16,
            threads: None,
        }
    }
}

impl BinnedGridder {
    /// Build the bins: for every sample, the set of tiles its window
    /// overlaps (1 or 2 per dimension since `W ≤ B`). Returns
    /// `bins[tile_linear] = sample indices` plus the processed-instance
    /// count.
    fn presort<const D: usize>(
        &self,
        dec: &Decomposer,
        coords: &[[f64; D]],
        tiles_per_dim: usize,
    ) -> (Vec<Vec<u32>>, usize) {
        let b = self.bin_tile as u32;
        let w = dec.width();
        let g = dec.grid();
        let ntiles = tiles_per_dim.pow(D as u32);
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); ntiles];
        let mut processed = 0usize;
        // Tile sets per dim (at most 2 entries each since W ≤ B).
        for (i, c) in coords.iter().enumerate() {
            let mut dim_tiles: [[u32; 2]; D] = [[0; 2]; D];
            let mut dim_count = [0usize; D];
            for d in 0..D {
                let dd = dec.decompose(dec.quantize(c[d]));
                // Window covers grid indices base − W + 1 ..= base (mod G).
                let hi_tile = dd.base / b;
                let lo_point = (dd.base + g - (w - 1)) % g;
                let lo_tile = lo_point / b;
                dim_tiles[d][0] = hi_tile;
                dim_count[d] = 1;
                if lo_tile != hi_tile {
                    dim_tiles[d][1] = lo_tile;
                    dim_count[d] = 2;
                }
            }
            // Cartesian product of the per-dim tile sets.
            let mut sel = [0usize; D];
            loop {
                let mut lin = 0usize;
                for d in 0..D {
                    lin = lin * tiles_per_dim + dim_tiles[d][sel[d]] as usize;
                }
                bins[lin].push(i as u32);
                processed += 1;
                // Odometer.
                let mut d = D;
                let mut done = false;
                loop {
                    if d == 0 {
                        done = true;
                        break;
                    }
                    d -= 1;
                    sel[d] += 1;
                    if sel[d] < dim_count[d] {
                        break;
                    }
                    sel[d] = 0;
                }
                if done {
                    break;
                }
            }
        }
        (bins, processed)
    }
}

impl<T: Float, const D: usize> Gridder<T, D> for BinnedGridder {
    fn name(&self) -> &'static str {
        "binned (Impatient-style)"
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
        assert!(
            self.bin_tile.is_power_of_two()
                && self.bin_tile >= p.width
                && p.grid.is_multiple_of(self.bin_tile),
            "bin tile must be a power of two with W ≤ B and B | G"
        );
        let dec = Decomposer::new(p);
        let g = p.grid;
        let b = self.bin_tile;
        let tiles_per_dim = g / b;
        let tile_points = b.pow(D as u32);
        let ntiles = tiles_per_dim.pow(D as u32);

        let _span = telemetry::span!("gridding.binned", {
            dim: D,
            m: coords.len(),
            bin_tile: b,
        });
        let t0 = Instant::now();
        let (bins, processed) = {
            let _presort_span = telemetry::span!("gridding.binned_presort", { m: coords.len() });
            self.presort(&dec, coords, tiles_per_dim)
        };
        let presort_seconds = t0.elapsed().as_secs_f64();

        let _pass_span = telemetry::span!("gridding.binned_pass", { ntiles: ntiles });
        let t1 = Instant::now();
        let nthreads = worker_threads(self.threads).min(ntiles.max(1));
        let tiles_per_thread = ntiles.div_ceil(nthreads);
        let njobs = ntiles.div_ceil(tiles_per_thread);
        let width = p.width;
        let mut total_accums = 0u64;
        let mut total_checks = 0u64;
        // Each job's tile block comes from (and returns to) the owning
        // pool worker's scratch arena.
        let pool = WorkerPool::global();
        let coords_shared: Arc<[[f64; D]]> = coords.into();
        let values_shared: Arc<[Complex<T>]> = values.into();
        let bins_shared = Arc::new(bins);
        let lut_shared = lut.clone();
        let bins_fallback = Arc::clone(&bins_shared);
        let (tx, rx) = channel();
        let run = pool.try_run(njobs, move |tid, arena| {
            faultpoint!(crate::fault::GRIDDING_CHUNK);
            let first_tile = tid * tiles_per_thread;
            let my_tiles = tiles_per_thread.min(ntiles - first_tile);
            let mut chunk = arena.take_vec(
                keys::BIN_TILES,
                my_tiles * tile_points,
                Complex::<T>::zeroed(),
            );
            let (a, c) = binned_tile_worker::<T, D>(
                &dec,
                &lut_shared,
                &coords_shared,
                &values_shared,
                &bins_shared,
                b,
                tiles_per_dim,
                tile_points,
                width,
                first_tile,
                &mut chunk,
            );
            let _ = tx.send((tid, chunk, a, c));
        });
        if run.is_err() {
            // Contained job panic. Tile chunks unblock into `out` only in
            // the drain below (never reached), so redo every tile in one
            // serial pass — bitwise identical, the partition only decides
            // ownership.
            crate::engine::note_serial_fallback("gridding.binned");
            drop(rx);
            let dec = Decomposer::new(p);
            let mut blocked = vec![Complex::<T>::zeroed(); g.pow(D as u32)];
            let (a, c) = binned_tile_worker::<T, D>(
                &dec,
                lut,
                coords,
                values,
                &bins_fallback,
                b,
                tiles_per_dim,
                tile_points,
                width,
                0,
                &mut blocked,
            );
            unblock_tile_chunk::<T, D>(g, b, tiles_per_dim, tile_points, 0, &blocked, out);
            total_accums = a;
            total_checks = c;
        } else {
            for _ in 0..njobs {
                let Ok((tid, chunk, a, c)) = rx.recv() else {
                    unreachable!("pooled binned job result missing after clean run");
                };
                unblock_tile_chunk::<T, D>(
                    g,
                    b,
                    tiles_per_dim,
                    tile_points,
                    tid * tiles_per_thread,
                    &chunk,
                    out,
                );
                pool.restore(tid, keys::BIN_TILES, chunk);
                total_accums += a;
                total_checks += c;
            }
        }
        let gridding_seconds = t1.elapsed().as_secs_f64();

        let stats = GridStats {
            samples: coords.len(),
            samples_processed: processed,
            boundary_checks: total_checks,
            kernel_accumulations: total_accums,
            presort_seconds,
            gridding_seconds,
            fft_seconds: 0.0,
            apod_seconds: 0.0,
        };
        stats.mirror("binned");
        stats
    }
}

/// One worker's job: process every tile–bin pair in its tile range into a
/// private tile-blocked chunk. The serial fallback runs it over every
/// tile, so the per-tile accumulation order (bin order, then window
/// order) never depends on the partition. Returns (accumulations,
/// checks).
#[allow(clippy::too_many_arguments)]
fn binned_tile_worker<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    bins: &[Vec<u32>],
    b: usize,
    tiles_per_dim: usize,
    tile_points: usize,
    width: usize,
    first_tile: usize,
    chunk: &mut [Complex<T>],
) -> (u64, u64) {
    let mut accums = 0u64;
    let mut checks = 0u64;
    for (slot, tile_buf) in chunk.chunks_mut(tile_points).enumerate() {
        let lin = first_tile + slot;
        let bin = &bins[lin];
        if bin.is_empty() {
            continue;
        }
        // Decode tile origin.
        let mut origin = [0u32; D];
        let mut rem = lin;
        for d in (0..D).rev() {
            origin[d] = ((rem % tiles_per_dim) * b) as u32;
            rem /= tiles_per_dim;
        }
        checks += bin.len() as u64 * tile_points as u64;
        for &si in bin {
            let (wins, _) = sample_windows(dec, lut, &coords[si as usize]);
            let v = values[si as usize];
            accums += scatter_into_tile::<T, D>(b, &origin, &wins, width, v, tile_buf);
        }
    }
    (accums, checks)
}

/// Un-block one worker's tile chunk into the row-major output. Tiles are
/// disjoint regions of the grid, so chunks can merge in any order without
/// changing a single bit of the result.
fn unblock_tile_chunk<T: Float, const D: usize>(
    g: usize,
    b: usize,
    tiles_per_dim: usize,
    tile_points: usize,
    first_tile: usize,
    chunk: &[Complex<T>],
    out: &mut [Complex<T>],
) {
    for (slot, tile_buf) in chunk.chunks(tile_points).enumerate() {
        let lin = first_tile + slot;
        let mut origin = [0usize; D];
        let mut rem = lin;
        for d in (0..D).rev() {
            origin[d] = (rem % tiles_per_dim) * b;
            rem /= tiles_per_dim;
        }
        // Iterate tile-local points.
        for (local, &v) in tile_buf.iter().enumerate() {
            let mut idx = 0usize;
            let mut rem = local;
            // Decode local coordinates (row-major within tile).
            let mut loc = [0usize; D];
            for d in (0..D).rev() {
                loc[d] = rem % b;
                rem /= b;
            }
            for d in 0..D {
                idx = idx * g + origin[d] + loc[d];
            }
            out[idx] += v;
        }
    }
}

/// Accumulate the window points of one sample that fall inside the tile
/// at `origin` (side `b`). Returns the number of accumulations.
fn scatter_into_tile<T: Float, const D: usize>(
    b: usize,
    origin: &[u32; D],
    wins: &[super::DimWindow; D],
    w: usize,
    value: Complex<T>,
    tile_buf: &mut [Complex<T>],
) -> u64 {
    // Per-dim: which window offsets land in this tile, and their local idx.
    let mut local: [[(usize, f64); super::MAX_W]; D] = [[(0, 0.0); super::MAX_W]; D];
    let mut counts = [0usize; D];
    for d in 0..D {
        for j in 0..w {
            let k = wins[d].idx[j];
            if k >= origin[d] && (k as usize) < origin[d] as usize + b {
                local[d][counts[d]] = ((k - origin[d]) as usize, wins[d].weight[j]);
                counts[d] += 1;
            }
        }
        if counts[d] == 0 {
            return 0;
        }
    }
    let mut accums = 0u64;
    // Odometer over the in-tile sub-window.
    let mut sel = [0usize; D];
    loop {
        let mut idx = 0usize;
        let mut wt = 1.0;
        for d in 0..D {
            let (li, lw) = local[d][sel[d]];
            idx = idx * b + li;
            wt *= lw;
        }
        tile_buf[idx] += value.scale(T::from_f64(wt));
        accums += 1;
        let mut d = D;
        loop {
            if d == 0 {
                return accums;
            }
            d -= 1;
            sel[d] += 1;
            if sel[d] < counts[d] {
                break;
            }
            sel[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::testutil::*;
    use crate::gridding::SerialGridder;
    use jigsaw_num::C64;

    fn run_both(
        p: &GridParams,
        m: usize,
        seed: u64,
        binner: &BinnedGridder,
    ) -> (Vec<C64>, Vec<C64>, GridStats) {
        let lut = KernelLut::from_params(p);
        let (coords, values) = sample_batch::<2>(m, p.grid as f64, seed);
        let n = p.grid * p.grid;
        let mut a = vec![C64::zeroed(); n];
        let mut b = vec![C64::zeroed(); n];
        SerialGridder.grid(p, &lut, &coords, &values, &mut a);
        let stats = binner.grid(p, &lut, &coords, &values, &mut b);
        (a, b, stats)
    }

    #[test]
    fn matches_serial_bitwise() {
        let p = small_params();
        for threads in [1usize, 3] {
            let binner = BinnedGridder {
                bin_tile: 16,
                threads: Some(threads),
            };
            let (a, b, _) = run_both(&p, 300, 5, &binner);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "threads={threads}");
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn matches_serial_bitwise_small_bin_tile() {
        let p = small_params();
        let binner = BinnedGridder {
            bin_tile: 8,
            threads: Some(2),
        };
        let (a, b, _) = run_both(&p, 200, 77, &binner);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
        }
    }

    #[test]
    fn straddling_samples_are_duplicated() {
        // A sample whose window spans four tiles lands in four bins
        // (Fig. 3a: "samples d and f must be placed in all four bins").
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let binner = BinnedGridder {
            bin_tile: 16,
            threads: Some(1),
        };
        // Place the sample right at a 4-tile corner: (16, 16).
        let coords = [[16.0, 16.0]];
        let values = [C64::one()];
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats = binner.grid(&p, &lut, &coords, &values, &mut out);
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.samples_processed, 4);
        assert!(stats.duplication_factor() > 3.9);
        // Interior sample: exactly one bin.
        let mut out2 = vec![C64::zeroed(); 64 * 64];
        let s2 = binner.grid(&p, &lut, &[[8.0, 8.0]], &values, &mut out2);
        assert_eq!(s2.samples_processed, 1);
    }

    #[test]
    fn presort_pass_is_measured() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(1000, 64.0, 9);
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats = BinnedGridder::default().grid(&p, &lut, &coords, &values, &mut out);
        assert!(stats.presort_seconds > 0.0, "presort must be timed");
    }

    #[test]
    fn boundary_check_model_counts_bin_times_tile() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let binner = BinnedGridder {
            bin_tile: 16,
            threads: Some(1),
        };
        // One interior sample: 1 bin × 16² points.
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats = binner.grid(&p, &lut, &[[8.0, 8.0]], &[C64::one()], &mut out);
        assert_eq!(stats.boundary_checks, 256);
    }

    #[test]
    fn total_mass_preserved_despite_duplication() {
        // Duplicated bin membership must NOT double-deposit values.
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let coords = [[16.0, 16.0]]; // 4-bin straddler
        let values = [C64::one()];
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        BinnedGridder::default().grid(&p, &lut, &coords, &values, &mut b);
        let ma: f64 = a.iter().map(|z| z.re).sum();
        let mb: f64 = b.iter().map(|z| z.re).sum();
        assert!((ma - mb).abs() < 1e-12);
    }

    #[test]
    fn three_dimensional_matches_serial() {
        let mut p = small_params();
        p.grid = 32;
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<3>(100, 32.0, 21);
        let n = 32usize.pow(3);
        let mut a = vec![C64::zeroed(); n];
        let mut b = vec![C64::zeroed(); n];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        BinnedGridder {
            bin_tile: 8,
            threads: Some(2),
        }
        .grid(&p, &lut, &coords, &values, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "bin tile")]
    fn rejects_bin_tile_smaller_than_window() {
        let p = small_params(); // W = 6
        let lut = KernelLut::from_params(&p);
        let mut out = vec![C64::zeroed(); 64 * 64];
        BinnedGridder {
            bin_tile: 4,
            threads: Some(1),
        }
        .grid(&p, &lut, &[[1.0, 1.0]], &[C64::one()], &mut out);
    }
}
