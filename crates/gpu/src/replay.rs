//! Replay the gridding kernels' access patterns through the cache/SIMT
//! model.
//!
//! Both replays are driven by *real* sample data through the *real*
//! coordinate decomposition (`jigsaw_core::decomp`), so window positions,
//! tile straddles, wraps, and bin duplication are exact. The GPU-specific
//! modeling assumptions are:
//!
//! * resident thread blocks are interleaved round-robin at sample
//!   granularity (this is what lets concurrently-resident tile–bin pairs
//!   "evict one another's data from the cache", §II-C);
//! * accesses are counted at coalesced line-transaction granularity with
//!   reads and writes/atomics tracked separately — the reported "L2 hit
//!   rate" is the read hit rate, matching the profiler metric the paper
//!   quotes;
//! * lane efficiency counts active lanes over issued lanes per
//!   sample-step — the paper's "T/W threads will be unaffected — and thus
//!   idle" divergence argument, measured instead of asserted.

use crate::cache::{CacheConfig, CacheSim};
use crate::occupancy::{occupancy, KernelResources, SmConfig};
use jigsaw_core::config::GridParams;
use jigsaw_core::decomp::Decomposer;

/// Byte address map of the replayed kernels (disjoint regions).
const GRID_BASE: u64 = 0x4000_0000;
const SAMPLE_BASE: u64 = 0x8000_0000;
const LUT_BASE: u64 = 0xC000_0000;
const BIN_BASE: u64 = 0x1_0000_0000;
/// Complex f32 grid point.
const GRID_STRIDE: u64 = 8;
/// Coordinates (2 × f32) + complex f32 value.
const SAMPLE_STRIDE: u64 = 16;
/// Complex f32 LUT entry.
const LUT_STRIDE: u64 = 8;

/// Replay configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// L2 geometry.
    pub cache: CacheConfig,
    /// Concurrently resident thread blocks sharing the L2 (whole GPU).
    pub concurrent_blocks: usize,
    /// Impatient's binning tile side `B`.
    pub bin_tile: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::titan_xp_l2(),
            concurrent_blocks: 120, // 30 SMs × ~4 resident blocks
            bin_tile: 16,
        }
    }
}

/// Outcome of one kernel replay.
#[derive(Debug, Clone, Copy)]
pub struct GpuKernelStats {
    /// Kernel name.
    pub name: &'static str,
    /// Modeled L2 *read* hit rate in `[0, 1]` (the profiler-style metric
    /// the paper quotes).
    pub l2_hit_rate: f64,
    /// Hit rate of write/atomic traffic (tracked separately).
    pub write_hit_rate: f64,
    /// Active lanes / issued lanes in `[0, 1]` (SIMD efficiency).
    pub lane_efficiency: f64,
    /// Total L2 accesses replayed.
    pub l2_accesses: u64,
    /// On-the-fly weight-evaluation FLOPs (zero for LUT kernels).
    pub weight_flops: u64,
    /// SM occupancy from the kernel's resource footprint.
    pub occupancy: f64,
    /// Memory-level parallelism: mean distinct global-memory lines a
    /// block touches per sample-step — independent requests the memory
    /// system can overlap. §II-C: "binning['s] restriction of memory
    /// accesses to a single tile severely limits the available MLP".
    pub mlp: f64,
}

/// Replay the Impatient-style kernel: output-driven tile–bin pairs,
/// `B²`-thread blocks, tile staged in shared memory, Kaiser-Bessel
/// weights computed in-thread (~40 FLOPs per affected point).
pub fn replay_impatient(p: &GridParams, coords: &[[f64; 2]], cfg: &ReplayConfig) -> GpuKernelStats {
    let dec = Decomposer::new(p);
    let b = cfg.bin_tile as u32;
    let g = p.grid as u32;
    let w = p.width as u32;
    let tiles_per_dim = (p.grid / cfg.bin_tile) as u32;

    // Presort (host side; not part of the replayed traffic — the paper
    // charges it as a separate pass, which fig6 measures in software).
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); (tiles_per_dim * tiles_per_dim) as usize];
    let mut decs = Vec::with_capacity(coords.len());
    for (i, c) in coords.iter().enumerate() {
        let dy = dec.decompose(dec.quantize(c[0]));
        let dx = dec.decompose(dec.quantize(c[1]));
        decs.push((dy, dx));
        let mut dim_tiles = [[0u32; 2]; 2];
        let mut counts = [0usize; 2];
        for (d, dd) in [dy, dx].iter().enumerate() {
            let hi = dd.base / b;
            let lo = ((dd.base + g - (w - 1)) % g) / b;
            dim_tiles[d][0] = hi;
            counts[d] = 1;
            if lo != hi {
                dim_tiles[d][1] = lo;
                counts[d] = 2;
            }
        }
        for ty in 0..counts[0] {
            for tx in 0..counts[1] {
                let lin = dim_tiles[0][ty] * tiles_per_dim + dim_tiles[1][tx];
                bins[lin as usize].push(i as u32);
            }
        }
    }

    // Round-robin the resident tile–bin blocks.
    let mut cache = CacheSim::new(cfg.cache);
    let mut active_lanes: u64 = 0;
    let mut issued_lanes: u64 = 0;
    let mut weight_flops: u64 = 0;
    let block_lanes = (cfg.bin_tile * cfg.bin_tile) as u64;
    let mut mlp_lines: u64 = 0;
    let mut mlp_steps: u64 = 0;

    let work: Vec<(u32, &Vec<u32>)> = bins
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(lin, v)| (lin as u32, v))
        .collect();
    let mut resident: Vec<(usize, usize)> = Vec::new(); // (work idx, sample ptr)
    let mut next_block = 0usize;
    while next_block < work.len() && resident.len() < cfg.concurrent_blocks {
        resident.push((next_block, 0));
        next_block += 1;
    }
    while !resident.is_empty() {
        let mut slot = 0;
        while slot < resident.len() {
            let (wi, ptr) = resident[slot];
            let (lin, bin) = work[wi];
            if ptr >= bin.len() {
                // Tile write-back: read-modify-write every tile point,
                // coalesced per row (B points × 8 B = one 128 B line).
                let ty = lin / tiles_per_dim;
                let tx = lin % tiles_per_dim;
                for row in 0..b as u64 {
                    let addrs: Vec<u64> = (0..b as u64)
                        .map(|col| {
                            let gy = ty as u64 * b as u64 + row;
                            let gx = tx as u64 * b as u64 + col;
                            GRID_BASE + (gy * g as u64 + gx) * GRID_STRIDE
                        })
                        .collect();
                    cache.access_coalesced(&addrs); // RMW read
                    cache.access_coalesced_write(&addrs); // RMW write
                }
                // Write-back issues B independent row lines at once.
                mlp_lines += b as u64;
                mlp_steps += 1;
                // Retire and replace with the next queued block.
                if next_block < work.len() {
                    resident[slot] = (next_block, 0);
                    next_block += 1;
                    continue;
                } else {
                    resident.remove(slot);
                    continue;
                }
            }
            let sample = bin[ptr];
            resident[slot].1 += 1;
            // Bin-list index load + sample data load — the only global
            // traffic of a sample-step (accumulation stays in the tile's
            // shared memory): two independent lines in flight.
            cache.access(BIN_BASE + (lin as u64 * 262_144 + ptr as u64) * 4);
            cache.access(SAMPLE_BASE + sample as u64 * SAMPLE_STRIDE);
            mlp_lines += 2;
            mlp_steps += 1;
            // Boundary check on every tile point (the divergence source).
            issued_lanes += block_lanes;
            let (dy, dx) = decs[sample as usize];
            let ty = lin / tiles_per_dim;
            let tx = lin % tiles_per_dim;
            let mut active = 0u64;
            for j in 0..w {
                let ky = (dy.base + g - j) % g;
                if ky / b != ty {
                    continue;
                }
                for i in 0..w {
                    let kx = (dx.base + g - i) % g;
                    if kx / b == tx {
                        active += 1;
                    }
                }
            }
            active_lanes += active;
            // In-thread Kaiser-Bessel evaluation: ~40 FLOPs per active
            // point (sqrt + I0 polynomial per dimension).
            weight_flops += active * 40;
            slot += 1;
        }
    }

    GpuKernelStats {
        name: "Impatient-style (binned, on-the-fly weights)",
        l2_hit_rate: cache.hit_rate(),
        write_hit_rate: cache.write_hit_rate(),
        lane_efficiency: active_lanes as f64 / issued_lanes.max(1) as f64,
        l2_accesses: cache.hits()
            + cache.misses()
            + cache.write_counts().0
            + cache.write_counts().1,
        weight_flops,
        occupancy: occupancy(&SmConfig::pascal(), &KernelResources::impatient()),
        mlp: mlp_lines as f64 / mlp_steps.max(1) as f64,
    }
}

/// Replay the Slice-and-Dice GPU kernel: 64-thread blocks over the dice
/// columns, sample stream split across blocks, LUT weights, atomic RMW
/// to the shared row-major grid.
pub fn replay_slice_dice(
    p: &GridParams,
    coords: &[[f64; 2]],
    cfg: &ReplayConfig,
) -> GpuKernelStats {
    let dec = Decomposer::new(p);
    let g = p.grid as u32;
    let w = p.width as u32;
    let t = p.tile as u32;
    let l = p.table_oversampling as u64;
    let wl2 = (p.width * p.table_oversampling / 2) as u64;

    let m = coords.len();
    let nblocks = cfg.concurrent_blocks;
    let chunk = m.div_ceil(nblocks.max(1)).max(1);

    let mut cache = CacheSim::new(cfg.cache);
    let mut active_lanes: u64 = 0;
    let mut issued_lanes: u64 = 0;
    let block_lanes = (t * t) as u64;
    let mut mlp_lines: u64 = 0;
    let mut mlp_steps: u64 = 0;

    // Resident blocks process their chunks round-robin, one sample per
    // turn — interleaved exactly like the binned replay so the cache
    // pressure comparison is fair.
    let mut ptrs: Vec<usize> = (0..nblocks).map(|b| b * chunk).collect();
    let ends: Vec<usize> = (0..nblocks).map(|b| ((b + 1) * chunk).min(m)).collect();
    let mut remaining = nblocks;
    while remaining > 0 {
        remaining = 0;
        for blk in 0..nblocks {
            if ptrs[blk] >= ends[blk] {
                continue;
            }
            remaining += 1;
            let i = ptrs[blk];
            ptrs[blk] += 1;
            // Sample load (blocks stream disjoint, contiguous chunks).
            cache.access(SAMPLE_BASE + i as u64 * SAMPLE_STRIDE);
            let dy = dec.decompose(dec.quantize(coords[i][0]));
            let dx = dec.decompose(dec.quantize(coords[i][1]));
            issued_lanes += block_lanes;
            // Every affected lane issues two LUT reads and one grid
            // atomic; the warp coalescer merges same-line requests.
            let mut active = 0u64;
            let mut lut_addrs = Vec::with_capacity(2 * (w * w) as usize);
            let mut grid_addrs = Vec::with_capacity((w * w) as usize);
            for py in 0..t {
                let dist_y = dec.forward_distance(dec.rel_coord(&dy), py);
                if dist_y >= w {
                    continue;
                }
                let ty = dec.tile_for_pipeline(&dy, py);
                let t_y = dec.fold(dec.lut_index(dist_y, dy.phi2)) as u64;
                for px in 0..t {
                    let dist_x = dec.forward_distance(dec.rel_coord(&dx), px);
                    if dist_x >= w {
                        continue;
                    }
                    active += 1;
                    let tx = dec.tile_for_pipeline(&dx, px);
                    let t_x = dec.fold(dec.lut_index(dist_x, dx.phi2)) as u64;
                    lut_addrs.push(LUT_BASE + t_y.min(wl2) * LUT_STRIDE);
                    lut_addrs.push(LUT_BASE + t_x.min(wl2) * LUT_STRIDE);
                    let gy = (ty * t + py) as u64;
                    let gx = (tx * t + px) as u64;
                    grid_addrs.push(GRID_BASE + (gy * g as u64 + gx) * GRID_STRIDE);
                }
            }
            let lut_lines = cache.access_coalesced(&lut_addrs);
            let grid_lines = cache.access_coalesced_write(&grid_addrs);
            // All of this step's lines are independent (one sample's
            // scatter targets distinct dice columns): issuable in parallel.
            mlp_lines += 1 + lut_lines as u64 + grid_lines as u64;
            mlp_steps += 1;
            active_lanes += active;
            let _ = l;
        }
    }

    GpuKernelStats {
        name: "Slice-and-Dice (LUT weights, atomics)",
        l2_hit_rate: cache.hit_rate(),
        write_hit_rate: cache.write_hit_rate(),
        lane_efficiency: active_lanes as f64 / issued_lanes.max(1) as f64,
        l2_accesses: cache.hits()
            + cache.misses()
            + cache.write_counts().0
            + cache.write_counts().1,
        weight_flops: 0,
        occupancy: occupancy(&SmConfig::pascal(), &KernelResources::slice_dice()),
        mlp: mlp_lines as f64 / mlp_steps.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::kernel::KernelKind;
    use jigsaw_core::traj;

    fn setup(g: usize, m: usize) -> (GridParams, Vec<[f64; 2]>) {
        let p = GridParams {
            grid: g,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: KernelKind::Auto.resolve(6, 2.0),
        };
        let mut cyc = traj::radial_2d(m.div_ceil(128).max(1), 128, true);
        cyc.truncate(m);
        traj::shuffle(&mut cyc, 9);
        let coords = cyc
            .iter()
            .map(|c| {
                [
                    c[0].rem_euclid(1.0) * g as f64,
                    c[1].rem_euclid(1.0) * g as f64,
                ]
            })
            .collect();
        (p, coords)
    }

    #[test]
    fn slice_dice_beats_impatient_on_every_axis() {
        // §VI-A's four reasons, measured from the replay, at the paper's
        // grid size (1024² > the 3 MiB L2).
        let (p, coords) = setup(1024, 20_000);
        let cfg = ReplayConfig::default();
        let sd = replay_slice_dice(&p, &coords, &cfg);
        let imp = replay_impatient(&p, &coords, &cfg);
        // (1) LUT vs on-the-fly weights.
        assert_eq!(sd.weight_flops, 0);
        assert!(imp.weight_flops > 0);
        // (2) L2 hit rate.
        assert!(
            sd.l2_hit_rate > imp.l2_hit_rate + 0.15,
            "S&D {:.3} vs Impatient {:.3}",
            sd.l2_hit_rate,
            imp.l2_hit_rate
        );
        assert!(sd.l2_hit_rate > 0.9, "S&D hit rate {:.3}", sd.l2_hit_rate);
        // (3) Occupancy.
        assert!(sd.occupancy > 1.5 * imp.occupancy);
        // (4) SIMD lane efficiency / divergence.
        assert!(
            sd.lane_efficiency > 3.0 * imp.lane_efficiency,
            "S&D {:.3} vs Impatient {:.3}",
            sd.lane_efficiency,
            imp.lane_efficiency
        );
    }

    #[test]
    fn slice_dice_exposes_more_mlp() {
        // §II-C / §III: the stacked-tile layout "increases MLP".
        let (p, coords) = setup(512, 8_000);
        let cfg = ReplayConfig::default();
        let sd = replay_slice_dice(&p, &coords, &cfg);
        let imp = replay_impatient(&p, &coords, &cfg);
        assert!(
            sd.mlp > 2.0 * imp.mlp,
            "S&D MLP {:.1} vs Impatient {:.1}",
            sd.mlp,
            imp.mlp
        );
        // A sample's scatter spans ~W rows (+ sample + LUT lines).
        assert!(sd.mlp >= 6.0, "S&D MLP {:.1}", sd.mlp);
    }

    #[test]
    fn lane_efficiency_matches_analytic_model() {
        // S&D: W²/T² of lanes active; Impatient: W²/B² *averaged over the
        // duplicated bin memberships* (straddling samples are mostly
        // inactive in their secondary tiles).
        let (p, coords) = setup(256, 8_000);
        let cfg = ReplayConfig::default();
        let sd = replay_slice_dice(&p, &coords, &cfg);
        assert!((sd.lane_efficiency - 36.0 / 64.0).abs() < 1e-9);
        let imp = replay_impatient(&p, &coords, &cfg);
        // Upper bound W²/B²; lower because duplicated instances split the
        // same W² active points between bins.
        assert!(imp.lane_efficiency <= 36.0 / 256.0 + 1e-9);
        assert!(imp.lane_efficiency > 0.5 * 36.0 / 256.0);
    }

    #[test]
    fn impatient_duplication_shows_in_issued_work() {
        // The same workload issues more sample-steps under binning (one
        // per bin membership), visible as extra L2 traffic per sample.
        let (p, coords) = setup(256, 4_000);
        let cfg = ReplayConfig::default();
        let sd = replay_slice_dice(&p, &coords, &cfg);
        let imp = replay_impatient(&p, &coords, &cfg);
        // S&D transactions per sample are bounded and near-constant
        // (1 sample read + a few coalesced LUT lines + ≤ W·2 grid lines);
        // Impatient adds tile write-back traffic scaled by duplication.
        let sd_per = sd.l2_accesses as f64 / coords.len() as f64;
        assert!(
            (5.0..30.0).contains(&sd_per),
            "S&D transactions/sample {sd_per}"
        );
        let _ = imp;
    }

    #[test]
    fn more_concurrent_blocks_hurt_binned_hit_rate() {
        // "Different warps evict one another's data from the cache":
        // raising residency should not help Impatient, and with a small
        // cache it hurts.
        let (p, coords) = setup(512, 16_000);
        let small_cache = CacheConfig {
            capacity_bytes: 256 * 1024,
            line_bytes: 128,
            ways: 8,
        };
        let few = replay_impatient(
            &p,
            &coords,
            &ReplayConfig {
                cache: small_cache,
                concurrent_blocks: 4,
                bin_tile: 16,
            },
        );
        let many = replay_impatient(
            &p,
            &coords,
            &ReplayConfig {
                cache: small_cache,
                concurrent_blocks: 240,
                bin_tile: 16,
            },
        );
        assert!(
            many.l2_hit_rate <= few.l2_hit_rate + 0.01,
            "few {:.3} many {:.3}",
            few.l2_hit_rate,
            many.l2_hit_rate
        );
    }
}
