//! The JIGSAW 2-D machine: `T² = 64` four-stage fixed-point pipelines.
//!
//! §IV: "Each pipeline is split into four stages: select, weight lookup,
//! interpolation, and accumulate." One non-uniform sample is broadcast to
//! all pipelines per cycle; with `W ≤ T` each pipeline is hit by at most
//! one point per sample, and each pipeline owns a private accumulation
//! SRAM, so nothing ever stalls: runtime is `M + 12` cycles.
//!
//! Two execution modes:
//!
//! * [`Jigsaw2d::run`] — *functional*: processes one sample at a time
//!   through the full fixed-point datapath. Timing comes from the
//!   stall-free pipeline law.
//! * [`Jigsaw2d::run_cycle_accurate`] — advances explicit per-stage
//!   pipeline registers every cycle (select at `+4`, weight lookup at
//!   `+6`, interpolation at `+9`, accumulate at `+12`), asserting the
//!   single-writer-per-cycle property. Tests verify it produces
//!   bit-identical grids and exactly `M + 12` cycles — the law is
//!   *derived*, not assumed.

use crate::config::{JigsawConfig, CLOCK_HZ, OUTPUT_POINTS_PER_CYCLE, PIPELINE_DEPTH_2D};
use crate::hwlut::HwLut;
use crate::{Result, SimError};
use jigsaw_core::decomp::Decomposer;
use jigsaw_fixed::{CFx16, CFx32, Fx16};
use jigsaw_num::C64;
use std::collections::VecDeque;

/// One quantized input sample as it crosses the 128-bit DMA bus:
/// two 32-bit coordinates (units of `1/L`, torus `[0, G·L)`) and one
/// 32-bit complex value (16-bit Q1.15 components).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedSample2d {
    /// Quantized `[row, col]` coordinate.
    pub coord: [u32; 2],
    /// Complex sample value.
    pub value: CFx16<15>,
}

/// Operation counters for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Select-unit boundary checks (one per pipeline per sample).
    pub select_checks: u64,
    /// Weight-SRAM reads.
    pub lut_reads: u64,
    /// Complex weight-combine multiplies (weight-lookup stage).
    pub weight_muls: u64,
    /// Interpolation MACs (weight × sample products).
    pub interp_macs: u64,
    /// Accumulator SRAM read-modify-writes.
    pub accum_rmw: u64,
    /// Saturating-add clamp events (overflow diagnostics).
    pub saturations: u64,
}

/// Timing + instrumentation of one accelerator run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimReport {
    /// Samples streamed.
    pub samples: u64,
    /// Compute cycles (stream + pipeline drain).
    pub compute_cycles: u64,
    /// Cycles to stream the result grid back over the bus.
    pub readout_cycles: u64,
    /// Operation counters.
    pub ops: OpCounts,
}

impl SimReport {
    /// Gridding wall-clock at the synthesized 1.0 GHz clock (excludes
    /// readout, matching the paper's `M + 12` ns quote).
    pub fn gridding_seconds(&self) -> f64 {
        self.compute_cycles as f64 / CLOCK_HZ
    }

    /// Wall-clock including result readout.
    pub fn total_seconds(&self) -> f64 {
        (self.compute_cycles + self.readout_cycles) as f64 / CLOCK_HZ
    }
}

/// Output of a run: the fixed-point target grid plus the report.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Row-major `G × G` grid in the accumulator format.
    pub grid: Vec<CFx32<16>>,
    /// Timing and counters.
    pub report: SimReport,
}

impl SimRun {
    /// Convert the grid to `f64`, undoing the input normalization scale.
    pub fn grid_c64(&self, value_scale: f64) -> Vec<C64> {
        self.grid
            .iter()
            .map(|z| z.to_c64().scale(value_scale))
            .collect()
    }
}

/// In-flight pipeline context (cycle-accurate mode).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    issue_cycle: u64,
    sample: FixedSample2d,
    // Stage outputs, filled as the sample advances.
    sel: Option<SelectOut>,
    weight: Option<[[CFx16<15>; 8]; 2]>, // per-dim per-distance weights
    product: Option<[[CFx32<16>; 8]; 8]>, // per (py-dist, px-dist) value
}

/// Select-stage output: per-dimension decomposition.
#[derive(Debug, Clone, Copy)]
struct SelectOut {
    rel: [u32; 2],
    tile: [u32; 2],
    phi2: [u32; 2],
}

/// The 2-D accelerator instance.
///
/// ```
/// use jigsaw_sim::{Jigsaw2d, JigsawConfig};
/// use jigsaw_num::C64;
///
/// let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
/// let coords = vec![[10.0, 20.0], [33.3, 1.2]];
/// let values = vec![C64::one(), C64::new(0.0, -0.5)];
/// let (stream, scale) = hw.quantize_inputs(&coords, &values).unwrap();
/// let run = hw.run(&stream);
/// assert_eq!(run.report.compute_cycles, 2 + 12); // M + 12 cycles
/// let grid = run.grid_c64(scale);                // f64 view of the grid
/// assert_eq!(grid.len(), 64 * 64);
/// ```
pub struct Jigsaw2d {
    cfg: JigsawConfig,
    dec: Decomposer,
    lut: HwLut,
    /// Per-pipeline accumulation SRAM, one dice column each
    /// (`pipelines[py·T + px][tile_y·tiles + tile_x]`).
    accum: Vec<Vec<CFx32<16>>>,
    ops: OpCounts,
}

impl Jigsaw2d {
    /// Instantiate the accelerator for a validated configuration.
    pub fn new(cfg: JigsawConfig) -> Result<Self> {
        cfg.validate()?;
        let params = cfg.grid_params();
        let dec = Decomposer::new(&params);
        let lut = HwLut::build(&cfg);
        let tiles = cfg.grid / cfg.tile;
        let accum = vec![vec![CFx32::ZERO; tiles * tiles]; cfg.tile * cfg.tile];
        Ok(Self {
            cfg,
            dec,
            lut,
            accum,
            ops: OpCounts::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &JigsawConfig {
        &self.cfg
    }

    /// Quantize host-side samples for the DMA stream: coordinates in
    /// oversampled-grid units are rounded to `1/L` granularity; values are
    /// normalized by `scale = max component magnitude` into Q1.15.
    /// Returns the stream and the scale to undo after readout.
    pub fn quantize_inputs(
        &self,
        coords: &[[f64; 2]],
        values: &[C64],
    ) -> Result<(Vec<FixedSample2d>, f64)> {
        if coords.len() != values.len() {
            return Err(SimError::Data(format!(
                "coordinate count {} != value count {}",
                coords.len(),
                values.len()
            )));
        }
        let mut peak = 0.0f64;
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(SimError::Data(format!("non-finite value at sample {i}")));
            }
            peak = peak.max(v.re.abs()).max(v.im.abs());
        }
        for (i, c) in coords.iter().enumerate() {
            if !c[0].is_finite() || !c[1].is_finite() {
                return Err(SimError::Data(format!(
                    "non-finite coordinate at sample {i}"
                )));
            }
        }
        let scale = if peak == 0.0 {
            1.0
        } else {
            peak / (1.0 - Fx16::<15>::EPS)
        };
        let stream = coords
            .iter()
            .zip(values)
            .map(|(c, v)| FixedSample2d {
                coord: [self.dec.quantize(c[0]), self.dec.quantize(c[1])],
                value: CFx16::from_c64(v.unscale(scale), self.cfg.round),
            })
            .collect();
        Ok((stream, scale))
    }

    /// Clear the accumulation SRAMs and counters (between runs).
    pub fn reset(&mut self) {
        for col in &mut self.accum {
            col.fill(CFx32::ZERO);
        }
        self.ops = OpCounts::default();
        self.lut.reset_counters();
    }

    /// Process one sample through the full fixed-point datapath,
    /// committing its accumulator updates. Shared by both run modes.
    fn commit_sample(&mut self, s: &FixedSample2d) {
        let t = self.cfg.tile as u32;
        let w = self.cfg.width as u32;
        let tiles = (self.cfg.grid / self.cfg.tile) as u32;
        let dy = self.dec.decompose(s.coord[0]);
        let dx = self.dec.decompose(s.coord[1]);
        // Every pipeline performs the select check (broadcast).
        self.ops.select_checks += (t * t) as u64;
        // Widen the sample once (input register).
        let wide = CFx32::<16>::new(s.value.re.widen(), s.value.im.widen());
        for py in 0..t {
            let dist_y = self.dec.forward_distance(self.dec.rel_coord(&dy), py);
            if dist_y >= w {
                continue;
            }
            let ty = self.dec.tile_for_pipeline(&dy, py);
            let wy = self.lut.read(self.dec.lut_index(dist_y, dy.phi2));
            for px in 0..t {
                let dist_x = self.dec.forward_distance(self.dec.rel_coord(&dx), px);
                if dist_x >= w {
                    continue;
                }
                let tx = self.dec.tile_for_pipeline(&dx, px);
                let wx = self.lut.read(self.dec.lut_index(dist_x, dx.phi2));
                self.ops.lut_reads += 2;
                // Weight lookup stage: combine per-dim complex weights.
                let wxy = wy.knuth_mul(wx, self.cfg.round);
                self.ops.weight_muls += 1;
                // Interpolation stage: weight × sample.
                let contrib = wide.knuth_mul_w(wxy, self.cfg.round);
                self.ops.interp_macs += 1;
                // Accumulate stage: read-modify-write the column SRAM.
                let col = (py * t + px) as usize;
                let addr = (ty * tiles + tx) as usize;
                let before = self.accum[col][addr];
                let after = before.sat_add(contrib);
                // Detect clamping (either component).
                let wide_re = before.re.0 as i64 + contrib.re.0 as i64;
                let wide_im = before.im.0 as i64 + contrib.im.0 as i64;
                if wide_re != after.re.0 as i64 || wide_im != after.im.0 as i64 {
                    self.ops.saturations += 1;
                }
                self.accum[col][addr] = after;
                self.ops.accum_rmw += 1;
            }
        }
    }

    /// Functional run: stream every sample through the datapath; timing
    /// from the stall-free pipeline law (`M + 12` compute cycles).
    pub fn run(&mut self, stream: &[FixedSample2d]) -> SimRun {
        self.reset();
        for s in stream {
            self.commit_sample(s);
        }
        self.finish(stream.len() as u64, stream.len() as u64 + PIPELINE_DEPTH_2D)
    }

    /// Cycle-accurate run: per-cycle advance of the four stage registers
    /// (select ends at issue+4, weight lookup +6, interpolation +9,
    /// accumulate +12). Asserts the in-flight window never exceeds the
    /// pipeline depth. Returns the same grid as [`Jigsaw2d::run`], with
    /// the cycle count *measured* by the simulation loop.
    pub fn run_cycle_accurate(&mut self, stream: &[FixedSample2d]) -> SimRun {
        self.reset();
        let m = stream.len() as u64;
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut cycle: u64 = 0;
        let mut next_issue: u64 = 0;
        let mut committed: u64 = 0;
        let t = self.cfg.tile as u32;
        let w = self.cfg.width as u32;
        while committed < m || next_issue < m {
            // Issue: one sample enters the pipeline per cycle.
            if next_issue < m {
                inflight.push_back(InFlight {
                    issue_cycle: cycle,
                    sample: stream[next_issue as usize],
                    sel: None,
                    weight: None,
                    product: None,
                });
                next_issue += 1;
            }
            assert!(
                inflight.len() as u64 <= PIPELINE_DEPTH_2D + 1,
                "in-flight window exceeded pipeline depth"
            );
            // Advance stages.
            let mut retire = 0;
            for fl in inflight.iter_mut() {
                let age = cycle - fl.issue_cycle;
                if age == 4 && fl.sel.is_none() {
                    // Select stage completes.
                    let dy = self.dec.decompose(fl.sample.coord[0]);
                    let dx = self.dec.decompose(fl.sample.coord[1]);
                    fl.sel = Some(SelectOut {
                        rel: [self.dec.rel_coord(&dy), self.dec.rel_coord(&dx)],
                        tile: [self.dec.tile_coord(&dy), self.dec.tile_coord(&dx)],
                        phi2: [dy.phi2, dx.phi2],
                    });
                } else if age == 6 && fl.weight.is_none() {
                    // Weight lookup: read the per-dimension weights for
                    // every forward distance < W.
                    let sel = fl.sel.expect("select must complete first");
                    let mut weights = [[CFx16::ZERO; 8]; 2];
                    for (d, wrow) in weights.iter_mut().enumerate() {
                        for dist in 0..w.min(8) {
                            wrow[dist as usize] =
                                self.lut.read(self.dec.lut_index(dist, sel.phi2[d]));
                        }
                    }
                    fl.weight = Some(weights);
                } else if age == 9 && fl.product.is_none() {
                    // Interpolation: weight-combine + sample product for
                    // each (dy, dx) pair in the window.
                    let weights = fl.weight.expect("weights must be ready");
                    let wide =
                        CFx32::<16>::new(fl.sample.value.re.widen(), fl.sample.value.im.widen());
                    let mut prod = [[CFx32::ZERO; 8]; 8];
                    for jy in 0..w.min(8) as usize {
                        for jx in 0..w.min(8) as usize {
                            let wxy = weights[0][jy].knuth_mul(weights[1][jx], self.cfg.round);
                            prod[jy][jx] = wide.knuth_mul_w(wxy, self.cfg.round);
                        }
                    }
                    fl.product = Some(prod);
                } else if age == PIPELINE_DEPTH_2D {
                    retire += 1;
                }
            }
            // Retire (accumulate stage) — at most one sample per cycle.
            assert!(retire <= 1, "only one sample may retire per cycle");
            if retire == 1 {
                let fl = inflight.pop_front().expect("in-flight sample");
                debug_assert_eq!(cycle - fl.issue_cycle, PIPELINE_DEPTH_2D);
                self.commit_retired(&fl, t, w);
                committed += 1;
            }
            cycle += 1;
        }
        // The last retire happened at `cycle − 1 + 1`; total elapsed cycles:
        let compute_cycles = cycle;
        self.finish(m, compute_cycles)
    }

    /// Accumulate a retired sample's precomputed products.
    fn commit_retired(&mut self, fl: &InFlight, t: u32, w: u32) {
        let sel = fl.sel.expect("select output");
        let prod = fl.product.expect("interpolation output");
        let tiles = (self.cfg.grid / self.cfg.tile) as u32;
        self.ops.select_checks += (t * t) as u64;
        for py in 0..t {
            let dist_y = self.dec.forward_distance(sel.rel[0], py);
            if dist_y >= w {
                continue;
            }
            for px in 0..t {
                let dist_x = self.dec.forward_distance(sel.rel[1], px);
                if dist_x >= w {
                    continue;
                }
                self.ops.lut_reads += 2;
                self.ops.weight_muls += 1;
                self.ops.interp_macs += 1;
                let ty = wrap_tile(sel.tile[0], sel.rel[0], py, tiles);
                let tx = wrap_tile(sel.tile[1], sel.rel[1], px, tiles);
                let col = (py * t + px) as usize;
                let addr = (ty * tiles + tx) as usize;
                let before = self.accum[col][addr];
                let contrib = prod[dist_y as usize][dist_x as usize];
                let after = before.sat_add(contrib);
                let wide_re = before.re.0 as i64 + contrib.re.0 as i64;
                let wide_im = before.im.0 as i64 + contrib.im.0 as i64;
                if wide_re != after.re.0 as i64 || wide_im != after.im.0 as i64 {
                    self.ops.saturations += 1;
                }
                self.accum[col][addr] = after;
                self.ops.accum_rmw += 1;
            }
        }
    }

    /// Assemble the row-major grid and the report.
    fn finish(&mut self, samples: u64, compute_cycles: u64) -> SimRun {
        let g = self.cfg.grid;
        let t = self.cfg.tile;
        let tiles = g / t;
        let mut grid = vec![CFx32::ZERO; g * g];
        for py in 0..t {
            for px in 0..t {
                let col = &self.accum[py * t + px];
                for ty in 0..tiles {
                    for tx in 0..tiles {
                        grid[(ty * t + py) * g + tx * t + px] = col[ty * tiles + tx];
                    }
                }
            }
        }
        let ops = self.ops;
        SimRun {
            grid,
            report: SimReport {
                samples,
                compute_cycles,
                readout_cycles: (g * g) as u64 / OUTPUT_POINTS_PER_CYCLE,
                ops,
            },
        }
    }
}

impl SimRun {
    /// Serialize the result grid as the device-to-host DMA stream: one
    /// 128-bit bus beat per two 64-bit complex points, row-major tile
    /// order (§IV System Integration: "the host then initiates a second
    /// stream, which transfers the gridded data from JIGSAW to the host
    /// memory"). The beat count equals [`SimReport::readout_cycles`].
    pub fn dma_readout(&self) -> Vec<u128> {
        self.grid
            .chunks(2)
            .map(|pair| {
                let lo = pack_point(&pair[0]);
                let hi = pair.get(1).map(pack_point).unwrap_or(0);
                (hi as u128) << 64 | lo as u128
            })
            .collect()
    }
}

/// Pack one accumulator point into a 64-bit bus word (re high, im low).
fn pack_point(p: &CFx32<16>) -> u64 {
    ((p.re.0 as u32 as u64) << 32) | (p.im.0 as u32 as u64)
}

/// Parse a device-to-host DMA stream back into accumulator points — the
/// host-side driver's job; used by tests to verify the bus round trip.
pub fn parse_dma_readout(beats: &[u128], points: usize) -> Vec<CFx32<16>> {
    let mut out = Vec::with_capacity(points);
    for beat in beats {
        for half in [*beat as u64, (*beat >> 64) as u64] {
            if out.len() == points {
                break;
            }
            out.push(CFx32::new(
                jigsaw_fixed::Fx32::from_bits((half >> 32) as u32 as i32),
                jigsaw_fixed::Fx32::from_bits(half as u32 as i32),
            ));
        }
    }
    out
}

/// Tile coordinate after wrap compensation (shared with the fast path via
/// `Decomposer::tile_for_pipeline`; duplicated here in the form the
/// retire stage uses so the cycle-accurate path only consumes stage
/// registers).
#[inline]
fn wrap_tile(tile: u32, rel: u32, p: u32, tiles: u32) -> u32 {
    if rel < p {
        (tile + tiles - 1) % tiles
    } else {
        tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::gridding::{Gridder, SerialGridder};
    use jigsaw_core::lut::KernelLut;
    use jigsaw_core::metrics::rel_l2;

    fn sample_batch(m: usize, g: f64, seed: u64) -> (Vec<[f64; 2]>, Vec<C64>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64
        };
        let coords = (0..m).map(|_| [next() * g, next() * g]).collect();
        let values = (0..m)
            .map(|_| C64::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0))
            .collect();
        (coords, values)
    }

    #[test]
    fn runtime_law_m_plus_12() {
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        for m in [1usize, 10, 100, 1000] {
            let (coords, values) = sample_batch(m, 64.0, m as u64);
            let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
            let run = hw.run(&stream);
            assert_eq!(run.report.compute_cycles, m as u64 + 12);
        }
    }

    #[test]
    fn cycle_accurate_derives_same_law_and_same_grid() {
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        let (coords, values) = sample_batch(200, 64.0, 7);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let fast = hw.run(&stream);
        let slow = hw.run_cycle_accurate(&stream);
        assert_eq!(slow.report.compute_cycles, 200 + 12);
        assert_eq!(fast.report.compute_cycles, slow.report.compute_cycles);
        assert_eq!(fast.grid, slow.grid, "functional and cycle-accurate differ");
        assert_eq!(fast.report.ops.interp_macs, slow.report.ops.interp_macs);
        assert_eq!(fast.report.ops.accum_rmw, slow.report.ops.accum_rmw);
    }

    #[test]
    fn runtime_independent_of_sampling_pattern() {
        // Clustered vs uniform vs identical coordinates: same cycle count
        // (the paper's headline property: trajectory-agnostic timing).
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        let m = 500;
        let (uniform, values) = sample_batch(m, 64.0, 1);
        let clustered: Vec<[f64; 2]> = (0..m).map(|i| [1.0 + (i % 3) as f64 * 0.1, 2.0]).collect();
        let (s1, _) = hw.quantize_inputs(&uniform, &values).unwrap();
        let c1 = hw.run(&s1).report.compute_cycles;
        let (s2, _) = hw.quantize_inputs(&clustered, &values).unwrap();
        let c2 = hw.run(&s2).report.compute_cycles;
        assert_eq!(c1, c2);
    }

    #[test]
    fn matches_f64_reference_within_fixed_point_error() {
        // Functional verification "against MIRT's output using doubles"
        // (§V): the fixed-point grid must track the f64 LUT grid to within
        // accumulated quantization error.
        let cfg = JigsawConfig::small(64);
        let params = cfg.grid_params();
        let lut = KernelLut::from_params(&params);
        let (coords, values) = sample_batch(400, 64.0, 3);
        let mut hw = Jigsaw2d::new(cfg).unwrap();
        let (stream, scale) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream);
        let hw_grid = run.grid_c64(scale);
        let mut reference = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&params, &lut, &coords, &values, &mut reference);
        let err = rel_l2(&hw_grid, &reference);
        assert!(err < 2e-3, "fixed-point grid error vs f64: {err}");
        assert_eq!(run.report.ops.saturations, 0);
    }

    #[test]
    fn op_counts_match_model() {
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        let (coords, values) = sample_batch(50, 64.0, 4);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream);
        let ops = run.report.ops;
        assert_eq!(ops.select_checks, 50 * 64); // M·T²
        assert_eq!(ops.interp_macs, 50 * 36); // M·W²
        assert_eq!(ops.accum_rmw, 50 * 36);
        assert_eq!(ops.weight_muls, 50 * 36);
        assert_eq!(run.report.readout_cycles, 64 * 64 / 2);
    }

    #[test]
    fn saturation_is_detected() {
        // Stream the same max-magnitude sample many times onto one point:
        // Q15.16 accumulators clamp near ±32768.
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        let coords = vec![[10.0, 10.0]; 40000];
        let values = vec![C64::new(1.0, 0.0); 40000];
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream);
        assert!(
            run.report.ops.saturations > 0,
            "expected accumulator clamping"
        );
    }

    #[test]
    fn truncation_rounding_degrades_accuracy() {
        // Round-to-nearest must beat truncation — the ablation behind the
        // hardware's add-half rounder.
        let (coords, values) = sample_batch(300, 64.0, 12);
        let params = JigsawConfig::small(64).grid_params();
        let lut = KernelLut::from_params(&params);
        let mut reference = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&params, &lut, &coords, &values, &mut reference);
        let mut errs = Vec::new();
        for round in [jigsaw_fixed::Round::Nearest, jigsaw_fixed::Round::Truncate] {
            let mut cfg = JigsawConfig::small(64);
            cfg.round = round;
            let mut hw = Jigsaw2d::new(cfg).unwrap();
            let (stream, scale) = hw.quantize_inputs(&coords, &values).unwrap();
            let run = hw.run(&stream);
            errs.push(rel_l2(&run.grid_c64(scale), &reference));
        }
        assert!(
            errs[0] < errs[1],
            "nearest {} must beat truncate {}",
            errs[0],
            errs[1]
        );
    }

    #[test]
    fn quantize_rejects_bad_input() {
        let hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        assert!(hw.quantize_inputs(&[[0.0, 0.0]], &[]).is_err());
        assert!(hw
            .quantize_inputs(&[[f64::NAN, 0.0]], &[C64::one()])
            .is_err());
        assert!(hw
            .quantize_inputs(&[[0.0, 0.0]], &[C64::new(f64::INFINITY, 0.0)])
            .is_err());
    }

    #[test]
    fn dma_readout_round_trips_and_matches_cycle_count() {
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        let (coords, values) = sample_batch(120, 64.0, 21);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream);
        let beats = run.dma_readout();
        // One beat per two points = the modeled readout cycles.
        assert_eq!(beats.len() as u64, run.report.readout_cycles);
        // Host-side parse recovers the grid bit-exactly.
        let parsed = crate::machine::parse_dma_readout(&beats, run.grid.len());
        assert_eq!(parsed, run.grid);
    }

    #[test]
    fn zero_values_produce_zero_grid() {
        let mut hw = Jigsaw2d::new(JigsawConfig::small(64)).unwrap();
        let (stream, scale) = hw.quantize_inputs(&[[5.0, 5.0]], &[C64::zeroed()]).unwrap();
        assert_eq!(scale, 1.0);
        let run = hw.run(&stream);
        assert!(run.grid.iter().all(|z| *z == CFx32::ZERO));
    }

    #[test]
    fn wrap_handling_matches_reference() {
        // Edge samples (Fig. 2's a, c, f) exercise the wrap compensation.
        let cfg = JigsawConfig::small(64);
        let params = cfg.grid_params();
        let lut = KernelLut::from_params(&params);
        let coords = vec![[0.1, 0.1], [63.7, 0.3], [0.2, 63.9], [63.5, 63.5]];
        let values = vec![C64::new(1.0, -0.5); 4];
        let mut hw = Jigsaw2d::new(cfg).unwrap();
        let (stream, scale) = hw.quantize_inputs(&coords, &values).unwrap();
        let hw_grid = hw.run(&stream).grid_c64(scale);
        let mut reference = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&params, &lut, &coords, &values, &mut reference);
        let err = rel_l2(&hw_grid, &reference);
        assert!(err < 2e-3, "wrap error {err}");
    }
}
