//! JIGSAW 3D Slice — the third-dimension variant (§IV "Gridding in 2D and
//! 3D").
//!
//! A `1024³` target grid would need ~8 GB of accumulation SRAM, so JIGSAW
//! follows "modern algorithms and accelerators" and processes 3-D volumes
//! as a series of 2-D slices, reusing the same ~8 MB accumulator array per
//! slice. The select and weight-lookup stages gain a z-coordinate path
//! (pipeline depth 15); per slice, only samples whose z-window covers that
//! slice contribute.
//!
//! Runtime:
//! * **unsorted** input: every slice must re-stream all `M` samples —
//!   `(M + 15)·Nz` cycles;
//! * **Z-sorted** input ("essentially binning in the Z-dimension and
//!   letting Slice-and-Dice obviate binning in 2D"): each slice streams
//!   only its bin — `Σ_z (|bin_z| + 15) ≈ (M + 15)·Wz` cycles.

use crate::config::{JigsawConfig, PIPELINE_DEPTH_3D};
use crate::hwlut::HwLut;
use crate::machine::{OpCounts, SimReport};
use crate::{Result, SimError};
use jigsaw_core::decomp::Decomposer;
use jigsaw_fixed::{CFx16, CFx32, Fx16};
use jigsaw_num::C64;

/// One quantized 3-D input sample: three 32-bit coordinates
/// (`[z, y, x]`, units `1/L`) and a 32-bit complex value — exactly one
/// 128-bit bus beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedSample3d {
    /// Quantized `[z, y, x]` coordinate.
    pub coord: [u32; 3],
    /// Complex sample value.
    pub value: CFx16<15>,
}

/// Output of a 3-D run.
#[derive(Debug, Clone)]
pub struct SimRun3d {
    /// Row-major `G³` grid (`[z, y, x]`) in the accumulator format.
    pub grid: Vec<CFx32<16>>,
    /// Timing and counters.
    pub report: SimReport,
}

impl SimRun3d {
    /// Convert to `f64`, undoing the normalization scale.
    pub fn grid_c64(&self, value_scale: f64) -> Vec<C64> {
        self.grid
            .iter()
            .map(|z| z.to_c64().scale(value_scale))
            .collect()
    }
}

/// The 3-D slice accelerator instance.
pub struct Jigsaw3dSlice {
    cfg: JigsawConfig,
    dec: Decomposer,
    lut: HwLut,
}

impl Jigsaw3dSlice {
    /// Instantiate for a validated configuration (the grid is `G³`).
    pub fn new(cfg: JigsawConfig) -> Result<Self> {
        cfg.validate()?;
        let params = cfg.grid_params();
        Ok(Self {
            dec: Decomposer::new(&params),
            lut: HwLut::build(&cfg),
            cfg,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &JigsawConfig {
        &self.cfg
    }

    /// Quantize host-side 3-D samples (coordinates in oversampled-grid
    /// units) into the DMA stream format; returns the value scale.
    pub fn quantize_inputs(
        &self,
        coords: &[[f64; 3]],
        values: &[C64],
    ) -> Result<(Vec<FixedSample3d>, f64)> {
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
            if c.iter().any(|x| !x.is_finite()) {
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
            .map(|(c, v)| FixedSample3d {
                coord: [
                    self.dec.quantize(c[0]),
                    self.dec.quantize(c[1]),
                    self.dec.quantize(c[2]),
                ],
                value: CFx16::from_c64(v.unscale(scale), self.cfg.round),
            })
            .collect();
        Ok((stream, scale))
    }

    /// Run the slice-serial 3-D gridding.
    ///
    /// `z_sorted = false` models the arbitrary-order stream (every slice
    /// sees all `M` samples: `(M + 15)·Nz` cycles); `z_sorted = true`
    /// models host-side Z-binning (each slice streams only the samples
    /// whose window touches it: `Σ_z(|bin_z| + 15)` cycles).
    pub fn run(&mut self, stream: &[FixedSample3d], z_sorted: bool) -> SimRun3d {
        let g = self.cfg.grid;
        let t = self.cfg.tile as u32;
        let w = self.cfg.width as u32;
        let _tiles = (g / self.cfg.tile) as u32;
        let m = stream.len() as u64;
        let nz = g as u64;
        let mut grid = vec![CFx32::<16>::ZERO; g * g * g];
        let mut ops = OpCounts::default();

        // Host-side Z bins (sorted mode): bin_z = samples whose z-window
        // covers slice z.
        let bins: Option<Vec<Vec<u32>>> = if z_sorted {
            let mut bins: Vec<Vec<u32>> = vec![Vec::new(); g];
            for (i, s) in stream.iter().enumerate() {
                let dz = self.dec.decompose(s.coord[0]);
                for j in 0..w {
                    let kz = (dz.base + g as u32 - j) % g as u32;
                    bins[kz as usize].push(i as u32);
                }
            }
            Some(bins)
        } else {
            None
        };

        let mut streamed: u64 = 0;
        for z in 0..g as u32 {
            let slice_base = z as usize * g * g;
            let indices: Box<dyn Iterator<Item = u32>> = match &bins {
                Some(b) => Box::new(b[z as usize].iter().copied()),
                None => Box::new(0..stream.len() as u32),
            };
            for i in indices {
                streamed += 1;
                let s = &stream[i as usize];
                let dz = self.dec.decompose(s.coord[0]);
                // Z select: forward torus distance from slice z to the
                // window base ("only the select stage processes all M
                // points for any individual slice").
                let dist_z = (dz.base + g as u32 - z) % g as u32;
                ops.select_checks += 1;
                if dist_z >= w {
                    continue;
                }
                let wz = self.lut.read(self.dec.lut_index(dist_z, dz.phi2));
                ops.lut_reads += 1;
                // 2-D Slice-and-Dice datapath within the slice.
                let dy = self.dec.decompose(s.coord[1]);
                let dx = self.dec.decompose(s.coord[2]);
                ops.select_checks += (t * t) as u64;
                let wide = CFx32::<16>::new(s.value.re.widen(), s.value.im.widen());
                for py in 0..t {
                    let dist_y = self.dec.forward_distance(self.dec.rel_coord(&dy), py);
                    if dist_y >= w {
                        continue;
                    }
                    let ty = self.dec.tile_for_pipeline(&dy, py);
                    let wy = self.lut.read(self.dec.lut_index(dist_y, dy.phi2));
                    let wzy = wz.knuth_mul(wy, self.cfg.round);
                    for px in 0..t {
                        let dist_x = self.dec.forward_distance(self.dec.rel_coord(&dx), px);
                        if dist_x >= w {
                            continue;
                        }
                        let tx = self.dec.tile_for_pipeline(&dx, px);
                        let wx = self.lut.read(self.dec.lut_index(dist_x, dx.phi2));
                        ops.lut_reads += 2;
                        let wzyx = wzy.knuth_mul(wx, self.cfg.round);
                        ops.weight_muls += 2;
                        let contrib = wide.knuth_mul_w(wzyx, self.cfg.round);
                        ops.interp_macs += 1;
                        let row = (ty * t + py) as usize;
                        let colp = (tx * t + px) as usize;
                        let addr = slice_base + row * g + colp;
                        let before = grid[addr];
                        let after = before.sat_add(contrib);
                        let wr = before.re.0 as i64 + contrib.re.0 as i64;
                        let wi = before.im.0 as i64 + contrib.im.0 as i64;
                        if wr != after.re.0 as i64 || wi != after.im.0 as i64 {
                            ops.saturations += 1;
                        }
                        grid[addr] = after;
                        ops.accum_rmw += 1;
                    }
                }
            }
        }
        let compute_cycles = match &bins {
            None => (m + PIPELINE_DEPTH_3D) * nz,
            Some(b) => b
                .iter()
                .map(|bin| bin.len() as u64 + PIPELINE_DEPTH_3D)
                .sum(),
        };
        let _ = streamed;
        SimRun3d {
            grid,
            report: SimReport {
                samples: m,
                compute_cycles,
                readout_cycles: (g * g * g) as u64 / 2,
                ops,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::gridding::{Gridder, SerialGridder};
    use jigsaw_core::lut::KernelLut;
    use jigsaw_core::metrics::rel_l2;

    fn cfg16() -> JigsawConfig {
        JigsawConfig::small(16)
    }

    fn sample_batch(m: usize, g: f64, seed: u64) -> (Vec<[f64; 3]>, Vec<C64>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64
        };
        let coords = (0..m)
            .map(|_| [next() * g, next() * g, next() * g])
            .collect();
        let values = (0..m)
            .map(|_| C64::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0))
            .collect();
        (coords, values)
    }

    #[test]
    fn unsorted_runtime_law() {
        let mut hw = Jigsaw3dSlice::new(cfg16()).unwrap();
        let (coords, values) = sample_batch(100, 16.0, 1);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream, false);
        assert_eq!(run.report.compute_cycles, (100 + 15) * 16);
    }

    #[test]
    fn sorted_runtime_is_wz_fraction() {
        // Z-sorting reduces cycles from (M+15)·Nz to ≈ (M+15)·Wz.
        let mut hw = Jigsaw3dSlice::new(cfg16()).unwrap();
        let (coords, values) = sample_batch(500, 16.0, 2);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let unsorted = hw.run(&stream, false).report.compute_cycles;
        let sorted = hw.run(&stream, true).report.compute_cycles;
        // Σ|bin_z| = M·Wz exactly (every sample lands in Wz bins).
        assert_eq!(sorted, 500 * 6 + 15 * 16);
        assert!(sorted < unsorted / 2, "{sorted} vs {unsorted}");
    }

    #[test]
    fn sorted_and_unsorted_grids_match() {
        let mut hw = Jigsaw3dSlice::new(cfg16()).unwrap();
        let (coords, values) = sample_batch(200, 16.0, 3);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let a = hw.run(&stream, false);
        let b = hw.run(&stream, true);
        // Same per-point accumulation order (sample order within a slice
        // is preserved by the binning) → bitwise identical.
        assert_eq!(a.grid, b.grid);
    }

    #[test]
    fn matches_f64_reference() {
        let cfg = cfg16();
        let params = cfg.grid_params();
        let lut = KernelLut::from_params(&params);
        let (coords, values) = sample_batch(150, 16.0, 4);
        let mut hw = Jigsaw3dSlice::new(cfg).unwrap();
        let (stream, scale) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream, false);
        let hw_grid = run.grid_c64(scale);
        let mut reference = vec![C64::zeroed(); 16 * 16 * 16];
        SerialGridder.grid(&params, &lut, &coords, &values, &mut reference);
        let err = rel_l2(&hw_grid, &reference);
        assert!(err < 5e-3, "3-D fixed-point error vs f64: {err}");
    }

    #[test]
    fn z_select_processes_all_m_per_slice_unsorted() {
        let mut hw = Jigsaw3dSlice::new(cfg16()).unwrap();
        let (coords, values) = sample_batch(50, 16.0, 5);
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream, false);
        // Select checks ≥ M·Nz (z-checks) — "only the select stage
        // processes all M points for any individual slice".
        assert!(run.report.ops.select_checks >= 50 * 16);
        // Each sample contributes exactly W³ MACs across all slices.
        assert_eq!(run.report.ops.interp_macs, 50 * 216);
    }
}
