//! Naive output-parallel gridding (§II-C).
//!
//! "A naive output-parallel implementation must perform a boundary check
//! between each non-uniform sample and every grid point, requiring M
//! boundary checks for each of N^d uniform grid points." The vast
//! majority of checks fail; this engine exists to demonstrate that cost
//! (its `boundary_checks` counter is exactly `M·G^d`) and as an
//! independent oracle: it derives window membership from distances rather
//! than from the shared decomposition, so agreement with the other
//! engines cross-checks the decomposition logic itself.
//!
//! Complexity is `O(M·G^d)` — only use it on small problems.

use super::{validate_batch, worker_threads, Gridder};
use crate::config::GridParams;
use crate::decomp::Decomposer;
use crate::engine::{keys, WorkerPool};
use crate::lut::KernelLut;
use crate::stats::GridStats;
use crate::Result;
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::faultpoint;
use std::sync::Arc;
use std::time::Instant;

/// The naive output-driven gridder (one logical thread per grid point).
///
/// Output points partition across workers; each worker scans the full
/// sample stream for every point it owns, so the per-point accumulation
/// order is the stream order regardless of the partition — the result is
/// bitwise identical for any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveOutputGridder {
    /// Worker thread count (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl NaiveOutputGridder {
    /// Kernel weight of grid point `k` for a sample at quantized
    /// coordinate `uq` (units `1/L`), or `None` if outside the window.
    ///
    /// Works purely with distances, mirroring how an output-parallel GPU
    /// thread would test membership: the forward torus distance from `k`
    /// to `u + W/2` must be in `[0, W)`.
    fn weight_for(dec: &Decomposer, lut: &KernelLut, uq: u32, k: u32) -> Option<f64> {
        let l = dec.table_oversampling();
        let g = dec.grid();
        let w = dec.width();
        // Position of u + W/2 in half-LUT units on the torus.
        let s2 = 2 * uq as u64 + (w * l) as u64;
        let k2 = 2 * (k as u64) * l as u64;
        let circ = 2 * (g as u64) * l as u64;
        // Forward distance (u + W/2) − k on the torus, in half-LUT units.
        let d2 = (s2 + circ - k2) % circ;
        let dist2_limit = 2 * (w as u64) * l as u64;
        if d2 >= dist2_limit {
            return None;
        }
        // Unfolded LUT index = round(d2 / 2) (half up), same as decomp.
        let t = d2.div_ceil(2) as u32;
        Some(lut.lookup(t))
    }
}

impl<T: Float, const D: usize> Gridder<T, D> for NaiveOutputGridder {
    fn name(&self) -> &'static str {
        "naive output-parallel"
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
        let _span = telemetry::span!("gridding.naive", { dim: D, m: coords.len() });
        let dec = Decomposer::new(p);
        let g = p.grid;
        let start = Instant::now();
        // Pre-quantize coordinates once (the GPU equivalent broadcasts the
        // sample stream to all threads).
        let quant: Vec<[u32; D]> = coords
            .iter()
            .map(|c| {
                let mut q = [0u32; D];
                for d in 0..D {
                    q[d] = dec.quantize(c[d]);
                }
                q
            })
            .collect();
        // Output-driven: partition the grid points (the "threads") across
        // workers; each worker scans every sample for each of its points.
        let npoints = g.pow(D as u32);
        let nthreads = worker_threads(self.threads).min(npoints.max(1));
        let points_per_job = npoints.div_ceil(nthreads);
        let njobs = npoints.div_ceil(points_per_job);
        let mut total_accums = 0u64;
        let pool = WorkerPool::global();
        let quant_shared: Arc<[[u32; D]]> = quant.into();
        let values_shared: Arc<[Complex<T>]> = values.into();
        let lut_shared = lut.clone();
        let chunks = pool.map("gridding.naive", njobs, move |tid, arena| {
            faultpoint!(crate::fault::GRIDDING_CHUNK);
            let lo = tid * points_per_job;
            let len = points_per_job.min(npoints - lo);
            let mut chunk = arena.take_vec(keys::NAIVE_CHUNK, len, Complex::<T>::zeroed());
            let n = naive_worker::<T, D>(
                &dec,
                &lut_shared,
                g,
                &quant_shared,
                &values_shared,
                lo,
                &mut chunk,
            );
            (chunk, n)
        })?;
        for (tid, (chunk, n)) in chunks.into_iter().enumerate() {
            let lo = tid * points_per_job;
            for (o, &v) in out[lo..lo + chunk.len()].iter_mut().zip(&chunk) {
                *o += v;
            }
            pool.restore(tid, keys::NAIVE_CHUNK, chunk);
            total_accums += n;
        }
        let stats = GridStats {
            samples: coords.len(),
            samples_processed: coords.len(),
            boundary_checks: (coords.len() * npoints) as u64,
            kernel_accumulations: total_accums,
            presort_seconds: 0.0,
            gridding_seconds: start.elapsed().as_secs_f64(),
        };
        stats.mirror("naive");
        Ok(stats)
    }
}

/// One worker's job: for each grid point in `lo..lo + chunk.len()`, scan
/// the full (pre-quantized) sample stream and accumulate the point's
/// value into `chunk`, a zeroed buffer the caller then adds into the
/// output. Each point's windowed sum is computed in full before that
/// single `+=`, so the partition never changes a bit.
fn naive_worker<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    g: usize,
    quant: &[[u32; D]],
    values: &[Complex<T>],
    lo: usize,
    chunk: &mut [Complex<T>],
) -> u64 {
    let mut accums = 0u64;
    for (off, o) in chunk.iter_mut().enumerate() {
        let flat = lo + off;
        // Decode this point's coordinates.
        let mut k = [0u32; D];
        let mut rem = flat;
        for d in (0..D).rev() {
            k[d] = (rem % g) as u32;
            rem /= g;
        }
        let mut acc = Complex::<T>::zeroed();
        for (q, &v) in quant.iter().zip(values) {
            let mut wt = 1.0;
            let mut inside = true;
            for d in 0..D {
                match NaiveOutputGridder::weight_for(dec, lut, q[d], k[d]) {
                    Some(x) => wt *= x,
                    None => {
                        inside = false;
                        break;
                    }
                }
            }
            if inside {
                acc += v.scale(T::from_f64(wt));
                accums += 1;
            }
        }
        *o += acc;
    }
    accums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::testutil::*;
    use crate::gridding::SerialGridder;
    use jigsaw_num::C64;

    #[test]
    fn matches_serial_bitwise_small_grid() {
        let mut p = small_params();
        p.grid = 16; // keep O(M·G²) cheap
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(40, 16.0, 11);
        let mut a = vec![C64::zeroed(); 16 * 16];
        let mut b = vec![C64::zeroed(); 16 * 16];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut a)
            .unwrap();
        NaiveOutputGridder::default()
            .grid(&p, &lut, &coords, &values, &mut b)
            .unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.re.to_bits(),
                y.re.to_bits(),
                "grids must be bitwise equal"
            );
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn check_count_is_m_times_grid() {
        let mut p = small_params();
        p.grid = 16;
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(10, 16.0, 2);
        let mut out = vec![C64::zeroed(); 256];
        let stats = NaiveOutputGridder::default()
            .grid(&p, &lut, &coords, &values, &mut out)
            .unwrap();
        assert_eq!(stats.boundary_checks, 10 * 256);
        // Each sample touches exactly W² points.
        assert_eq!(stats.kernel_accumulations, 10 * 36);
    }

    #[test]
    fn distance_based_membership_matches_decomposition() {
        // weight_for must produce exactly the serial window weights.
        let p = small_params();
        let dec = Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        for step in 0..200 {
            let u = step as f64 * 0.319;
            let uq = dec.quantize(u);
            let dd = dec.decompose(uq);
            let mut expected = std::collections::HashMap::new();
            for j in 0..6 {
                let (k, t) = dec.window_point(&dd, j);
                expected.insert(k, lut.lookup(t));
            }
            for k in 0..64u32 {
                match NaiveOutputGridder::weight_for(&dec, &lut, uq, k) {
                    Some(w) => {
                        let e = expected.get(&k).copied().unwrap_or(f64::NAN);
                        assert_eq!(w.to_bits(), e.to_bits(), "u={u} k={k}");
                    }
                    None => assert!(!expected.contains_key(&k), "u={u} k={k} missing"),
                }
            }
        }
    }
}
