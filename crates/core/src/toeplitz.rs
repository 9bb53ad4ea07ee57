//! Toeplitz embedding of the NuFFT normal operator — the strategy behind
//! the paper's GPU baseline, promoted here to a production fast path.
//!
//! Impatient \[10\] is "a gridding-accelerated *Toeplitz-based* strategy":
//! iterative MRI reconstruction repeatedly applies the normal operator
//! `AᴴA`, and because `(AᴴA x)_k = Σ_l x_l ψ(k−l)` with the point-spread
//! kernel `ψ(d) = Σ_j w_j e^{2πi d·ν_j}`, the whole operator is a
//! (block-)Toeplitz matrix: its action is one zero-padded FFT
//! convolution on a `2N` grid. Gridding is then needed only *once*, to
//! build `ψ` — which is exactly why Impatient's performance is dominated
//! by that single gridding pass, the step the paper accelerates.
//!
//! [`ToeplitzOperator::build`] computes `ψ` on the `[−N, N)^d` lattice
//! with one adjoint NuFFT of the (optionally density-weighted) all-ones
//! vector at doubled image size, then [`ToeplitzOperator::apply`]
//! evaluates `AᴴA x` with two FFTs and no gridding at all. That adjoint
//! is the production scatter: the build plans the trajectory at `2N`
//! ([`NufftPlan::plan_trajectory`]) and runs the planned one-coil
//! adjoint, which splits into row bands from 2^19 kernel accumulations
//! on and is bitwise equal to the serial engine's PSF.
//!
//! The hot path is engineered for the CG inner loop:
//!
//! * Each image of a batch is one [`WorkerPool::map`] job — on the
//!   shared global pool unless [`ToeplitzOperator::apply_with`] names
//!   another — that runs the whole convolution serially, so the coils of a
//!   SENSE normal-operator application spread over the workers. A job's
//!   `(2N)^d` pad grid is recycled in its worker's scratch arena under
//!   [`keys::COIL_GRID`]. A contained job panic takes `map`'s
//!   serial-fallback policy: the failed coil's job runs again on the
//!   calling thread (bitwise identical, counted once in
//!   `engine.fallbacks`), or `Error::Execution` with the fallback off.
//!   Job `c` takes image `c` out of its slot, so a re-run finds the slot
//!   empty if the failed attempt got that far, and fails closed with
//!   `Error::Execution` instead of convolving anything else.
//! * Inside a job both FFTs run serially ([`FftNd::process`]), and so
//!   does the build's one torus FFT: the coils already keep the workers
//!   busy.
//! * The embed/extract index map (image pixel → torus position) is
//!   precomputed at build time.
//! * The CG-SENSE loop hands its coil images over by value
//!   (`apply_batch_owned`) and gets the same buffers back convolved, so
//!   an iteration allocates no coil image; the public
//!   [`ToeplitzOperator::apply_batch`] copies its borrowed images first.
//!
//! Build-time robustness: the `recon.normal_op` fault site fires inside
//! every build, and [`ToeplitzOperator::build_degradable`] contains both
//! injected panics and a non-finite PSF so reconstructions can fall back
//! to the gridded normal operator (counted in
//! `recon.normal_op_fallbacks`, flight-recorded).

use crate::config::NufftConfig;
use crate::engine::{keys, WorkerPool};
use crate::gridding::Gridder;
use crate::nufft::NufftPlan;
use crate::{Error, Result};
use jigsaw_fft::{Direction, FftNd};
use jigsaw_num::C64;
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::faultpoint;
use std::sync::{Arc, Mutex};

/// A precomputed NuFFT normal operator `x ↦ AᴴA x`.
pub struct ToeplitzOperator<const D: usize> {
    n: usize,
    /// Shared with the coil jobs of every application.
    kernel: Arc<Kernel>,
}

/// What one convolution reads: everything a coil job carries onto a
/// worker.
struct Kernel {
    /// FFT of the PSF kernel on the `(2N)^d` torus.
    psf_hat: Vec<C64>,
    fft: FftNd<f64>,
    /// Torus position of every image pixel (row-major `[N; D]` order),
    /// shared by the zero-pad embed and the crop extract.
    embed_idx: Vec<u32>,
}

impl Kernel {
    /// One zero-pad → FFT → multiply → IFFT → crop cycle on the calling
    /// thread: reads the image from `x` and overwrites it with the result.
    /// `pad` must arrive zeroed.
    fn convolve(&self, x: &mut [C64], pad: &mut [C64]) {
        for (&idx, &v) in self.embed_idx.iter().zip(x.iter()) {
            pad[idx as usize] = v;
        }
        self.fft.process(pad, Direction::Forward);
        for (p, &h) in pad.iter_mut().zip(&self.psf_hat) {
            *p *= h;
        }
        self.fft.process(pad, Direction::Inverse);
        for (o, &idx) in x.iter_mut().zip(&self.embed_idx) {
            *o = pad[idx as usize];
        }
    }
}

impl<const D: usize> ToeplitzOperator<D> {
    /// Build from trajectory `coords` (cycles) for an `N^d` image, using
    /// the given NuFFT configuration's kernel/accuracy parameters.
    /// `weights` (density compensation, applied inside `AᴴA` as `Aᴴ W A`)
    /// may be empty for uniform weighting.
    pub fn build(cfg: &NufftConfig, coords: &[[f64; D]], weights: &[f64]) -> Result<Self> {
        if !weights.is_empty() && weights.len() != coords.len() {
            return Err(Error::Data(format!(
                "weight count {} != coordinate count {}",
                weights.len(),
                coords.len()
            )));
        }
        // A non-finite density weight would propagate through the PSF
        // into every entry of the embedded kernel spectrum, and so into
        // every application of the operator. Reject at the door, like
        // planning rejects non-finite coordinates.
        if let Some(i) = weights.iter().position(|w| !w.is_finite()) {
            return Err(Error::Data(format!(
                "non-finite density weight at index {i}"
            )));
        }
        let n = cfg.n;
        let _span = telemetry::span!("toeplitz.build", {
            n: n,
            dim: D,
            m: coords.len()
        });
        telemetry::record_counter("toeplitz.builds", 1);
        faultpoint!(crate::fault::RECON_NORMAL_OP);
        // PSF on the doubled lattice: adjoint NuFFT at image size 2N.
        let mut cfg2 = cfg.clone();
        cfg2.n = 2 * n;
        let plan2 = NufftPlan::<f64, D>::new(cfg2)?;
        let ones: Vec<C64> = if weights.is_empty() {
            vec![C64::one(); coords.len()]
        } else {
            weights.iter().map(|&w| C64::new(w, 0.0)).collect()
        };
        let traj = plan2.plan_trajectory(coords)?;
        let psf = plan2.adjoint_planned(&traj, &ones)?.image;
        if psf.iter().any(|z| !z.re.is_finite() || !z.im.is_finite()) {
            return Err(Error::Execution(
                "non-finite PSF from the Toeplitz build adjoint".into(),
            ));
        }
        Self::from_psf(n, &psf)
    }

    /// The operator of a PSF `ψ` sampled on the `[−N, N)^d` lattice
    /// (row-major `[2N; D]`, index `i = d + N`): rearrange it onto the
    /// torus (index `d mod 2N`), take its FFT once, and precompute the
    /// embed/extract map.
    fn from_psf(n: usize, psf: &[C64]) -> Result<Self> {
        let two_n = 2 * n;
        let npts = two_n.pow(D as u32);
        if npts > u32::MAX as usize {
            return Err(Error::Config(format!(
                "Toeplitz torus of {npts} points exceeds the index range"
            )));
        }
        let mut torus = vec![C64::zeroed(); npts];
        for (flat, &v) in psf.iter().enumerate() {
            let mut rem = flat;
            let mut dst = 0usize;
            for d in 0..D {
                let stride = two_n.pow((D - 1 - d) as u32);
                let i = (rem / stride) % two_n;
                rem %= stride;
                let delta = i as i64 - n as i64; // d ∈ [−N, N)
                let t = delta.rem_euclid(two_n as i64) as usize;
                dst = dst * two_n + t;
            }
            torus[dst] = v;
        }
        let fft = FftNd::new(&[two_n; D]);
        fft.process(&mut torus, Direction::Forward);
        // Embed/extract map: pixel index i ↔ k = i − N/2 ∈ [−N/2, N/2),
        // placed at (k mod 2N) on the torus. Shared by both directions,
        // computed once here instead of per application.
        let npix = n.pow(D as u32);
        let mut embed_idx = Vec::with_capacity(npix);
        for flat in 0..npix {
            let mut rem = flat;
            let mut dst = 0usize;
            for d in 0..D {
                let stride = n.pow((D - 1 - d) as u32);
                let i = (rem / stride) % n;
                rem %= stride;
                let k = i as i64 - (n / 2) as i64;
                dst = dst * two_n + k.rem_euclid(two_n as i64) as usize;
            }
            embed_idx.push(dst as u32);
        }
        Ok(Self {
            n,
            kernel: Arc::new(Kernel {
                psf_hat: torus,
                fft,
                embed_idx,
            }),
        })
    }

    /// Build with graceful degradation (the `recon.normal_op` policy): a
    /// contained panic or non-finite PSF during the build returns
    /// `Ok(None)` when the engine's serial fallback is enabled — counted
    /// in `recon.normal_op_fallbacks` and flight-recorded — so the caller
    /// can fall back to the gridded normal operator. With the fallback
    /// disabled the failure surfaces as [`Error::Execution`]. Validation
    /// errors (mismatched weights, bad configuration) propagate either
    /// way: they are caller bugs, not degradable build failures.
    ///
    /// `gridder` is not consulted: the build's PSF adjoint runs the
    /// planned scatter, which is bitwise identical to every deterministic
    /// engine (`tests/engines_agree.rs`). `plan2` is not consulted either:
    /// the build plans its own `2N` transform, and no caller in this
    /// repository passes anything but `None`. Both parameters go with the
    /// benchmark change that stops passing them.
    pub fn build_degradable(
        cfg: &NufftConfig,
        coords: &[[f64; D]],
        weights: &[f64],
        _gridder: &dyn Gridder<f64, D>,
        _plan2: Option<&NufftPlan<f64, D>>,
    ) -> Result<Option<Arc<Self>>> {
        Self::degradable(cfg, coords, weights)
    }

    /// [`Self::build_degradable`] without the unused arguments.
    pub(crate) fn degradable(
        cfg: &NufftConfig,
        coords: &[[f64; D]],
        weights: &[f64],
    ) -> Result<Option<Arc<Self>>> {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Self::build(cfg, coords, weights)
        }));
        let failure = match built {
            Ok(Ok(op)) => return Ok(Some(Arc::new(op))),
            Ok(Err(Error::Execution(msg))) => msg,
            Ok(Err(other)) => return Err(other),
            Err(payload) => crate::engine::panic_message(&*payload),
        };
        if !crate::engine::serial_fallback_enabled() {
            return Err(Error::Execution(format!(
                "Toeplitz normal-operator build failed: {failure}"
            )));
        }
        telemetry::record_counter("recon.normal_op_fallbacks", 1);
        telemetry::flight::record(
            telemetry::FlightKind::FallbackTaken,
            telemetry::current_request_id(),
            0,
            &format!("toeplitz build → gridded normal op: {failure}"),
        );
        Ok(None)
    }

    /// Image size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Apply the normal operator: `out = AᴴA x` for a row-major `[N; D]`
    /// image. Two FFTs on the `(2N)^d` grid, no gridding.
    pub fn apply(&self, x: &[C64]) -> Result<Vec<C64>> {
        self.apply_with(WorkerPool::global(), x)
    }

    /// Like [`Self::apply`], but running the convolution job on `pool`
    /// instead of the shared global pool. A job computes the same
    /// operations wherever it runs, so the output is bitwise identical for
    /// every pool size — the bench pins pool sizes through this method to
    /// prove it.
    pub fn apply_with(&self, pool: &WorkerPool, x: &[C64]) -> Result<Vec<C64>> {
        let mut out = self.apply_batch_with(pool, &[x])?;
        Ok(out.pop().unwrap_or_default())
    }

    /// Apply the normal operator to a batch of images (one per coil,
    /// each row-major `[N; D]`) — the per-iteration shape of the SENSE
    /// normal operator. Each image is one job on the shared pool, so the
    /// coils convolve in parallel. Output order matches input; every image
    /// is computed exactly as [`Self::apply`] would (bitwise).
    pub fn apply_batch(&self, xs: &[&[C64]]) -> Result<Vec<Vec<C64>>> {
        self.apply_batch_with(WorkerPool::global(), xs)
    }

    /// [`Self::apply_batch`] with the coil jobs on `pool`: copy every
    /// image, then convolve the copies in place.
    fn apply_batch_with(&self, pool: &WorkerPool, xs: &[&[C64]]) -> Result<Vec<Vec<C64>>> {
        self.apply_batch_owned_with(pool, xs.iter().map(|x| x.to_vec()).collect())
    }

    /// [`Self::apply_batch`] over images the caller hands over: each is
    /// convolved in place and comes back in its own buffer, so a CG loop
    /// can refill the same buffers every iteration.
    pub(crate) fn apply_batch_owned(&self, xs: Vec<Vec<C64>>) -> Result<Vec<Vec<C64>>> {
        self.apply_batch_owned_with(WorkerPool::global(), xs)
    }

    /// [`Self::apply_batch_owned`] with the coil jobs on `pool`.
    fn apply_batch_owned_with(
        &self,
        pool: &WorkerPool,
        xs: Vec<Vec<C64>>,
    ) -> Result<Vec<Vec<C64>>> {
        for x in &xs {
            self.check_image(x)?;
        }
        let _span = telemetry::span!("toeplitz.apply", { n: self.n, coils: xs.len() });
        telemetry::record_counter("toeplitz.applies", xs.len() as u64);
        // Job `c` takes image `c` out of its slot and convolves it in
        // place.
        let njobs = xs.len();
        let images: Vec<Mutex<Option<Vec<C64>>>> =
            xs.into_iter().map(|x| Mutex::new(Some(x))).collect();
        let kernel = Arc::clone(&self.kernel);
        pool.map("toeplitz.apply_batch", njobs, move |c, arena| {
            let taken = images[c].lock().unwrap_or_else(|e| e.into_inner()).take();
            let mut image = taken.ok_or_else(|| {
                Error::Execution(format!(
                    "Toeplitz coil {c}: its image went with the failed attempt"
                ))
            })?;
            let mut pad = arena.take_vec(keys::COIL_GRID, kernel.psf_hat.len(), C64::zeroed());
            kernel.convolve(&mut image, &mut pad);
            arena.give_vec(keys::COIL_GRID, pad);
            Ok(image)
        })?
        .into_iter()
        .collect()
    }

    fn check_image(&self, x: &[C64]) -> Result<()> {
        if x.len() != self.n.pow(D as u32) {
            return Err(Error::Data(format!(
                "image has {} pixels, expected {}^{}",
                x.len(),
                self.n,
                D
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::SerialGridder;
    use crate::metrics::rel_l2;
    use crate::nudft::{adjoint_nudft, forward_nudft};
    use crate::traj;

    fn test_image(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64 - 0.5
        };
        (0..n * n).map(|_| C64::new(next(), next())).collect()
    }

    fn bits_eq(a: &[C64], b: &[C64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Direct normal operator via the NuDFT pair — the exact oracle.
    fn normal_direct(n: usize, coords: &[[f64; 2]], x: &[C64]) -> Vec<C64> {
        let samples = forward_nudft(n, x, coords, None);
        adjoint_nudft(n, coords, &samples, None)
    }

    /// A configuration whose kernel table is fine enough (L = 1024) that
    /// the LUT-gridded PSF sits well inside the NuDFT oracles' 1e-3
    /// bound; at the default L = 32 the table's rounding alone is
    /// several 1e-3.
    fn fine_table(n: usize) -> NufftConfig {
        let mut cfg = NufftConfig::with_n(n);
        cfg.table_oversampling = 1024;
        cfg
    }

    #[test]
    fn matches_direct_normal_operator() {
        let n = 16;
        let mut coords = traj::radial_2d(20, 24, true);
        traj::shuffle(&mut coords, 1);
        let top = ToeplitzOperator::<2>::build(&fine_table(n), &coords, &[]).unwrap();
        let x = test_image(n, 5);
        let got = top.apply(&x).unwrap();
        let want = normal_direct(n, &coords, &x);
        let err = rel_l2(&got, &want);
        assert!(err < 1e-3, "Toeplitz vs direct AᴴA: {err}");
    }

    #[test]
    fn matches_forward_adjoint_composition() {
        let n = 16;
        let mut coords = traj::spiral_2d(4, 300, 4.0);
        traj::shuffle(&mut coords, 2);
        let cfg = NufftConfig::with_n(n);
        let plan = NufftPlan::<f64, 2>::new(cfg.clone()).unwrap();
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        let x = test_image(n, 9);
        let fa = plan
            .adjoint(
                &coords,
                &plan.forward(&x, &coords).unwrap().samples,
                &SerialGridder,
            )
            .unwrap()
            .image;
        let tp = top.apply(&x).unwrap();
        let err = rel_l2(&tp, &fa);
        assert!(err < 5e-2, "Toeplitz vs NuFFT AᴴA: {err}");
    }

    #[test]
    fn weighted_normal_operator() {
        // Aᴴ W A with non-uniform weights must match the weighted NuDFT
        // composition.
        let n = 12;
        let coords = traj::random_nd::<2>(200, 7);
        let weights: Vec<f64> = (0..200).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect();
        let top = ToeplitzOperator::<2>::build(&fine_table(n), &coords, &weights).unwrap();
        let x = test_image(n, 11);
        let got = top.apply(&x).unwrap();
        // Oracle.
        let samples = forward_nudft(n, &x, &coords, None);
        let weighted: Vec<C64> = samples
            .iter()
            .zip(&weights)
            .map(|(s, &w)| s.scale(w))
            .collect();
        let want = adjoint_nudft(n, &coords, &weighted, None);
        let err = rel_l2(&got, &want);
        assert!(err < 1e-3, "weighted Toeplitz error: {err}");
    }

    #[test]
    fn operator_is_hermitian() {
        // ⟨Tx, y⟩ = ⟨x, Ty⟩ (AᴴA is Hermitian).
        let n = 8;
        let coords = traj::random_nd::<2>(100, 3);
        let cfg = NufftConfig::with_n(n);
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        let x = test_image(n, 1);
        let y = test_image(n, 2);
        let tx = top.apply(&x).unwrap();
        let ty = top.apply(&y).unwrap();
        let lhs: C64 = tx.iter().zip(&y).map(|(a, b)| *a * b.conj()).sum();
        let rhs: C64 = x.iter().zip(&ty).map(|(a, b)| *a * b.conj()).sum();
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn rejects_bad_sizes() {
        let cfg = NufftConfig::with_n(8);
        let coords = traj::random_nd::<2>(10, 1);
        assert!(ToeplitzOperator::<2>::build(&cfg, &coords, &[1.0; 3]).is_err());
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        assert!(top.apply(&[C64::zeroed(); 7]).is_err());
        assert!(top
            .apply_batch(&[&vec![C64::zeroed(); 64][..], &[C64::zeroed(); 7][..]])
            .is_err());
    }

    /// The kernel `build` makes from the planned PSF adjoint, next to
    /// the one the same torus step makes from a cold serial adjoint.
    fn kernels_from_both_scatters<const D: usize>(
        n: usize,
        coords: &[[f64; D]],
        weights: &[f64],
    ) -> (Vec<C64>, Vec<C64>) {
        let cfg = NufftConfig::with_n(n);
        let built = ToeplitzOperator::<D>::build(&cfg, coords, weights).unwrap();
        let mut cfg2 = cfg;
        cfg2.n = 2 * n;
        let plan2 = NufftPlan::<f64, D>::new(cfg2).unwrap();
        let ones: Vec<C64> = if weights.is_empty() {
            vec![C64::one(); coords.len()]
        } else {
            weights.iter().map(|&w| C64::new(w, 0.0)).collect()
        };
        let psf = plan2.adjoint(coords, &ones, &SerialGridder).unwrap().image;
        let serial = ToeplitzOperator::<D>::from_psf(n, &psf).unwrap();
        (built.kernel.psf_hat.clone(), serial.kernel.psf_hat.clone())
    }

    #[test]
    fn planned_build_is_bitwise_the_serial_psf_kernel() {
        fn weights(m: usize) -> Vec<f64> {
            (0..m).map(|i| 0.25 + (i % 7) as f64 * 0.125).collect()
        }
        let c1 = traj::random_nd::<1>(90, 41);
        let c2 = traj::random_nd::<2>(300, 43);
        // 3000 · 6³ accumulations: the build's one-coil adjoint splits
        // into row bands wherever the global pool has two workers.
        let c3 = traj::random_nd::<3>(3000, 47);
        let cases = [
            ("1-D", kernels_from_both_scatters(16, &c1, &[])),
            (
                "1-D weighted",
                kernels_from_both_scatters(16, &c1, &weights(90)),
            ),
            ("2-D", kernels_from_both_scatters(12, &c2, &[])),
            (
                "2-D weighted",
                kernels_from_both_scatters(12, &c2, &weights(300)),
            ),
            ("3-D", kernels_from_both_scatters(6, &c3, &[])),
            (
                "3-D weighted",
                kernels_from_both_scatters(6, &c3, &weights(3000)),
            ),
        ];
        for (what, (built, serial)) in cases {
            assert!(bits_eq(&built, &serial), "{what}");
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        // Repeated applications recycle the pad grid; outputs must stay
        // bitwise identical to the first.
        let n = 8;
        let coords = traj::random_nd::<2>(80, 21);
        let cfg = NufftConfig::with_n(n);
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        let x = test_image(n, 4);
        let first = top.apply(&x).unwrap();
        for _ in 0..3 {
            assert!(bits_eq(&first, &top.apply(&x).unwrap()));
        }
    }

    #[test]
    fn apply_batch_matches_per_coil_apply_bitwise() {
        let n = 8;
        let coords = traj::random_nd::<2>(90, 25);
        let cfg = NufftConfig::with_n(n);
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        let coils: Vec<Vec<C64>> = (0..4).map(|c| test_image(n, 30 + c)).collect();
        let refs: Vec<&[C64]> = coils.iter().map(|c| c.as_slice()).collect();
        let batch = top.apply_batch(&refs).unwrap();
        assert_eq!(batch.len(), 4);
        for (xc, got) in coils.iter().zip(&batch) {
            assert!(bits_eq(got, &top.apply(xc).unwrap()));
        }
    }

    #[test]
    fn apply_batch_is_bitwise_stable_across_worker_counts() {
        // Five coils split unevenly over every pool size from one to four
        // workers; each coil's image must not depend on which worker (or
        // how many) ran it.
        let n = 8;
        let coords = traj::random_nd::<2>(90, 27);
        let cfg = NufftConfig::with_n(n);
        let top = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
        let coils: Vec<Vec<C64>> = (0..5).map(|c| test_image(n, 40 + c)).collect();
        let refs: Vec<&[C64]> = coils.iter().map(|c| c.as_slice()).collect();
        let reference = top.apply_batch(&refs).unwrap();
        for workers in 1..=4 {
            let got = top
                .apply_batch_with(&WorkerPool::new(workers), &refs)
                .unwrap();
            assert_eq!(got.len(), reference.len());
            for (c, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(bits_eq(a, b), "{workers} workers, coil {c}");
            }
        }
    }

    #[test]
    fn build_counts_into_registry() {
        let n = 8;
        let coords = traj::random_nd::<2>(40, 31);
        let cfg = NufftConfig::with_n(n);
        telemetry::set_enabled(true);
        let builds = || {
            telemetry::global()
                .snapshot()
                .counter("toeplitz.builds")
                .unwrap_or(0)
        };
        // The registry is process-wide and only counts up, and other tests
        // build operators concurrently, so a window may also see their
        // builds: every build must add at least one, and at least one of a
        // few windows exactly one.
        let deltas: Vec<u64> = (0..5)
            .map(|_| {
                let before = builds();
                let _ = ToeplitzOperator::<2>::build(&cfg, &coords, &[]).unwrap();
                builds() - before
            })
            .collect();
        assert!(
            deltas.iter().all(|&d| d >= 1) && deltas.contains(&1),
            "build count deltas {deltas:?}"
        );
    }

    #[test]
    fn non_finite_psf_degrades_or_propagates() {
        let _lock = crate::fault::test_guard();
        let n = 8;
        let coords = traj::random_nd::<2>(40, 37);
        let cfg = NufftConfig::with_n(n);
        // Finite but overflowing density weights poison the PSF: each
        // weight passes the at-the-door finiteness check, yet their
        // gridded sum overflows to infinity — only the post-build PSF
        // check can catch it.
        let weights = vec![f64::MAX; coords.len()];
        crate::engine::set_serial_fallback(true);
        let degraded =
            ToeplitzOperator::<2>::build_degradable(&cfg, &coords, &weights, &SerialGridder, None)
                .unwrap();
        assert!(degraded.is_none());
        crate::engine::set_serial_fallback(false);
        let strict =
            ToeplitzOperator::<2>::build_degradable(&cfg, &coords, &weights, &SerialGridder, None);
        assert!(matches!(strict, Err(Error::Execution(_))));
        crate::engine::set_serial_fallback(true);
        // Validation errors are never degraded: a mismatched weight
        // count and outright non-finite weights are both refused as
        // `Data` even under the permissive policy.
        let bad =
            ToeplitzOperator::<2>::build_degradable(&cfg, &coords, &[1.0; 3], &SerialGridder, None);
        assert!(matches!(bad, Err(Error::Data(_))));
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut weights = vec![1.0; coords.len()];
            weights[7] = poison;
            let err = ToeplitzOperator::<2>::build_degradable(
                &cfg,
                &coords,
                &weights,
                &SerialGridder,
                None,
            )
            .err();
            assert!(
                matches!(&err, Some(Error::Data(m)) if m.contains("non-finite density weight at index 7")),
                "{poison} weight: {err:?}"
            );
        }
    }
}
