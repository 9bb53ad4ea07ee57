//! From-scratch uniform FFT substrate for the Jigsaw NuFFT.
//!
//! The NuFFT's third step is a conventional uniform FFT over the
//! oversampled grid. The paper treats this step as a fast, solved substrate
//! (FFTW on the CPU, cuFFT on the GPU); we provide the same role with a
//! self-contained implementation:
//!
//! * [`Fft1d`] — planned 1-D transform: iterative radix-4 (for `4^k`
//!   lengths) and radix-2 decimation-in-time with precomputed twiddles for
//!   the remaining powers of two, and Bluestein's chirp-z algorithm for
//!   everything else, so *any* length is `O(n log n)`.
//! * [`FftNd`] — multi-dimensional transforms (the paper's grids are 2-D
//!   `σN × σN` and 3-D processed as 2-D slices) via the row-column method.
//! * [`dft`] — a direct `O(n²)` DFT used as the oracle in tests.
//!
//! # Conventions
//!
//! The forward transform computes `X_k = Σ_j x_j e^{-2πi jk/n}`
//! (unnormalized); the inverse applies `e^{+2πi jk/n}` and scales by `1/n`,
//! so `inverse(forward(x)) == x`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bluestein;
pub mod nd;
pub mod radix;
pub mod radix4;
pub mod shift;

use jigsaw_num::{Complex, Float};

pub use nd::FftNd;
pub use shift::{fftshift, ifftshift};

/// Transform direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Negative exponent, unnormalized.
    Forward,
    /// Positive exponent, scaled by `1/n`.
    Inverse,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Self {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

enum Algo<T> {
    Radix2(radix::Radix2<T>),
    Radix4(radix4::Radix4<T>),
    Bluestein(Box<bluestein::Bluestein<T>>),
    Trivial,
}

/// A planned one-dimensional FFT of a fixed length.
///
/// Planning precomputes twiddle tables (and, for non-power-of-two lengths,
/// the Bluestein chirp spectra); [`Fft1d::process`] then runs with no
/// allocation for power-of-two sizes.
///
/// ```
/// use jigsaw_fft::{Fft1d, Direction};
/// use jigsaw_num::C64;
/// let plan = Fft1d::<f64>::new(8);
/// let mut data = vec![C64::zeroed(); 8];
/// data[0] = C64::one(); // impulse
/// plan.process(&mut data, Direction::Forward);
/// assert!(data.iter().all(|z| (z.re - 1.0).abs() < 1e-12)); // flat spectrum
/// plan.process(&mut data, Direction::Inverse);
/// assert!((data[0].re - 1.0).abs() < 1e-12); // round trip
/// ```
pub struct Fft1d<T> {
    n: usize,
    algo: Algo<T>,
}

impl<T: Float> Fft1d<T> {
    /// Plan a transform of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let algo = if n == 1 {
            Algo::Trivial
        } else if radix4::is_power_of_four(n) {
            Algo::Radix4(radix4::Radix4::new(n))
        } else if n.is_power_of_two() {
            Algo::Radix2(radix::Radix2::new(n))
        } else {
            Algo::Bluestein(Box::new(bluestein::Bluestein::new(n)))
        };
        Self { n, algo }
    }

    /// The planned length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the planned length is zero. Consistent with [`Self::len`];
    /// always `false` in practice because [`Self::new`] rejects `n == 0`,
    /// but derived from `len` rather than hardcoded so the two can never
    /// drift apart.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transform `data` in place.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex<T>], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must match plan");
        match &self.algo {
            Algo::Trivial => {}
            Algo::Radix2(r) => r.process(data, dir),
            Algo::Radix4(r) => r.process(data, dir),
            Algo::Bluestein(b) => {
                let mut work = vec![Complex::<T>::zeroed(); b.work_len()];
                b.process_with_scratch(data, dir, &mut work);
            }
        }
        if dir == Direction::Inverse {
            self.scale_inverse(data);
        }
    }

    /// Scratch length (in scalars) required by [`Self::process_planes`]
    /// for a `lanes`-wide batch: `2 · lanes · m` for Bluestein lengths
    /// (`m = next_pow2(2n−1)`; the factor 2 holds the convolution's real
    /// and imaginary planes), zero for power-of-two and trivial lengths.
    pub fn batch_scratch_len(&self, lanes: usize) -> usize {
        match &self.algo {
            Algo::Bluestein(b) => 2 * b.work_len() * lanes,
            _ => 0,
        }
    }

    /// Transform `lanes` signals stored as split real/imaginary planes:
    /// element `k` of lane `l` lives at `re[k * lanes + l]` /
    /// `im[k * lanes + l]`. `work` is Bluestein convolution scratch of
    /// exactly [`Self::batch_scratch_len`] scalars (empty for power-of-two
    /// lengths); batched callers reuse one buffer across panels.
    ///
    /// Lane `l` receives exactly the floating-point operations of a
    /// [`Self::process`] call on that lane alone (every kernel step is
    /// elementwise across lanes and mirrors `Complex`'s operators
    /// term-for-term), so per-lane results are **bitwise identical** to the
    /// scalar path — the invariant the N-D panel passes rely on. The split
    /// SoA form is the fast path: twiddle loads amortize across lanes and
    /// the inner loops are independent mul/adds over contiguous memory,
    /// which the compiler turns into shuffle-free vector code.
    ///
    /// # Panics
    /// Panics if `lanes == 0`, either plane is not `lanes * self.len()`
    /// scalars, or `work.len() != self.batch_scratch_len(lanes)`.
    pub fn process_planes(
        &self,
        re: &mut [T],
        im: &mut [T],
        lanes: usize,
        dir: Direction,
        work: &mut [T],
    ) {
        assert!(lanes > 0, "need at least one lane");
        assert_eq!(
            re.len(),
            self.n * lanes,
            "planes must be lanes * planned length"
        );
        assert_eq!(
            im.len(),
            self.n * lanes,
            "planes must be lanes * planned length"
        );
        match &self.algo {
            Algo::Trivial => {}
            Algo::Radix2(r) => r.process_planes(re, im, lanes, dir),
            Algo::Radix4(r) => r.process_planes(re, im, lanes, dir),
            Algo::Bluestein(b) => b.process_planes_with_scratch(re, im, lanes, dir, work),
        }
        if dir == Direction::Inverse {
            // Mirrors `Complex::scale` componentwise: (re·s, im·s).
            let scale = T::ONE / T::from_usize(self.n);
            for v in re.iter_mut() {
                *v *= scale;
            }
            for v in im.iter_mut() {
                *v *= scale;
            }
        }
    }

    /// Apply the inverse transform's `1/n` normalization.
    fn scale_inverse(&self, data: &mut [Complex<T>]) {
        let scale = T::ONE / T::from_usize(self.n);
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

/// Direct `O(n²)` discrete Fourier transform; the correctness oracle.
///
/// Uses the same conventions as [`Fft1d`].
pub fn dft<T: Float>(input: &[Complex<T>], dir: Direction) -> Vec<Complex<T>> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex::zeroed(); n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::<f64>::zeroed();
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * core::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
            acc += x.to_c64() * Complex::cis(theta);
        }
        if dir == Direction::Inverse {
            acc = acc.unscale(n as f64);
        }
        *o = Complex::from_c64(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_num::C64;

    fn rand_signal(n: usize, seed: u64) -> Vec<C64> {
        // Simple xorshift so tests don't need the rand crate here.
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| C64::new(next(), next())).collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_dft_all_small_sizes() {
        for n in 1..=64 {
            let x = rand_signal(n, n as u64 * 7919);
            let want = dft(&x, Direction::Forward);
            let plan = Fft1d::new(n);
            let mut got = x.clone();
            plan.process(&mut got, Direction::Forward);
            assert!(
                max_err(&got, &want) < 1e-9 * (n as f64),
                "size {n} mismatch: {}",
                max_err(&got, &want)
            );
        }
    }

    #[test]
    fn inverse_matches_dft_small_sizes() {
        for n in [2usize, 3, 5, 8, 12, 17, 31, 32] {
            let x = rand_signal(n, n as u64 + 5);
            let want = dft(&x, Direction::Inverse);
            let plan = Fft1d::new(n);
            let mut got = x.clone();
            plan.process(&mut got, Direction::Inverse);
            assert!(max_err(&got, &want) < 1e-10 * n as f64, "size {n}");
        }
    }

    #[test]
    fn roundtrip_large_pow2() {
        let n = 4096;
        let x = rand_signal(n, 42);
        let plan = Fft1d::new(n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        assert!(max_err(&y, &x) < 1e-10);
    }

    #[test]
    fn roundtrip_large_nonpow2() {
        for n in [1000usize, 1536, 2187] {
            let x = rand_signal(n, n as u64);
            let plan = Fft1d::new(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            assert!(max_err(&y, &x) < 1e-9, "size {n}");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 256;
        let mut x = vec![C64::zeroed(); n];
        x[0] = C64::one();
        Fft1d::new(n).process(&mut x, Direction::Forward);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_has_single_bin() {
        let n = 128;
        let k0 = 9;
        let x: Vec<C64> = (0..n)
            .map(|j| C64::cis(2.0 * core::f64::consts::PI * (j * k0) as f64 / n as f64))
            .collect();
        let mut y = x.clone();
        Fft1d::new(n).process(&mut y, Direction::Forward);
        for (k, z) in y.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 512;
        let x = rand_signal(n, 99);
        let mut y = x.clone();
        Fft1d::new(n).process(&mut y, Direction::Forward);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() / ex < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let plan = Fft1d::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.process(&mut fa, Direction::Forward);
        plan.process(&mut fb, Direction::Forward);
        let mut sum: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.process(&mut sum, Direction::Forward);
        let combined: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&sum, &combined) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_length_panics() {
        let plan = Fft1d::<f64>::new(8);
        let mut data = vec![C64::zeroed(); 4];
        plan.process(&mut data, Direction::Forward);
    }

    #[test]
    fn f32_precision_reasonable() {
        let n = 1024;
        let x: Vec<jigsaw_num::C32> = rand_signal(n, 3)
            .into_iter()
            .map(jigsaw_num::C32::from_c64)
            .collect();
        let plan = Fft1d::<f32>::new(n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        let err = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f32, f32::max);
        assert!(err < 1e-4, "f32 roundtrip err {err}");
    }

    #[test]
    fn interleaved_is_bitwise_per_lane_scalar() {
        // Covers every kernel class: trivial (1), radix-2 (8, 64),
        // radix-4 (16, 256), Bluestein (31, 45).
        for n in [1usize, 8, 16, 31, 45, 64, 256] {
            let plan = Fft1d::<f64>::new(n);
            let lanes = 5;
            let lane_signals: Vec<Vec<C64>> = (0..lanes)
                .map(|l| rand_signal(n, (n * 31 + l) as u64 + 1))
                .collect();
            let mut inter = vec![C64::zeroed(); n * lanes];
            for (k, row) in inter.chunks_exact_mut(lanes).enumerate() {
                for (l, slot) in row.iter_mut().enumerate() {
                    *slot = lane_signals[l][k];
                }
            }
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut re: Vec<f64> = inter.iter().map(|z| z.re).collect();
                let mut im: Vec<f64> = inter.iter().map(|z| z.im).collect();
                let mut work = vec![0.0; plan.batch_scratch_len(lanes)];
                plan.process_planes(&mut re, &mut im, lanes, dir, &mut work);
                for (l, lane) in lane_signals.iter().enumerate() {
                    let mut want = lane.clone();
                    plan.process(&mut want, dir);
                    for (k, w) in want.iter().enumerate() {
                        let i = k * lanes + l;
                        assert_eq!(
                            re[i].to_bits(),
                            w.re.to_bits(),
                            "n={n} lane={l} k={k} {dir:?}: re"
                        );
                        assert_eq!(im[i].to_bits(), w.im.to_bits(), "n={n} lane={l} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_scratch_len_is_zero_for_pow2() {
        assert_eq!(Fft1d::<f64>::new(64).batch_scratch_len(8), 0);
        assert_eq!(Fft1d::<f64>::new(1).batch_scratch_len(8), 0);
        // Bluestein 31 pads to m = next_pow2(61) = 64; two scalar planes.
        assert_eq!(Fft1d::<f64>::new(31).batch_scratch_len(8), 2 * 64 * 8);
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Forward.flip(), Direction::Inverse);
        assert_eq!(Direction::Inverse.flip(), Direction::Forward);
    }
}
