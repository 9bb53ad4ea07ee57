//! Interpolation window functions and their Fourier transforms.
//!
//! The gridding step convolves the non-uniform samples with a compactly
//! supported window `φ` of width `W` (§II-B: "the interpolation kernel can
//! be one of a variety of windowing functions, such as Kaiser-Bessel,
//! Gaussian, B-spline, Sinc, etc."). After the FFT, the image must be
//! divided by the window's Fourier transform `φ̂` (apodization correction).
//!
//! All kernels are evaluated on the *centered* argument `t ∈ [−W/2, W/2]`
//! in oversampled-grid units and are separable across dimensions.

use jigsaw_num::special::{bessel_i0, sinc};

/// The interpolation window family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelKind {
    /// Kaiser-Bessel with the Beatty-optimal shape parameter for the
    /// configured (W, σ) — the paper's choice. Resolved via
    /// [`KernelKind::resolve`].
    Auto,
    /// Kaiser-Bessel window `I0(β√(1−(2t/W)²))/I0(β)`.
    KaiserBessel {
        /// Shape parameter β.
        beta: f64,
    },
    /// Truncated Gaussian `exp(−t²/(2s²))`.
    Gaussian {
        /// Standard deviation `s` in grid units.
        s: f64,
    },
    /// Linear (triangle / first-order B-spline) window `max(0, 1 − |2t/W|)`.
    Triangle,
    /// Two-term cosine (Hann) window `½(1 + cos(2πt/W))`.
    Cosine,
    /// Cubic B-spline `B₃` scaled to the window width (§II-B lists
    /// B-splines among the standard choices).
    BSpline,
    /// Truncated sinc `sinc(2σ_eff·t/W)` windowed by a Hann taper — the
    /// "ideal" low-pass interpolator cut to finite support.
    Sinc,
}

impl KernelKind {
    /// Replace [`KernelKind::Auto`] with a Kaiser-Bessel kernel using the
    /// Beatty shape parameter for window width `w` and oversampling
    /// `sigma`: `β = π√((W/σ)²(σ−½)² − 0.8)` (Beatty et al. 2005, the rule
    /// the paper cites for its accuracy/oversampling trade-off).
    pub fn resolve(self, w: usize, sigma: f64) -> KernelKind {
        match self {
            KernelKind::Auto => KernelKind::KaiserBessel {
                beta: beatty_beta(w, sigma),
            },
            other => other,
        }
    }

    /// The family code and shape parameter (0 for parameterless
    /// families). The plan-cache key and snapshot v1 files carry this
    /// numbering, so it must never change.
    pub fn code(&self) -> (u8, f64) {
        match *self {
            KernelKind::Auto => (0, 0.0),
            KernelKind::KaiserBessel { beta } => (1, beta),
            KernelKind::Gaussian { s } => (2, s),
            KernelKind::Triangle => (3, 0.0),
            KernelKind::Cosine => (4, 0.0),
            KernelKind::BSpline => (5, 0.0),
            KernelKind::Sinc => (6, 0.0),
        }
    }

    /// Inverse of [`KernelKind::code`]; `None` for an unknown family code.
    pub fn from_code(code: u8, param: f64) -> Option<KernelKind> {
        Some(match code {
            0 => KernelKind::Auto,
            1 => KernelKind::KaiserBessel { beta: param },
            2 => KernelKind::Gaussian { s: param },
            3 => KernelKind::Triangle,
            4 => KernelKind::Cosine,
            5 => KernelKind::BSpline,
            6 => KernelKind::Sinc,
            _ => return None,
        })
    }

    /// Evaluate the window at centered offset `t` (grid units). Returns 0
    /// outside the support `|t| > W/2`.
    pub fn eval(&self, t: f64, w: usize) -> f64 {
        let half = w as f64 / 2.0;
        if t.abs() > half {
            return 0.0;
        }
        match *self {
            KernelKind::Auto => panic!("resolve() the kernel before evaluating"),
            KernelKind::KaiserBessel { beta } => {
                let u = 2.0 * t / w as f64;
                let arg = (1.0 - u * u).max(0.0).sqrt();
                bessel_i0(beta * arg) / bessel_i0(beta)
            }
            KernelKind::Gaussian { s } => (-t * t / (2.0 * s * s)).exp(),
            KernelKind::Triangle => 1.0 - (2.0 * t / w as f64).abs(),
            KernelKind::Cosine => 0.5 * (1.0 + (2.0 * core::f64::consts::PI * t / w as f64).cos()),
            KernelKind::BSpline => {
                // Cubic B-spline on [−2, 2], scaled so support = [−W/2, W/2].
                let x = 4.0 * t.abs() / w as f64; // |x| ≤ 2 inside support
                if x < 1.0 {
                    2.0 / 3.0 - x * x + x * x * x / 2.0
                } else if x < 2.0 {
                    (2.0 - x).powi(3) / 6.0
                } else {
                    0.0
                }
            }
            KernelKind::Sinc => {
                let taper = 0.5 * (1.0 + (2.0 * core::f64::consts::PI * t / w as f64).cos());
                sinc(2.0 * t / w as f64 * 2.0) * taper
            }
        }
    }

    /// Continuous Fourier transform of the window evaluated at frequency
    /// `nu` (cycles per grid unit): `φ̂(ν) = ∫ φ(t) e^{−2πiνt} dt` (real,
    /// since all windows are even).
    ///
    /// Kaiser-Bessel and Gaussian use their analytic transforms; the
    /// remaining windows use adaptive Simpson quadrature over the support
    /// (exactness is verified against quadrature in tests for the
    /// analytic cases too).
    pub fn ft(&self, nu: f64, w: usize) -> f64 {
        match *self {
            KernelKind::Auto => panic!("resolve() the kernel before evaluating"),
            KernelKind::KaiserBessel { beta } => kb_ft(nu, w, beta),
            KernelKind::Gaussian { s } => {
                // FT of the *untruncated* Gaussian; truncation error is
                // negligible for the s used in practice (s ≲ W/6).
                let two_pi = 2.0 * core::f64::consts::PI;
                s * (two_pi).sqrt() * (-(two_pi * two_pi) * nu * nu * s * s / 2.0).exp()
            }
            KernelKind::Triangle => {
                let half = w as f64 / 2.0;
                half * sinc(half * nu).powi(2)
            }
            KernelKind::Cosine => self.ft_quadrature(nu, w),
            KernelKind::BSpline => {
                // FT of B₃(4t/W) = (W/4)·sinc⁴(Wν/4).
                let q = w as f64 / 4.0;
                q * sinc(q * nu).powi(4)
            }
            KernelKind::Sinc => self.ft_quadrature(nu, w),
        }
    }

    /// Numerical Fourier transform via composite Simpson quadrature — the
    /// fallback used for windows without a closed form, and the oracle the
    /// analytic forms are tested against.
    pub fn ft_quadrature(&self, nu: f64, w: usize) -> f64 {
        // The integrand φ(t)cos(2πνt) oscillates with period 1/ν; resolve
        // both the window and the oscillation.
        let half = w as f64 / 2.0;
        let oscillations = (nu.abs() * w as f64).ceil() as usize + 1;
        let n = (1024 * oscillations.max(4))
            .next_power_of_two()
            .min(1 << 20);
        let h = 2.0 * half / n as f64;
        let f = |t: f64| self.eval(t, w) * (2.0 * core::f64::consts::PI * nu * t).cos();
        let mut sum = f(-half) + f(half);
        for i in 1..n {
            let t = -half + i as f64 * h;
            sum += f(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        sum * h / 3.0
    }
}

/// Beatty et al.'s Kaiser-Bessel shape parameter:
/// `β = π√((W/σ)²(σ−½)² − 0.8)`.
pub fn beatty_beta(w: usize, sigma: f64) -> f64 {
    let wf = w as f64;
    let inner = (wf / sigma).powi(2) * (sigma - 0.5).powi(2) - 0.8;
    core::f64::consts::PI * inner.max(0.0).sqrt()
}

/// Analytic Fourier transform of the Kaiser-Bessel window
/// (normalized by `I0(β)` to match [`KernelKind::eval`]):
///
/// `φ̂(ν) = (W/I0(β)) · sinh(√(β² − (πWν)²)) / √(β² − (πWν)²)`,
/// with `sinh → sin` when the radicand turns negative.
fn kb_ft(nu: f64, w: usize, beta: f64) -> f64 {
    let wf = w as f64;
    let x = core::f64::consts::PI * wf * nu;
    let radicand = beta * beta - x * x;
    let core = if radicand > 0.0 {
        let r = radicand.sqrt();
        jigsaw_num::special::sinhc(r)
    } else {
        let r = (-radicand).sqrt();
        jigsaw_num::special::sinxc(r)
    };
    wf * core / bessel_i0(beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<(KernelKind, usize)> {
        vec![
            (KernelKind::Auto.resolve(6, 2.0), 6),
            (KernelKind::KaiserBessel { beta: 8.0 }, 4),
            (KernelKind::Gaussian { s: 0.6 }, 6),
            (KernelKind::Triangle, 4),
            (KernelKind::Cosine, 6),
            (KernelKind::BSpline, 8),
            (KernelKind::Sinc, 6),
        ]
    }

    #[test]
    fn family_codes_are_stable_and_invert() {
        let families = [
            (KernelKind::Auto, 0),
            (KernelKind::KaiserBessel { beta: 8.0 }, 1),
            (KernelKind::Gaussian { s: 0.6 }, 2),
            (KernelKind::Triangle, 3),
            (KernelKind::Cosine, 4),
            (KernelKind::BSpline, 5),
            (KernelKind::Sinc, 6),
        ];
        for (k, want) in families {
            let (code, param) = k.code();
            assert_eq!(code, want, "{k:?}");
            assert_eq!(KernelKind::from_code(code, param), Some(k));
        }
        assert_eq!(KernelKind::from_code(7, 0.0), None);
    }

    #[test]
    fn windows_are_even_and_peak_at_center() {
        for (k, w) in kernels() {
            for i in 1..20 {
                let t = i as f64 * 0.07 * w as f64 / 2.0 / 1.4;
                assert!(
                    (k.eval(t, w) - k.eval(-t, w)).abs() < 1e-14,
                    "{k:?} not even at {t}"
                );
                assert!(k.eval(t, w) <= k.eval(0.0, w) + 1e-14, "{k:?} not peaked");
            }
            assert!(k.eval(0.0, w) > 0.0);
        }
    }

    #[test]
    fn zero_outside_support() {
        for (k, w) in kernels() {
            assert_eq!(k.eval(w as f64 / 2.0 + 0.001, w), 0.0);
            assert_eq!(k.eval(-(w as f64) / 2.0 - 5.0, w), 0.0);
        }
    }

    #[test]
    fn kb_normalized_to_one_at_center() {
        let k = KernelKind::Auto.resolve(6, 2.0);
        assert!((k.eval(0.0, 6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beatty_beta_reference_value() {
        // W = 6, σ = 2: β = π√(9·2.25 − 0.8) = π√19.45 ≈ 13.8551.
        let b = beatty_beta(6, 2.0);
        assert!((b - core::f64::consts::PI * (19.45f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn analytic_ft_matches_quadrature_kb() {
        let k = KernelKind::Auto.resolve(6, 2.0);
        for i in 0..25 {
            let nu = i as f64 * 0.02; // up to 0.48 cycles/unit
            let analytic = k.ft(nu, 6);
            let numeric = k.ft_quadrature(nu, 6);
            // The I0 polynomial approximation limits agreement to ~1e-7.
            assert!(
                (analytic - numeric).abs() < 3e-7 * k.ft(0.0, 6).abs().max(1.0),
                "nu={nu}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn analytic_ft_matches_quadrature_triangle() {
        let k = KernelKind::Triangle;
        for i in 0..20 {
            let nu = i as f64 * 0.025;
            assert!((k.ft(nu, 4) - k.ft_quadrature(nu, 4)).abs() < 1e-8);
        }
    }

    #[test]
    fn analytic_ft_matches_quadrature_bspline() {
        let k = KernelKind::BSpline;
        for i in 0..20 {
            let nu = i as f64 * 0.025;
            assert!(
                (k.ft(nu, 8) - k.ft_quadrature(nu, 8)).abs() < 1e-8,
                "nu={nu}: {} vs {}",
                k.ft(nu, 8),
                k.ft_quadrature(nu, 8)
            );
        }
    }

    #[test]
    fn bspline_partition_of_unity() {
        // Cubic B-splines on an integer lattice sum to 1: with support
        // scaled to W = 8, shifts by W/4 = 2 tile the line.
        let k = KernelKind::BSpline;
        for i in 0..40 {
            let t = -2.0 + i as f64 * 0.1;
            let total: f64 = (-4..=4).map(|s| k.eval(t + 2.0 * s as f64, 8)).sum();
            assert!((total - 1.0).abs() < 1e-12, "t={t}: {total}");
        }
    }

    #[test]
    fn analytic_ft_matches_quadrature_gaussian() {
        // Narrow Gaussian so truncation at W/2 = 3 is negligible.
        let k = KernelKind::Gaussian { s: 0.6 };
        for i in 0..20 {
            let nu = i as f64 * 0.025;
            assert!(
                (k.ft(nu, 6) - k.ft_quadrature(nu, 6)).abs() < 1e-6,
                "nu={nu}"
            );
        }
    }

    #[test]
    fn ft_at_zero_is_window_area() {
        for (k, w) in kernels() {
            // Riemann-sum of the window.
            let n = 20000;
            let h = w as f64 / n as f64;
            let area: f64 = (0..n)
                .map(|i| k.eval(-(w as f64) / 2.0 + (i as f64 + 0.5) * h, w) * h)
                .sum();
            assert!(
                (k.ft(0.0, w) - area).abs() < 1e-4 * area.max(1e-9),
                "{k:?}: ft(0)={} area={area}",
                k.ft(0.0, w)
            );
        }
    }

    #[test]
    fn ft_decays_beyond_passband_kb() {
        // The KB transform should be strongly attenuated past ν ≈ β/(πW),
        // which is what makes the σN grid alias-safe.
        let k = KernelKind::Auto.resolve(6, 2.0);
        let dc = k.ft(0.0, 6);
        let edge = k.ft(0.75, 6).abs(); // beyond the [−½, ½]/σ passband
        assert!(edge / dc < 1e-3, "stopband leakage {}", edge / dc);
    }

    #[test]
    #[should_panic(expected = "resolve()")]
    fn auto_kernel_must_be_resolved() {
        KernelKind::Auto.eval(0.0, 6);
    }
}
