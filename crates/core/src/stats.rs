//! Instrumentation counters for the gridding engines.
//!
//! §III motivates Slice-and-Dice with an operation-count argument: a naive
//! output-parallel gridder performs `M·N^d` boundary checks, binning
//! shrinks that to `Σ|bin|·B^d` but re-processes straddling samples and
//! needs a presort pass, while Slice-and-Dice performs exactly `M·T^d`
//! checks with no presort and no duplicates. Every engine reports these
//! counts so the benches can print the paper's complexity table next to
//! the measured wall-clock times.
//!
//! `GridStats` predates the [`jigsaw_telemetry`] registry; so the two
//! systems don't drift apart, [`GridStats::mirror`] publishes every
//! counter into the registry under `grid.<engine>.*` names (counts
//! exactly, times as nanosecond histogram samples).

use jigsaw_telemetry as telemetry;

/// Counters and timings returned by one gridding invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridStats {
    /// Number of distinct non-uniform input samples `M`.
    pub samples: usize,
    /// Samples actually processed, *including* duplicates — for binning
    /// this counts a straddling sample once per bin it lands in (Fig. 3a
    /// processes 16 sample instances for 6 samples).
    pub samples_processed: usize,
    /// Logical boundary checks performed by the engine's parallel model
    /// (`M·N^d` naive, `Σ|bin|·B^d` binned, `M·T^d` Slice-and-Dice, 0 for
    /// the purely input-driven serial gridder).
    pub boundary_checks: u64,
    /// Kernel multiply-accumulate operations (one per affected grid
    /// point, i.e. `W^d` per processed sample).
    pub kernel_accumulations: u64,
    /// Seconds spent pre-sorting samples into bins (zero for every engine
    /// except binning — eliminating this step is a headline claim).
    pub presort_seconds: f64,
    /// Seconds spent in the gridding pass proper.
    pub gridding_seconds: f64,
}

impl GridStats {
    /// Total wall-clock seconds of the gridding call (presort +
    /// gridding). A NuFFT's FFT and apodization times are in its
    /// [`crate::nufft::StageTimings`].
    pub fn total_seconds(&self) -> f64 {
        self.presort_seconds + self.gridding_seconds
    }

    /// Duplicate sample-processing factor (1.0 = no duplication).
    pub fn duplication_factor(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            self.samples_processed as f64 / self.samples as f64
        }
    }

    /// Mirror these stats into the global telemetry registry under
    /// `grid.<engine>.*` (no-op when telemetry is disabled). Counts are
    /// added to counters bit-exactly; phase times are recorded as
    /// nanosecond samples in histograms.
    pub fn mirror(&self, engine: &str) {
        if !telemetry::enabled() {
            return;
        }
        self.mirror_to(telemetry::global(), engine);
    }

    /// [`GridStats::mirror`] into an explicit registry (testable without
    /// global state).
    pub fn mirror_to(&self, registry: &telemetry::Registry, engine: &str) {
        let c = |metric: &str| registry.counter(&format!("grid.{engine}.{metric}"));
        c("samples").add(self.samples as u64);
        c("samples_processed").add(self.samples_processed as u64);
        c("boundary_checks").add(self.boundary_checks);
        c("kernel_accumulations").add(self.kernel_accumulations);
        let h = |metric: &str| registry.histogram(&format!("grid.{engine}.{metric}"));
        h("presort_ns").record(secs_to_ns(self.presort_seconds));
        h("gridding_ns").record(secs_to_ns(self.gridding_seconds));
    }
}

fn secs_to_ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplication_factor() {
        let s = GridStats {
            samples: 6,
            samples_processed: 16,
            ..Default::default()
        };
        // Fig. 3a's example: 6 samples, 16 processed instances.
        assert!((s.duplication_factor() - 16.0 / 6.0).abs() < 1e-12);
        assert_eq!(GridStats::default().duplication_factor(), 1.0);
    }

    #[test]
    fn total_includes_every_phase() {
        let s = GridStats {
            presort_seconds: 0.5,
            gridding_seconds: 1.0,
            ..Default::default()
        };
        assert_eq!(s.total_seconds(), 1.5);
    }

    #[test]
    fn mirror_is_bitwise_for_counts() {
        let s = GridStats {
            samples: 4096,
            samples_processed: 5000,
            boundary_checks: 262_144,
            kernel_accumulations: 147_456,
            presort_seconds: 0.001,
            gridding_seconds: 0.002,
        };
        let reg = telemetry::Registry::new();
        s.mirror_to(&reg, "binned");
        s.mirror_to(&reg, "binned"); // counters accumulate across calls
        let snap = reg.snapshot();
        assert_eq!(snap.counter("grid.binned.samples"), Some(2 * 4096));
        assert_eq!(snap.counter("grid.binned.samples_processed"), Some(10_000));
        assert_eq!(
            snap.counter("grid.binned.boundary_checks"),
            Some(2 * 262_144)
        );
        assert_eq!(
            snap.counter("grid.binned.kernel_accumulations"),
            Some(2 * 147_456)
        );
        let h = snap.histogram("grid.binned.gridding_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 2 * 2_000_000);
    }
}
