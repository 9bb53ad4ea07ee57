//! NuFFT and gridding configuration.
//!
//! Mirrors the paper's parameter vocabulary (§II-§IV and Table I):
//!
//! * `N` — base uniform grid size per dimension,
//! * `σ` — grid oversampling factor (§II-B; default 2, Beatty σ ≤ 2),
//! * `W` — interpolation window width in oversampled grid units,
//! * `L` — *table* oversampling factor: number of LUT weights per grid
//!   unit (coordinate granularity is `1/L`),
//! * `T` — virtual tile dimension of the Slice-and-Dice decomposition.

use crate::kernel::KernelKind;
use crate::{Error, Result};

/// Parameters of a gridding operation onto the oversampled grid.
///
/// `GridParams` describes only the grid-side problem (what the gridding
/// engines need); [`NufftConfig`] wraps it with image-side information.
#[derive(Debug, Clone, PartialEq)]
pub struct GridParams {
    /// Oversampled grid size per dimension (`G = σN`).
    pub grid: usize,
    /// Interpolation window width `W` (grid units).
    pub width: usize,
    /// Table oversampling factor `L` (power of two).
    pub table_oversampling: usize,
    /// Virtual tile dimension `T` (Slice-and-Dice / JIGSAW).
    pub tile: usize,
    /// Interpolation kernel.
    pub kernel: KernelKind,
}

impl GridParams {
    /// Validate against the constraints shared by all engines and the
    /// JIGSAW hardware (Table I): `T | G`, `W ≤ T`, `W ≤ MAX_W`, `L` a
    /// power of two.
    pub fn validate(&self) -> Result<()> {
        if self.grid == 0 {
            return Err(Error::Config("grid size must be positive".into()));
        }
        if self.width == 0 {
            return Err(Error::Config("window width must be positive".into()));
        }
        if self.tile == 0 || !self.tile.is_power_of_two() {
            return Err(Error::Config(format!(
                "tile dimension must be a positive power of two, got {}",
                self.tile
            )));
        }
        if !self.grid.is_multiple_of(self.tile) {
            return Err(Error::Config(format!(
                "tile dimension {} must divide grid size {}",
                self.tile, self.grid
            )));
        }
        if self.width > crate::gridding::MAX_W {
            return Err(Error::Config(format!(
                "window width {} exceeds the supported maximum {}",
                self.width,
                crate::gridding::MAX_W
            )));
        }
        if self.width > self.tile {
            return Err(Error::Config(format!(
                "window width {} must not exceed tile dimension {} \
                 (Slice-and-Dice requires W ≤ T so a sample affects at most \
                 one point per column)",
                self.width, self.tile
            )));
        }
        if !self.table_oversampling.is_power_of_two() {
            return Err(Error::Config(format!(
                "table oversampling factor must be a power of two, got {}",
                self.table_oversampling
            )));
        }
        Ok(())
    }

    /// Number of virtual tiles per dimension (`G/T`).
    pub fn tiles_per_dim(&self) -> usize {
        self.grid / self.tile
    }

    /// Number of stored LUT weights per dimension, exploiting kernel
    /// symmetry: `WL/2 + 1` (§IV "Weight Lookup").
    pub fn lut_len(&self) -> usize {
        self.width * self.table_oversampling / 2 + 1
    }
}

/// Full NuFFT problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NufftConfig {
    /// Base (image) grid size per dimension, `N`.
    pub n: usize,
    /// Grid oversampling factor `σ` (typically 1.25–2).
    pub sigma: f64,
    /// Interpolation window width `W`.
    pub width: usize,
    /// Table oversampling factor `L`.
    pub table_oversampling: usize,
    /// Virtual tile dimension `T`.
    pub tile: usize,
    /// Interpolation kernel. `KernelKind::Auto` selects Kaiser-Bessel with
    /// the Beatty-optimal shape parameter for (`W`, `σ`).
    pub kernel: KernelKind,
}

impl NufftConfig {
    /// A reasonable default configuration matching the paper's running
    /// example: σ = 2, W = 6, L = 32, T = 8, Beatty Kaiser-Bessel.
    pub fn with_n(n: usize) -> Self {
        Self {
            n,
            sigma: 2.0,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: KernelKind::Auto,
        }
    }

    /// The oversampled grid size `G = round(σN)`, rounded up to the next
    /// multiple of the tile dimension.
    pub fn grid_size(&self) -> usize {
        let g = (self.sigma * self.n as f64).ceil() as usize;
        g.div_ceil(self.tile) * self.tile
    }

    /// The *effective* oversampling factor after grid rounding (`G/N`).
    pub fn effective_sigma(&self) -> f64 {
        self.grid_size() as f64 / self.n as f64
    }

    /// Resolve [`KernelKind::Auto`] into a concrete kernel for this
    /// configuration.
    pub fn resolved_kernel(&self) -> KernelKind {
        self.kernel.resolve(self.width, self.effective_sigma())
    }

    /// Grid-side parameter block for the gridding engines.
    pub fn grid_params(&self) -> GridParams {
        GridParams {
            grid: self.grid_size(),
            width: self.width,
            table_oversampling: self.table_oversampling,
            tile: self.tile,
            kernel: self.resolved_kernel(),
        }
    }

    /// Validate the full configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 {
            return Err(Error::Config("image size N must be positive".into()));
        }
        if !(1.0..=8.0).contains(&self.sigma) {
            return Err(Error::Config(format!(
                "oversampling factor σ = {} outside supported range [1, 8]",
                self.sigma
            )));
        }
        if self.grid_size() < self.n {
            return Err(Error::Config("oversampled grid smaller than image".into()));
        }
        self.grid_params().validate()
    }
}

/// Beatty et al.'s minimal-oversampling kernel width rule (§II-B, paper ref \[1\]):
/// given a target aliasing accuracy, a smaller σ requires a wider kernel.
/// This helper returns the Kaiser-Bessel width achieving roughly the same
/// aliasing error at oversampling `sigma` that width `w_ref` achieves at
/// σ = 2 (error scales as `exp(-πW√((σ−½)/σ − ¼))`; solve for W).
pub fn beatty_width(w_ref: usize, sigma: f64) -> usize {
    assert!(sigma > 1.0, "Beatty widening needs σ > 1");
    let decay = |s: f64| ((s - 0.5) / s - 0.25).max(1e-6).sqrt();
    let w = w_ref as f64 * decay(2.0) / decay(sigma);
    w.ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = NufftConfig::with_n(256);
        assert!(c.validate().is_ok());
        assert_eq!(c.grid_size(), 512);
        assert_eq!(c.effective_sigma(), 2.0);
    }

    #[test]
    fn grid_rounds_up_to_tile_multiple() {
        let mut c = NufftConfig::with_n(100);
        c.sigma = 1.5;
        // 150 → next multiple of 8 = 152.
        assert_eq!(c.grid_size(), 152);
        assert!(c.effective_sigma() > 1.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_w_greater_than_t() {
        let mut c = NufftConfig::with_n(64);
        c.width = 10;
        assert!(matches!(c.validate(), Err(Error::Config(_))));
    }

    #[test]
    fn rejects_non_pow2_l() {
        let mut c = NufftConfig::with_n(64);
        c.table_oversampling = 24;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_non_pow2_tile() {
        let mut c = NufftConfig::with_n(64);
        c.tile = 6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_degenerate_sizes() {
        let c = NufftConfig::with_n(0);
        assert!(c.validate().is_err());
        let mut c2 = NufftConfig::with_n(64);
        c2.sigma = 0.5;
        assert!(c2.validate().is_err());
        let mut c3 = NufftConfig::with_n(64);
        c3.width = 0;
        assert!(c3.validate().is_err());
    }

    #[test]
    fn lut_len_matches_paper_capacity() {
        // Paper §IV: 256 stored weights support W = 8, L = 64.
        let p = GridParams {
            grid: 2048,
            width: 8,
            table_oversampling: 64,
            tile: 8,
            kernel: KernelKind::Auto,
        };
        assert_eq!(p.lut_len(), 257); // 256 symmetric weights + center
    }

    #[test]
    fn beatty_widens_kernel_at_lower_sigma() {
        let w2 = beatty_width(6, 2.0);
        assert_eq!(w2, 6); // reference point
        let w125 = beatty_width(6, 1.25);
        assert!(w125 > 6, "σ = 1.25 must need a wider kernel, got {w125}");
        let w15 = beatty_width(6, 1.5);
        assert!(w15 > w2 && w15 <= w125);
    }

    #[test]
    fn tiles_per_dim() {
        let p = NufftConfig::with_n(512).grid_params();
        assert_eq!(p.tiles_per_dim(), 128);
    }
}
