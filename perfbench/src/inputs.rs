//! Seeded input synthesis and the correctness oracles every op is
//! checked against.

use jigsaw_core::config::NufftConfig;
use jigsaw_core::gridding::SerialGridder;
use jigsaw_core::nufft::NufftPlan;
use jigsaw_core::phantom::Phantom2d;
use jigsaw_core::serve::trajectory_hash;
use jigsaw_core::traj;
use jigsaw_num::C64;

/// SplitMix64: the benchmark's only source of derived randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct odd shuffle seeds derived from the workload seed.
///
/// `traj::shuffle` ORs its seed with 1, so seeds `2k` and `2k + 1` give
/// the same order: deriving `base + 2i` from an odd base keeps every
/// derived seed odd and distinct.
pub fn shuffle_seeds(workload_seed: u64, count: usize) -> Vec<u64> {
    let base = splitmix64(workload_seed) | 1;
    (0..count as u64)
        .map(|i| base.wrapping_add(2 * i))
        .collect()
}

/// One served trajectory: golden-angle radial samples in a seeded order,
/// with the Shepp-Logan phantom's analytic k-space at those samples.
#[derive(Debug, Clone)]
pub struct Trajectory {
    pub coords: Vec<[f64; 2]>,
    pub values: Vec<C64>,
}

/// `count` reorderings of one radial acquisition (`spokes` spokes of
/// `2n` samples), each a distinct plan-cache key. Fails if two of them
/// hash alike, since the cache would then serve one for the other.
pub fn trajectory_pool(
    n: usize,
    spokes: usize,
    count: usize,
    workload_seed: u64,
) -> Result<Vec<Trajectory>, String> {
    let coords = traj::radial_2d(spokes, 2 * n, true);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let pairs: Vec<([f64; 2], C64)> = coords.into_iter().zip(values).collect();
    let pool: Vec<Trajectory> = shuffle_seeds(workload_seed, count)
        .into_iter()
        .map(|seed| {
            let mut p = pairs.clone();
            traj::shuffle(&mut p, seed);
            let (coords, values) = p.into_iter().unzip();
            Trajectory { coords, values }
        })
        .collect();
    let mut hashes: Vec<u64> = pool.iter().map(|t| trajectory_hash(&t.coords)).collect();
    hashes.sort_unstable();
    hashes.dedup();
    if hashes.len() != pool.len() {
        return Err(format!(
            "trajectory pool has {} distinct hashes for {} trajectories",
            hashes.len(),
            pool.len()
        ));
    }
    Ok(pool)
}

/// The image a served job must reproduce bit for bit: a cold, unplanned
/// adjoint through the serial gridder.
pub fn reference_image(n: usize, t: &Trajectory) -> Result<Vec<C64>, String> {
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).map_err(|e| e.to_string())?;
    plan.adjoint(&t.coords, &t.values, &SerialGridder)
        .map(|o| o.image)
        .map_err(|e| e.to_string())
}

/// Whether two images are equal bit for bit (`==` would equate `0.0`
/// and `-0.0`).
pub fn bitwise_eq(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// `count` distinct pixel indices of an `n × n` image, from a fixed seed
/// so every run checks the same pixels.
pub fn pixel_subset(n: usize, count: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(count);
    let mut state = 0x5EED_u64;
    while picked.len() < count.min(n * n) {
        state = splitmix64(state);
        let p = (state % (n * n) as u64) as usize;
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked
}

/// Exact adjoint NuDFT at selected pixels only:
/// `out[i] = Σ_j values[j]·e^{+2πi k_i·ν_j}`, with the same row-major
/// `[−N/2, N/2)²` indexing as `nudft::adjoint_nudft`.
pub fn nudft_at_pixels(
    n: usize,
    coords: &[[f64; 2]],
    values: &[C64],
    pixels: &[usize],
) -> Vec<C64> {
    let two_pi = 2.0 * core::f64::consts::PI;
    pixels
        .iter()
        .map(|&p| {
            let k0 = (p / n) as f64 - (n / 2) as f64;
            let k1 = (p % n) as f64 - (n / 2) as f64;
            coords
                .iter()
                .zip(values)
                .map(|(c, &v)| v * C64::cis(two_pi * (k0 * c[0] + k1 * c[1])))
                .sum()
        })
        .collect()
}

/// Relative L2 error of `image` against the exact NuDFT on `pixels`.
pub fn rel_error_at_pixels(image: &[C64], t: &Trajectory, n: usize, pixels: &[usize]) -> f64 {
    let exact = nudft_at_pixels(n, &t.coords, &t.values, pixels);
    let got: Vec<C64> = pixels.iter().map(|&p| image[p]).collect();
    jigsaw_core::metrics::rel_l2(&got, &exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::nudft::adjoint_nudft;

    #[test]
    fn derived_seeds_are_odd_and_distinct() {
        for workload_seed in 0..64 {
            let seeds = shuffle_seeds(workload_seed, 6);
            assert!(seeds.iter().all(|s| s & 1 == 1));
            let mut d = seeds.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 6);
        }
    }

    #[test]
    fn pool_trajectories_are_distinct_keys_and_reproducible() {
        let a = trajectory_pool(16, 8, 6, 1000).unwrap();
        let b = trajectory_pool(16, 8, 6, 1000).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.coords, y.coords);
        }
        let c = trajectory_pool(16, 8, 6, 1001).unwrap();
        assert_ne!(a[0].coords, c[0].coords);
    }

    #[test]
    fn pixel_nudft_matches_the_full_oracle() {
        let n = 12;
        let t = &trajectory_pool(n, 6, 1, 3).unwrap()[0];
        let full = adjoint_nudft::<2>(n, &t.coords, &t.values, Some(1));
        let pixels = pixel_subset(n, 20);
        let sub = nudft_at_pixels(n, &t.coords, &t.values, &pixels);
        for (&p, z) in pixels.iter().zip(&sub) {
            assert!(
                (full[p] - *z).abs() <= 1e-9 * full[p].abs().max(1.0),
                "pixel {p}"
            );
        }
    }

    #[test]
    fn reference_image_is_close_to_the_nudft() {
        let n = 16;
        let t = &trajectory_pool(n, 12, 1, 5).unwrap()[0];
        let image = reference_image(n, t).unwrap();
        let err = rel_error_at_pixels(&image, t, n, &pixel_subset(n, 32));
        assert!(err > 0.0 && err < 1e-2, "rel error {err}");
    }
}
