//! The planned paths expand every sample's window from its stored
//! decomposition (base and half-LUT offset per dimension) with the same
//! function the unplanned engines use, so they must reproduce the
//! unplanned serial adjoint and an unplanned serial forward **bit for
//! bit** — across window widths, table oversampling factors, grid
//! oversampling factors (grids that are not powers of two), dimensions,
//! and samples on the torus and tile seams. The forward reference is
//! built from public parts only: the pre-apodized embed, the uniform FFT
//! and the on-the-fly serial gather `interp::interpolate`. Also pins the
//! configuration bound that keeps every window inside the fixed-size
//! expansion scratch.

use jigsaw::core::apod::Apodization;
use jigsaw::core::config::GridParams;
use jigsaw::core::gridding::{SerialGridder, MAX_W};
use jigsaw::core::interp;
use jigsaw::core::kernel::KernelKind;
use jigsaw::core::{Error, NufftConfig, NufftPlan};
use jigsaw::fft::{Direction, FftNd};
use jigsaw::num::C64;
use jigsaw_testkit::{cases, Rng};

fn bits(v: &[C64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// One coordinate in cycles, biased toward the seams: exactly on (or
/// one ulp either side of) the torus wrap, a window base exactly on a
/// tile seam, the `−½` edge, or uniform.
fn seam_coord(rng: &mut Rng, cfg: &NufftConfig) -> f64 {
    let g = cfg.grid_size() as f64;
    match rng.usize_range(0, 6) {
        0 => 0.0,
        1 => *rng.choose(&[f64::EPSILON, -f64::EPSILON, -1e-12, 1e-12]),
        2 => -0.5,
        3 => {
            // Window base b = ⌊u + W/2⌋ exactly on a multiple of T.
            let seam = (rng.usize_range(0, cfg.grid_size() / cfg.tile) * cfg.tile) as f64;
            (seam - cfg.width as f64 / 2.0) / g
        }
        4 => rng.f64_range(-0.5, -0.5 + cfg.width as f64 / g),
        _ => rng.f64_range(-0.5, 0.5),
    }
}

/// A configuration with `W ∈ 1..=8`, `L ∈ {1, 4, 32}`, `σ ∈ {1.25, 2}`
/// and a grid size that is not a power of two.
fn config(rng: &mut Rng, n_range: (usize, usize)) -> NufftConfig {
    loop {
        let mut cfg = NufftConfig::with_n(rng.usize_range(n_range.0, n_range.1));
        cfg.width = rng.usize_range(1, 9);
        cfg.table_oversampling = *rng.choose(&[1usize, 4, 32]);
        cfg.sigma = *rng.choose(&[1.25, 2.0]);
        if !cfg.grid_size().is_power_of_two() {
            return cfg;
        }
    }
}

/// The forward NuFFT composed without a planned trajectory: pre-apodize
/// and embed `image` at `k mod G` (per-dimension factors multiplied in
/// dimension order), FFT the oversampled grid, and gather every mapped
/// coordinate serially.
fn unplanned_forward<const D: usize>(
    plan: &NufftPlan<f64, D>,
    image: &[C64],
    coords: &[[f64; D]],
) -> Vec<C64> {
    let cfg = plan.config();
    let (n, g) = (cfg.n, cfg.grid_size());
    let apod = Apodization::new(cfg);
    let mut grid = vec![C64::zeroed(); g.pow(D as u32)];
    for (flat, &v) in image.iter().enumerate() {
        let (mut dst, mut f) = (0usize, 1.0);
        for d in 0..D {
            let i = flat / n.pow((D - 1 - d) as u32) % n;
            let k = i as i64 - (n / 2) as i64;
            dst = dst * g + k.rem_euclid(g as i64) as usize;
            f *= apod.factor(i);
        }
        grid[dst] = v.scale(f);
    }
    FftNd::new(&[g; D]).process(&mut grid, Direction::Forward);
    let mut samples = vec![C64::zeroed(); coords.len()];
    interp::interpolate(
        plan.grid_params(),
        plan.lut(),
        &grid,
        &plan.map_coords(coords),
        &mut samples,
    )
    .unwrap();
    samples
}

fn planned_equals_unplanned<const D: usize>(rng: &mut Rng, n_range: (usize, usize)) {
    let cfg = config(rng, n_range);
    let plan = NufftPlan::<f64, D>::new(cfg.clone()).unwrap();
    let m = rng.usize_range(1, 160);
    let coords: Vec<[f64; D]> = (0..m)
        .map(|_| core::array::from_fn(|_| seam_coord(rng, &cfg)))
        .collect();
    let values: Vec<C64> = (0..m)
        .map(|_| C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)))
        .collect();
    let traj = plan.plan_trajectory(&coords).unwrap();

    let planned = plan.adjoint_batch_planned(&traj, &[&values]).unwrap();
    let serial = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
    assert_eq!(
        bits(&planned[0].image),
        bits(&serial.image),
        "planned adjoint differs: D={D} {cfg:?}"
    );

    let image = serial.image;
    let unplanned = bits(&unplanned_forward(&plan, &image, &coords));
    let planned = plan.forward_planned(&traj, &image).unwrap();
    assert_eq!(
        bits(&planned.samples),
        unplanned,
        "planned forward differs: D={D} {cfg:?}"
    );
    let one_shot = plan.forward(&image, &coords).unwrap();
    assert_eq!(
        bits(&one_shot.samples),
        unplanned,
        "one-shot forward differs: D={D} {cfg:?}"
    );
}

#[test]
fn planned_paths_match_unplanned_bitwise_1d() {
    cases!(24, |rng| planned_equals_unplanned::<1>(rng, (20, 120)));
}

#[test]
fn planned_paths_match_unplanned_bitwise_2d() {
    cases!(16, |rng| planned_equals_unplanned::<2>(rng, (12, 40)));
}

#[test]
fn planned_paths_match_unplanned_bitwise_3d() {
    cases!(8, |rng| planned_equals_unplanned::<3>(rng, (10, 20)));
}

/// `W ≤ T` alone admits `W = 17` once `T = 32`; the window scratch holds
/// `MAX_W = 16` points, so validation must refuse it as a config error
/// rather than let an engine index past the scratch.
#[test]
fn windows_wider_than_max_w_are_rejected() {
    let p = GridParams {
        grid: 64,
        width: MAX_W + 1,
        table_oversampling: 2,
        tile: 32,
        kernel: KernelKind::Auto.resolve(MAX_W + 1, 2.0),
    };
    assert!(matches!(p.validate(), Err(Error::Config(_))), "{p:?}");
    assert!(GridParams {
        width: MAX_W,
        ..p.clone()
    }
    .validate()
    .is_ok());

    let mut cfg = NufftConfig::with_n(32);
    cfg.tile = 32;
    cfg.width = MAX_W + 1;
    assert!(matches!(
        NufftPlan::<f64, 2>::new(cfg),
        Err(Error::Config(_))
    ));
}
