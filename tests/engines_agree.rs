//! Cross-crate property tests: every gridding engine — serial, naive
//! output-parallel, binned, Slice-and-Dice in all modes, and the JIGSAW
//! fixed-point simulator — must compute the *same gridding operator* for
//! any worker count.
//!
//! The deterministic f64 engines must agree **bitwise** (they share the
//! decomposition, the LUT, and the per-point accumulation order); the
//! atomic and fixed-point paths agree within their documented error
//! bounds.

use jigsaw::core::config::GridParams;
use jigsaw::core::gridding::{
    BinnedGridder, Gridder, NaiveOutputGridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw::core::kernel::KernelKind;
use jigsaw::core::lut::KernelLut;
use jigsaw::core::metrics::rel_l2;
use jigsaw::num::C64;
use jigsaw::sim::{Jigsaw2d, JigsawConfig};
use jigsaw_testkit::{cases, Rng};

fn params(grid: usize, width: usize, l: usize) -> GridParams {
    GridParams {
        grid,
        width,
        table_oversampling: l,
        tile: 8,
        kernel: KernelKind::Auto.resolve(width, 2.0),
    }
}

/// Draw 1..max_m samples uniformly over the `[0, grid)^2` torus, with a
/// bias toward the wrap-sensitive border band so every run exercises the
/// decrement-on-wrap paths.
fn arb_samples(rng: &mut Rng, grid: usize, max_m: usize) -> (Vec<[f64; 2]>, Vec<C64>) {
    let g = grid as f64;
    let m = rng.usize_range(1, max_m);
    let mut coords = Vec::with_capacity(m);
    let mut values = Vec::with_capacity(m);
    for _ in 0..m {
        let mut c = [0.0; 2];
        for x in c.iter_mut() {
            *x = if rng.bool(0.25) {
                // Border band: within W of either edge.
                let off = rng.f64_range(0.0, 8.0);
                if rng.bool(0.5) {
                    off
                } else {
                    (g - off).min(g * (1.0 - f64::EPSILON))
                }
            } else {
                rng.f64_range(0.0, g)
            };
        }
        coords.push(c);
        values.push(C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)));
    }
    (coords, values)
}

fn bits(grid: &[C64]) -> Vec<(u64, u64)> {
    grid.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Every deterministic engine, with 1/2/3/8 workers and tile side 8 or
/// 16, reproduces the serial reference bit-for-bit.
/// Three workers divide neither tile side, so Slice-and-Dice's row
/// ownership splits unevenly.
#[test]
fn deterministic_engines_agree_bitwise() {
    cases!(24, |rng| {
        let (coords, values) = arb_samples(rng, 32, 120);
        let width = rng.usize_range(1, 9);
        let l = *rng.choose(&[1usize, 4, 32, 64]);
        let tile = *rng.choose(&[8usize, 16]);
        let p = GridParams {
            tile,
            ..params(32, width, l)
        };
        let lut = KernelLut::from_params(&p);
        let npts = 32 * 32;
        let mut reference = vec![C64::zeroed(); npts];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut reference)
            .unwrap();
        let reference_bits = bits(&reference);
        for threads in [1usize, 2, 3, 8] {
            let engines: Vec<Box<dyn Gridder<f64, 2>>> = vec![
                Box::new(NaiveOutputGridder {
                    threads: Some(threads),
                }),
                Box::new(BinnedGridder {
                    bin_tile: 8,
                    threads: Some(threads),
                }),
                Box::new(BinnedGridder {
                    bin_tile: 16,
                    threads: Some(threads),
                }),
                Box::new(SliceDiceGridder {
                    mode: SliceDiceMode::Serial,
                    threads: None,
                }),
                Box::new(SliceDiceGridder {
                    mode: SliceDiceMode::ColumnParallel,
                    threads: Some(threads),
                }),
            ];
            for e in &engines {
                let mut out = vec![C64::zeroed(); npts];
                e.grid(&p, &lut, &coords, &values, &mut out).unwrap();
                assert_eq!(
                    bits(&out),
                    reference_bits,
                    "engine {} differs ({threads} threads, T = {tile})",
                    e.name()
                );
            }
        }
    });
}

/// Atomic/reduce block modes are allowed to reorder float adds; they must
/// still agree with the serial reference to ~f64 rounding.
#[test]
fn nondeterministic_engines_agree_within_fp() {
    cases!(16, |rng| {
        let (coords, values) = arb_samples(rng, 32, 120);
        let threads = rng.usize_range(2, 6);
        let p = params(32, 6, 32);
        let lut = KernelLut::from_params(&p);
        let npts = 32 * 32;
        let mut reference = vec![C64::zeroed(); npts];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut reference)
            .unwrap();
        for mode in [SliceDiceMode::BlockAtomic, SliceDiceMode::BlockReduce] {
            let mut out = vec![C64::zeroed(); npts];
            SliceDiceGridder {
                mode,
                threads: Some(threads),
            }
            .grid(&p, &lut, &coords, &values, &mut out)
            .unwrap();
            let err = rel_l2(&out, &reference);
            assert!(err < 1e-12, "mode {mode:?}: err {err}");
        }
    });
}

/// The fixed-point JIGSAW simulator tracks the f64 reference within its
/// quantization budget.
#[test]
fn jigsaw_sim_tracks_f64_reference() {
    cases!(12, |rng| {
        let (coords, values) = arb_samples(rng, 32, 150);
        let p = params(32, 6, 32);
        let lut = KernelLut::from_params(&p);
        let mut reference = vec![C64::zeroed(); 32 * 32];
        SerialGridder
            .grid(&p, &lut, &coords, &values, &mut reference)
            .unwrap();
        let mut hw = Jigsaw2d::new(JigsawConfig::small(32)).unwrap();
        let (stream, scale) = hw.quantize_inputs(&coords, &values).unwrap();
        let run = hw.run(&stream);
        assert_eq!(run.report.compute_cycles, coords.len() as u64 + 12);
        let err = rel_l2(&run.grid_c64(scale), &reference);
        // Q1.15 weights + Q15.16 accumulators: a generous 1 % bound; the
        // typical error is ~1e-4.
        assert!(err < 1e-2, "fixed-point error {err}");
    });
}

/// Total deposited mass is engine-independent.
#[test]
fn mass_conservation_all_engines() {
    cases!(12, |rng| {
        let (coords, values) = arb_samples(rng, 64, 60);
        let p = params(64, 6, 32);
        let lut = KernelLut::from_params(&p);
        let total = |engine: &dyn Gridder<f64, 2>| -> C64 {
            let mut out = vec![C64::zeroed(); 64 * 64];
            engine.grid(&p, &lut, &coords, &values, &mut out).unwrap();
            out.iter().copied().sum()
        };
        let a = total(&SerialGridder);
        let b = total(&BinnedGridder::default());
        let c = total(&SliceDiceGridder::default());
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        assert!((a - c).abs() <= 1e-9 * a.abs().max(1.0));
    });
}

#[test]
fn slice_dice_never_duplicates_samples() {
    // Deterministic spot-check of the headline claim across many edge
    // positions: samples straddling tile corners are processed once.
    let p = params(64, 6, 32);
    let lut = KernelLut::from_params(&p);
    for pos in [
        [15.9, 16.1],
        [16.0, 16.0],
        [0.0, 0.0],
        [63.99, 63.99],
        [8.0, 56.0],
    ] {
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats = SliceDiceGridder::default()
            .grid(&p, &lut, &[pos], &[C64::one()], &mut out)
            .unwrap();
        assert_eq!(stats.samples_processed, 1, "position {pos:?}");
        let binned = BinnedGridder::default()
            .grid(
                &p,
                &lut,
                &[pos],
                &[C64::one()],
                &mut vec![C64::zeroed(); 64 * 64],
            )
            .unwrap();
        assert!(binned.samples_processed >= 1);
    }
}
