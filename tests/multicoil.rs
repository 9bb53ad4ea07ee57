//! Multi-coil batch correctness through the public API: the batched
//! adjoint paths (sequential `adjoint_batch` and pool-parallel
//! `adjoint_batch_planned`) and the coil-combined SENSE adjoint must
//! reproduce N independent single-coil `adjoint` calls **exactly**
//! (`rel_l2 == 0` in f64), and the degenerate shapes — empty batch,
//! single sample, single coil — must behave.

use jigsaw::core::gridding::{
    BinnedGridder, Gridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw::core::metrics::rel_l2;
use jigsaw::core::sense::{self, CoilMaps};
use jigsaw::core::{NufftConfig, NufftPlan};
use jigsaw::num::C64;
use jigsaw_testkit::{cases, Rng};

fn problem(rng: &mut Rng, n: usize, m: usize, coils: usize) -> (Vec<[f64; 2]>, Vec<Vec<C64>>) {
    let coords: Vec<[f64; 2]> = (0..m)
        .map(|_| [rng.f64_range(-0.5, 0.5), rng.f64_range(-0.5, 0.5)])
        .collect();
    let _ = n;
    let batches: Vec<Vec<C64>> = (0..coils)
        .map(|_| {
            (0..m)
                .map(|_| C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)))
                .collect()
        })
        .collect();
    (coords, batches)
}

/// `adjoint_batch` over N coils equals N independent `adjoint` calls.
#[test]
fn sequential_batch_equals_singles() {
    cases!(8, |rng| {
        let n = 16usize;
        let m = rng.usize_range(1, 200);
        let coils = rng.usize_range(1, 6);
        let (coords, batches) = problem(rng, n, m, coils);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let refs: Vec<&[C64]> = batches.iter().map(|b| b.as_slice()).collect();

        let batch = plan.adjoint_batch(&coords, &refs, &SerialGridder).unwrap();
        assert_eq!(batch.len(), coils);
        for (c, out) in batch.iter().enumerate() {
            let single = plan.adjoint(&coords, &batches[c], &SerialGridder).unwrap();
            assert_eq!(rel_l2(&out.image, &single.image), 0.0, "coil {c}");
        }
    });
}

/// The planned pool-parallel batch equals N independent `adjoint` calls,
/// bitwise, for every coil count including ≥ 8 (the bench configuration).
#[test]
fn planned_batch_equals_singles_bitwise() {
    cases!(6, |rng| {
        let n = 16usize;
        let m = rng.usize_range(1, 150);
        let coils = *rng.choose(&[1usize, 2, 8, 9]);
        let (coords, batches) = problem(rng, n, m, coils);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let refs: Vec<&[C64]> = batches.iter().map(|b| b.as_slice()).collect();

        let traj = plan.plan_trajectory(&coords).unwrap();
        assert_eq!(traj.len(), m);
        let batch = plan.adjoint_batch_planned(&traj, &refs).unwrap();
        assert_eq!(batch.len(), coils);
        for (c, out) in batch.iter().enumerate() {
            let single = plan.adjoint(&coords, &batches[c], &SerialGridder).unwrap();
            assert_eq!(rel_l2(&out.image, &single.image), 0.0, "coil {c}");
            for (a, b) in out.image.iter().zip(single.image.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    });
}

/// Batching does not care which engine produced the singles: parallel
/// engines agree with the planned batch bitwise too (they share the
/// serial accumulation order per output point).
#[test]
fn planned_batch_matches_parallel_single_engine() {
    cases!(4, |rng| {
        let n = 16usize;
        let m = rng.usize_range(1, 150);
        let (coords, batches) = problem(rng, n, m, 3);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let refs: Vec<&[C64]> = batches.iter().map(|b| b.as_slice()).collect();
        let traj = plan.plan_trajectory(&coords).unwrap();
        let batch = plan.adjoint_batch_planned(&traj, &refs).unwrap();
        let engine = SliceDiceGridder::new(SliceDiceMode::ColumnParallel);
        for (c, out) in batch.iter().enumerate() {
            let single = plan.adjoint(&coords, &batches[c], &engine).unwrap();
            assert_eq!(rel_l2(&out.image, &single.image), 0.0, "coil {c}");
        }
    });
}

/// The SENSE adjoint equals cold serial single-coil adjoints weighted by
/// `conj(S_c)` and summed in coil order, bitwise, whichever deterministic
/// engine the caller passes. Odd coil counts give the two pool workers
/// unequal shares.
#[test]
fn sense_adjoint_equals_per_coil_serial_sum_bitwise() {
    cases!(6, |rng| {
        let n = 16usize;
        let m = rng.usize_range(1, 150);
        let coils = rng.usize_range(1, 10);
        let (coords, data) = problem(rng, n, m, coils);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
        let maps = CoilMaps::synthetic(n, coils);
        let mut reference = vec![C64::zeroed(); n * n];
        for (c, d) in data.iter().enumerate() {
            let image = plan.adjoint(&coords, d, &SerialGridder).unwrap().image;
            for ((a, x), s) in reference.iter_mut().zip(&image).zip(maps.map(c)) {
                *a += *x * s.conj();
            }
        }
        let gridders: [Box<dyn Gridder<f64, 2>>; 4] = [
            Box::new(SerialGridder),
            Box::new(SliceDiceGridder::new(SliceDiceMode::Serial)),
            Box::new(SliceDiceGridder::new(SliceDiceMode::ColumnParallel)),
            Box::new(BinnedGridder::default()),
        ];
        for g in &gridders {
            let got = sense::adjoint(&plan, &maps, &data, &coords, g.as_ref()).unwrap();
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{coils} coils");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{coils} coils");
            }
        }
    });
}

/// Degenerate shapes: empty batch → empty output; a single sample still
/// grids correctly; zero-value coils produce exactly zero images.
#[test]
fn degenerate_batches() {
    let n = 16usize;
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let coords = vec![[0.123f64, -0.321]];
    let traj = plan.plan_trajectory(&coords).unwrap();

    // Empty batch.
    let out = plan.adjoint_batch_planned(&traj, &[]).unwrap();
    assert!(out.is_empty());
    let out = plan.adjoint_batch(&coords, &[], &SerialGridder).unwrap();
    assert!(out.is_empty());

    // Single sample, single coil: matches the unbatched path.
    let values = vec![C64::new(0.5, -0.25)];
    let single = plan.adjoint(&coords, &values, &SerialGridder).unwrap();
    let batched = plan
        .adjoint_batch_planned(&traj, &[values.as_slice()])
        .unwrap();
    assert_eq!(batched.len(), 1);
    assert_eq!(rel_l2(&batched[0].image, &single.image), 0.0);
    assert_eq!(batched[0].grid_stats.samples, 1);

    // A zero coil in the middle of real coils comes back exactly zero.
    let zero = vec![C64::zeroed()];
    let mixed = plan
        .adjoint_batch_planned(
            &traj,
            &[values.as_slice(), zero.as_slice(), values.as_slice()],
        )
        .unwrap();
    assert!(mixed[1].image.iter().all(|z| z.re == 0.0 && z.im == 0.0));
    assert_eq!(rel_l2(&mixed[0].image, &mixed[2].image), 0.0);

    // Mismatched value length is rejected, not truncated.
    let short: Vec<C64> = vec![];
    assert!(plan
        .adjoint_batch_planned(&traj, &[short.as_slice()])
        .is_err());
}
