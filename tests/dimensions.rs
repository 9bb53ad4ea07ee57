//! Dimensional coverage: the same generic machinery must work in 1-D
//! (degenerate), 2-D (the paper's main case), and 3-D.

use jigsaw::core::gridding::{ExactGridder, SerialGridder, SliceDiceGridder};
use jigsaw::core::metrics::rel_l2;
use jigsaw::core::nudft::adjoint_nudft;
use jigsaw::core::toeplitz::ToeplitzOperator;
use jigsaw::core::{NufftConfig, NufftPlan};
use jigsaw::num::C64;

fn rand_coords<const D: usize>(m: usize, seed: u64) -> Vec<[f64; D]> {
    jigsaw::core::traj::random_nd::<D>(m, seed)
}

fn rand_values(m: usize, seed: u64) -> Vec<C64> {
    let mut s = seed | 3;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s as f64 / u64::MAX as f64 - 0.5
    };
    (0..m).map(|_| C64::new(next(), next())).collect()
}

#[test]
fn one_dimensional_nufft_matches_nudft() {
    let n = 64;
    let coords = rand_coords::<1>(200, 1);
    let values = rand_values(200, 2);
    let plan = NufftPlan::<f64, 1>::new(NufftConfig::with_n(n)).unwrap();
    let img = plan.adjoint(&coords, &values, &ExactGridder).unwrap().image;
    let exact = adjoint_nudft(n, &coords, &values, None);
    let err = rel_l2(&img, &exact);
    assert!(err < 1e-4, "1-D adjoint error {err}");
    // Forward round too.
    let fwd = plan.forward(&img, &coords).unwrap().samples;
    assert_eq!(fwd.len(), 200);
}

#[test]
fn one_dimensional_engines_agree() {
    let n = 64;
    let coords = rand_coords::<1>(300, 5);
    let values = rand_values(300, 6);
    let plan = NufftPlan::<f64, 1>::new(NufftConfig::with_n(n)).unwrap();
    let a = plan
        .adjoint(&coords, &values, &SerialGridder)
        .unwrap()
        .image;
    let b = plan
        .adjoint(&coords, &values, &SliceDiceGridder::default())
        .unwrap()
        .image;
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

#[test]
fn three_dimensional_toeplitz_matches_composition() {
    let n = 8;
    let coords = rand_coords::<3>(150, 9);
    let cfg = NufftConfig::with_n(n);
    let plan = NufftPlan::<f64, 3>::new(cfg.clone()).unwrap();
    let top = ToeplitzOperator::<3>::build(&cfg, &coords, &[]).unwrap();
    let x = rand_values(n * n * n, 4);
    let via_pair = plan
        .adjoint(
            &coords,
            &plan.forward(&x, &coords).unwrap().samples,
            &ExactGridder,
        )
        .unwrap()
        .image;
    let via_toeplitz = top.apply(&x).unwrap();
    let err = rel_l2(&via_toeplitz, &via_pair);
    assert!(err < 5e-2, "3-D Toeplitz vs pair: {err}");
}
