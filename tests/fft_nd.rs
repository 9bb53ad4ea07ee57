//! N-D FFT correctness against the O(n²) DFT oracle at shapes whose axes
//! are both Bluestein lengths and span more than one cache-blocked panel
//! (`PANEL_LINES` lines), so the strided gather/scatter and the
//! contiguous-axis tile transpose both run over a full panel and a
//! partial one.

use jigsaw::fft::nd::PANEL_LINES;
use jigsaw::fft::{dft, Direction, FftNd};
use jigsaw::num::C64;
use jigsaw_testkit::{cases, Rng};

/// 45 = 9·5 and 33 = 3·11: both axes take the Bluestein path, and each
/// axis pass covers 33 or 45 lines — more than one panel.
const SHAPE: [usize; 2] = [45, 33];

fn random_signal(rng: &mut Rng, len: usize) -> Vec<C64> {
    (0..len)
        .map(|_| C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)))
        .collect()
}

/// Golden test: the blocked *strided* (column) pass agrees with the
/// O(n²) DFT oracle applied along axis 0, independently of the
/// row-column implementation it is compared against elsewhere.
#[test]
fn blocked_column_pass_matches_dft_oracle() {
    let [rows, cols] = SHAPE;
    assert!(rows > PANEL_LINES && cols > PANEL_LINES);
    let mut rng = Rng::new(0xC01_0ACE);
    let input = random_signal(&mut rng, rows * cols);

    // Full 2-D transform…
    let plan = FftNd::<f64>::new(&SHAPE);
    let mut got = input.clone();
    plan.process(&mut got, Direction::Forward);

    // …must equal DFT along axis 0 of (DFT along axis 1 of input).
    let mut rows_done = input.clone();
    for r in rows_done.chunks_exact_mut(cols) {
        let out = dft(r, Direction::Forward);
        r.copy_from_slice(&out);
    }
    for c in 0..cols {
        let col: Vec<C64> = (0..rows).map(|r| rows_done[r * cols + c]).collect();
        let want = dft(&col, Direction::Forward);
        for r in 0..rows {
            let err = (got[r * cols + c] - want[r]).abs();
            assert!(err < 1e-9, "col {c} row {r}: err {err}");
        }
    }
}

/// A forward + inverse round trip restores the signal (inverse scaling
/// included) on a Bluestein-sized grid.
#[test]
fn bluestein_roundtrip_restores_input() {
    cases!(3, |rng| {
        let plan = FftNd::<f64>::new(&SHAPE);
        let input = random_signal(rng, plan.len());
        let mut data = input.clone();
        plan.process(&mut data, Direction::Forward);
        plan.process(&mut data, Direction::Inverse);
        for (i, (a, b)) in data.iter().zip(&input).enumerate() {
            assert!((*a - *b).abs() < 1e-10, "index {i}");
        }
    });
}
