//! Wrap-around regression tests for the window decomposition and the
//! row-major scatter (`sample_windows` / `scatter_rowmajor`).
//!
//! Three edge families, each a past or potential off-by-one site:
//!
//! * coordinates within `W − 1` of the grid boundary, where the window
//!   spans the torus seam and grid indices must wrap `G−1 → 0`;
//! * coordinates whose window base lands **exactly on a tile seam**
//!   (`base mod T == 0`), where the select-unit wrap test `rel < p`
//!   flips for every pipeline but 0;
//! * the decrement-on-wrap tile index, which must step `q → q − 1`
//!   **mod tiles-per-dim** (tile 0 wraps to the last tile, not to −1).

use jigsaw::core::config::GridParams;
use jigsaw::core::decomp::Decomposer;
use jigsaw::core::gridding::{sample_windows, scatter_rowmajor, Gridder, SerialGridder};
use jigsaw::core::kernel::KernelKind;
use jigsaw::core::lut::KernelLut;
use jigsaw::num::C64;
use jigsaw_testkit::{cases, Rng};

fn params(grid: usize, width: usize, tile: usize) -> GridParams {
    GridParams {
        grid,
        width,
        table_oversampling: 32,
        tile,
        kernel: KernelKind::Auto.resolve(width, 2.0),
    }
}

fn bits(grid: &[C64]) -> Vec<(u64, u64)> {
    grid.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// A coordinate within `W − 1` of either grid edge, in any dimension.
fn border_coord(rng: &mut Rng, g: f64, w: f64) -> f64 {
    let off = rng.f64_range(0.0, w - 1.0);
    if rng.bool(0.5) {
        off
    } else {
        (g - off).min(g * (1.0 - f64::EPSILON))
    }
}

/// Window indices of boundary samples wrap onto the torus: every index
/// stays in `[0, G)` and equals `(base − j) mod G` exactly.
#[test]
fn boundary_windows_wrap_onto_torus() {
    cases!(64, |rng| {
        let width = rng.usize_range(2, 9);
        let p = params(32, width, 8);
        let dec = Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        let c = [
            border_coord(rng, 32.0, width as f64),
            border_coord(rng, 32.0, width as f64),
        ];
        let (wins, decs) = sample_windows(&dec, &lut, &c);
        for d in 0..2 {
            for j in 0..width {
                let idx = wins[d].idx[j];
                assert!(idx < 32, "index {idx} escaped the grid at c={c:?}");
                let expect = (decs[d].base + 32 - j as u32) % 32;
                assert_eq!(idx, expect, "window point {j} of dim {d} at c={c:?}");
            }
        }
    });
}

/// Gridding is torus-equivariant: shifting every coordinate by an integer
/// lattice vector cyclically shifts the output grid, **bitwise**. This
/// pins the boundary-wrap arithmetic to the (well-tested) interior path.
#[test]
fn boundary_scatter_equals_shifted_interior_scatter() {
    cases!(32, |rng| {
        let g = 32usize;
        let width = rng.usize_range(2, 9);
        let p = params(g, width, 8);
        let dec = Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        let m = rng.usize_range(1, 40);
        // Samples clustered around the origin corner → wrapping windows.
        let coords: Vec<[f64; 2]> = (0..m)
            .map(|_| {
                [
                    border_coord(rng, g as f64, width as f64),
                    border_coord(rng, g as f64, width as f64),
                ]
            })
            .collect();
        let values: Vec<C64> = (0..m)
            .map(|_| C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)))
            .collect();
        let shift = [rng.usize_range(1, g), rng.usize_range(1, g)];

        let scatter = |cs: &[[f64; 2]]| {
            let mut out = vec![C64::zeroed(); g * g];
            for (c, &v) in cs.iter().zip(values.iter()) {
                let (wins, _) = sample_windows(&dec, &lut, c);
                scatter_rowmajor(g, width, &wins, v, &mut out);
            }
            out
        };

        let near_edge = scatter(&coords);
        let shifted_coords: Vec<[f64; 2]> = coords
            .iter()
            .map(|c| {
                [
                    (c[0] + shift[0] as f64).rem_euclid(g as f64),
                    (c[1] + shift[1] as f64).rem_euclid(g as f64),
                ]
            })
            .collect();
        let interior = scatter(&shifted_coords);
        // interior[(r+sr)%g][(c+sc)%g] must equal near_edge[r][c] bitwise.
        for r in 0..g {
            for cidx in 0..g {
                let a = near_edge[r * g + cidx];
                let b = interior[((r + shift[0]) % g) * g + (cidx + shift[1]) % g];
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "shift {shift:?} broke torus equivariance at ({r},{cidx})"
                );
            }
        }
    });
}

/// Window base exactly on a tile seam (`base mod T == 0`): the window's
/// other `W − 1` points live in the *previous* tile, and the select unit
/// must report a wrap for every affected pipeline except pipeline 0.
#[test]
fn tile_seam_rel_zero_wraps_all_but_pipeline_zero() {
    let g = 64usize;
    for tile in [8u32, 16] {
        for width in 2..=8usize {
            let p = params(g, width, tile as usize);
            let dec = Decomposer::new(&p);
            for seam in (0..g as u32).step_by(tile as usize) {
                // Choose u so that base = floor(u + W/2) = seam exactly.
                let u = seam as f64 - width as f64 / 2.0;
                let d = dec.decompose(dec.quantize(u));
                assert_eq!(d.base, seam, "u={u} width={width}");
                let (rel, q0) = (dec.rel_coord(&d), dec.tile_coord(&d));
                assert_eq!(rel, 0, "seam base must have rel 0");
                assert_eq!(q0, seam / tile);
                for pipe in 0..tile {
                    let dist = dec.forward_distance(rel, pipe);
                    if !dec.affects(dist) {
                        continue;
                    }
                    if pipe == 0 {
                        assert!(!dec.wrapped(rel, pipe));
                        assert_eq!(dec.tile_for_pipeline(&d, pipe), q0);
                    } else {
                        assert!(dec.wrapped(rel, pipe), "pipe {pipe} must wrap");
                        let expect = (q0 + dec.tiles_per_dim() - 1) % dec.tiles_per_dim();
                        assert_eq!(dec.tile_for_pipeline(&d, pipe), expect);
                    }
                    // The wrapped tile still addresses the correct grid
                    // point: q'·T + p == (base − dist) mod G.
                    let q = dec.tile_for_pipeline(&d, pipe);
                    assert_eq!(q * tile + pipe, (d.base + g as u32 - dist) % g as u32);
                }
            }
        }
    }
}

/// Tile index decrements modulo tiles-per-dim on wrap: a window whose
/// base sits in tile 0 reaches back into the *last* tile, never tile −1.
#[test]
fn wrap_from_tile_zero_reaches_last_tile() {
    cases!(64, |rng| {
        let g = 32u32;
        let tile = 8u32;
        let width = rng.usize_range(2, 9) as u32;
        let p = params(g as usize, width as usize, tile as usize);
        let dec = Decomposer::new(&p);
        // base ∈ [0, W−1): some window points must wrap below zero.
        let base = rng.usize_range(0, width as usize) as u32;
        let u = base as f64 - width as f64 / 2.0 + rng.f64_range(0.0, 0.99);
        let d = dec.decompose(dec.quantize(u));
        let rel = dec.rel_coord(&d);
        if dec.tile_coord(&d) != 0 {
            return; // quantization rounded up to the next tile; skip
        }
        let tiles = dec.tiles_per_dim();
        let mut saw_wrap = false;
        for pipe in 0..tile {
            let dist = dec.forward_distance(rel, pipe);
            if !dec.affects(dist) {
                continue;
            }
            let q = dec.tile_for_pipeline(&d, pipe);
            if dec.wrapped(rel, pipe) {
                saw_wrap = true;
                assert_eq!(q, tiles - 1, "tile 0 must wrap to the last tile");
            } else {
                assert_eq!(q, 0);
            }
            assert!(q < tiles, "tile index escaped [0, tiles)");
        }
        if rel < width - 1 {
            assert!(saw_wrap, "base {} rel {rel} should wrap", d.base);
        }
    });
}

/// `sample_windows` + `scatter_rowmajor` on seam/boundary coordinates is
/// the same operator the serial engine applies — the regression harness
/// for any future fast-path change to either helper.
#[test]
fn seam_scatter_matches_serial_engine() {
    cases!(32, |rng| {
        let g = 32usize;
        let width = rng.usize_range(2, 9);
        let tile = *rng.choose(&[8usize, 16]);
        let p = params(g, width, tile);
        let dec = Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        // Mix of exact seam hits, boundary band, and interior controls.
        let m = rng.usize_range(1, 48);
        let coords: Vec<[f64; 2]> = (0..m)
            .map(|_| {
                let mut c = [0.0f64; 2];
                for x in c.iter_mut() {
                    *x = match rng.usize_range(0, 3) {
                        0 => {
                            // Exactly on a tile seam: x mod T == 0.
                            (rng.usize_range(0, g / tile) * tile) as f64
                        }
                        1 => border_coord(rng, g as f64, width as f64),
                        _ => rng.f64_range(0.0, g as f64),
                    };
                }
                c
            })
            .collect();
        let values: Vec<C64> = (0..m)
            .map(|_| C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)))
            .collect();

        let mut reference = vec![C64::zeroed(); g * g];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut reference);

        let mut manual = vec![C64::zeroed(); g * g];
        for (c, &v) in coords.iter().zip(values.iter()) {
            let (wins, _) = sample_windows(&dec, &lut, c);
            scatter_rowmajor(g, width, &wins, v, &mut manual);
        }
        assert_eq!(bits(&reference), bits(&manual));
    });
}

/// Total scattered mass is invariant to where the sample sits — the
/// boundary path must not drop or double-count any window point.
#[test]
fn boundary_mass_equals_interior_mass() {
    let g = 32usize;
    let width = 6usize;
    let p = params(g, width, 8);
    let dec = Decomposer::new(&p);
    let lut = KernelLut::from_params(&p);
    let mass = |c: [f64; 2]| -> f64 {
        let mut out = vec![C64::zeroed(); g * g];
        let (wins, _) = sample_windows(&dec, &lut, &c);
        scatter_rowmajor(g, width, &wins, C64::new(1.0, 0.0), &mut out);
        out.iter().map(|z| z.re).sum()
    };
    // Same fractional part, different integer parts: identical weights.
    let frac = 0.314_159_26;
    let interior = mass([16.0 + frac, 16.0 + frac]);
    for c in [
        [frac, frac],                  // corner, both dims wrap
        [frac, 16.0 + frac],           // one dim wraps
        [g as f64 - 1.0 + frac, frac], // opposite edge
        [8.0 + frac, frac],            // seam × boundary
    ] {
        let m = mass(c);
        assert!(
            (m - interior).abs() < 1e-12,
            "mass {m} at {c:?} != interior {interior}"
        );
    }
}
