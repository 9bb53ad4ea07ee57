//! Drive the JIGSAW accelerator simulator end to end: quantize a sample
//! stream, run the stall-free fixed-point pipelines, verify the timing
//! law, hand the gridded result to the host FFT, and report power/energy
//! from the calibrated Table II model.
//!
//! ```sh
//! cargo run --release --example accelerator_sim
//! ```

use jigsaw::core::gridding::{Gridder, SerialGridder};
use jigsaw::core::lut::KernelLut;
use jigsaw::core::metrics::rel_l2;
use jigsaw::core::phantom::Phantom2d;
use jigsaw::core::traj;
use jigsaw::core::{NufftConfig, NufftPlan};
use jigsaw::num::C64;
use jigsaw::sim::power::{PowerModel, Variant};
use jigsaw::sim::{Jigsaw2d, JigsawConfig};

fn main() {
    let n = 128usize;
    let g = 2 * n;

    // Workload: spiral acquisition of the Shepp-Logan phantom.
    let mut coords = traj::spiral_2d(12, 8000, 10.0);
    traj::shuffle(&mut coords, 5);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    let m = coords.len();

    // Host plan (for coordinate mapping and the post-gridding stages).
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).expect("plan");
    let mapped = plan.map_coords(&coords);

    // Instantiate the accelerator: G = 256 target grid, W = 6, L = 32.
    let cfg = JigsawConfig {
        grid: g,
        ..JigsawConfig::paper_default()
    };
    let mut hw = Jigsaw2d::new(cfg.clone()).expect("hardware config");

    // DMA stream: quantize coordinates to 1/L and values to Q1.15.
    let (stream, scale) = hw.quantize_inputs(&mapped, &values).expect("stream");
    println!("streaming {m} samples into the {0}×{0} pipeline array…", 8);

    let run = hw.run(&stream);
    let r = &run.report;
    println!(
        "compute cycles : {} (M + 12 = {})",
        r.compute_cycles,
        m + 12
    );
    println!("readout cycles : {} (G²/2)", r.readout_cycles);
    println!(
        "gridding time  : {:.3} µs @ 1.0 GHz",
        r.gridding_seconds() * 1e6
    );
    println!(
        "ops: {} select checks, {} LUT reads, {} MACs, {} accumulator RMWs, {} saturations",
        r.ops.select_checks, r.ops.lut_reads, r.ops.interp_macs, r.ops.accum_rmw, r.ops.saturations
    );

    // Verify the fixed-point grid against the f64 software reference.
    let params = plan.grid_params().clone();
    let lut = KernelLut::from_params(&params);
    let mut reference = vec![C64::zeroed(); g * g];
    SerialGridder
        .grid(&params, &lut, &mapped, &values, &mut reference)
        .unwrap();
    let hw_grid = run.grid_c64(scale);
    println!(
        "fixed-point grid error vs f64 reference: {:.2e}",
        rel_l2(&hw_grid, &reference)
    );

    // Host completes the NuFFT from the accelerator's grid.
    let mut grid = hw_grid;
    let (image, host) = plan.finish_adjoint(&mut grid).expect("host stages");
    println!(
        "host FFT {:.2} ms + apod {:.2} ms → {}×{} image",
        host.fft_seconds * 1e3,
        host.apod_seconds * 1e3,
        n,
        n
    );
    let _ = image;

    // Power/energy from the calibrated model.
    let pm = PowerModel::calibrated();
    let w2 = (cfg.width * cfg.width) as f64;
    println!(
        "modeled power {:.1} mW, area {:.2} mm², gridding energy {:.2} µJ",
        pm.power_mw(&cfg, Variant::TwoD, w2, true),
        pm.area_mm2(&cfg, Variant::TwoD, true),
        pm.energy_joules(&cfg, Variant::TwoD, r) * 1e6
    );
}
