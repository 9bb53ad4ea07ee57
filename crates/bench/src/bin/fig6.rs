//! Figure 6 — gridding speedups, normalized to MIRT.
//!
//! The paper reports, for five images, the gridding-only speedup of
//! Impatient (GPU), Slice-and-Dice (GPU), and JIGSAW (ASIC) over the MIRT
//! CPU baseline — averages ≈ 15×, ≈ 250×, and ≈ 1500× respectively.
//!
//! This harness regenerates the figure on our substrates:
//!
//! 1. **Measured** wall-clock of the Rust engines (serial baseline,
//!    binned, Slice-and-Dice) plus the JIGSAW simulator's cycle-law
//!    runtime — demonstrating the algorithmic ordering and the op-count
//!    model behind it.
//! 2. **Modeled** speedups from the calibrated device operating points
//!    (the paper's testbed we don't have), printed next to the paper's
//!    reference values.
//!
//! Run with `cargo run --release -p jigsaw-bench --bin fig6` (append
//! `--quick` to shrink M).

use jigsaw_bench::*;
use jigsaw_core::config::GridParams;
use jigsaw_core::gridding::{
    BinnedGridder, Gridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw_core::kernel::KernelKind;
use jigsaw_core::lut::KernelLut;
use jigsaw_num::C64;
use jigsaw_sim::device::{JigsawPlatform, Platform};
use jigsaw_sim::{Jigsaw2d, JigsawConfig};

fn main() {
    let args = HarnessArgs::parse();
    let mut images = eval_images();
    if args.quick_divisor > 1 {
        println!("[quick mode: M divided by {}]", args.quick_divisor);
        scale_images(&mut images, args.quick_divisor);
    }

    println!("=== Figure 6: gridding speedups (normalized to the serial baseline) ===\n");
    println!(
        "Measured on this machine ({} hardware threads):\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let mut measured = Table::new(&[
        "Image",
        "N",
        "M",
        "serial (MIRT-style)",
        "binned (Impatient-style)",
        "slice-dice",
        "S&D speedup",
        "JIGSAW sim",
        "JIGSAW speedup",
    ]);
    let mut opcounts = Table::new(&[
        "Image",
        "engine",
        "presort",
        "processed/M",
        "boundary checks",
        "kernel MACs",
    ]);

    for img in &images {
        let g = img.grid();
        let params = GridParams {
            grid: g,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: KernelKind::Auto.resolve(6, 2.0),
        };
        let lut = KernelLut::from_params(&params);
        let coords_cycles = img.trajectory();
        let values = img.kspace(&coords_cycles);
        // Map cycles → oversampled grid units.
        let coords: Vec<[f64; 2]> = coords_cycles
            .iter()
            .map(|c| {
                [
                    c[0].rem_euclid(1.0) * g as f64,
                    c[1].rem_euclid(1.0) * g as f64,
                ]
            })
            .collect();

        let run = |gr: &dyn Gridder<f64, 2>| {
            let mut out = vec![C64::zeroed(); g * g];
            gr.grid(&params, &lut, &coords, &values, &mut out)
        };
        let s_serial = run(&SerialGridder);
        let s_binned = run(&BinnedGridder::default());
        let s_sd = run(&SliceDiceGridder::new(SliceDiceMode::ColumnParallel));

        // JIGSAW functional sim (timing from the cycle law).
        let jig_cfg = JigsawConfig {
            grid: g.min(1024),
            ..JigsawConfig::paper_default()
        };
        let mut hw = Jigsaw2d::new(jig_cfg).unwrap();
        let (stream, _) = hw.quantize_inputs(&coords, &values).unwrap();
        let sim = hw.run(&stream);
        let t_jig = sim.report.gridding_seconds();

        let t0 = s_serial.total_seconds();
        measured.row(vec![
            img.name.into(),
            format!("{0}x{0}", img.n),
            img.m.to_string(),
            fmt_secs(t0),
            fmt_secs(s_binned.total_seconds()),
            fmt_secs(s_sd.total_seconds()),
            fmt_speedup(t0 / s_sd.total_seconds()),
            fmt_secs(t_jig),
            fmt_speedup(t0 / t_jig),
        ]);

        for (label, st) in [
            ("serial", &s_serial),
            ("binned", &s_binned),
            ("slice-dice", &s_sd),
        ] {
            opcounts.row(vec![
                img.name.into(),
                label.into(),
                fmt_secs(st.presort_seconds),
                format!("{:.2}", st.duplication_factor()),
                st.boundary_checks.to_string(),
                st.kernel_accumulations.to_string(),
            ]);
        }
    }
    measured.print();

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads <= 2 {
        println!("\nNOTE: this host has {threads} hardware thread(s). Binning trades a presort");
        println!("and duplicated boundary checks for parallelism, so on a host this small");
        println!("the input-driven baseline beats it. Slice-and-Dice's column owners read");
        println!("the passing checks off each sample's expanded window, so its M·T² checks");
        println!("are logical (op-count table below) and it runs level with the baseline.");
        println!("The parallel advantage shows in the simulated/modeled devices.");
    }

    println!("\nOperation counts (§III: binning duplicates straddling samples and adds a");
    println!("presort pass; Slice-and-Dice does exactly M·T² checks with neither):\n");
    opcounts.print();

    println!("\nModeled speedups on the paper's testbed (calibrated operating points),");
    println!("with the paper's reported averages for reference:\n");
    let mirt = Platform::mirt_cpu();
    let imp = Platform::impatient_gpu();
    let sd = Platform::slice_dice_gpu();
    let mut model = Table::new(&[
        "Image",
        "Impatient vs MIRT",
        "S&D GPU vs MIRT",
        "JIGSAW vs MIRT",
        "S&D vs Impatient",
        "JIGSAW vs S&D GPU",
    ]);
    for img in &images {
        let jig = JigsawPlatform::new(JigsawConfig::paper_default());
        let t_mirt = mirt.gridding_seconds(img.m, 6);
        let t_imp = imp.gridding_seconds(img.m, 6);
        let t_sd = sd.gridding_seconds(img.m, 6);
        let t_jig = jig.gridding_seconds(img.m);
        model.row(vec![
            img.name.into(),
            fmt_speedup(t_mirt / t_imp),
            fmt_speedup(t_mirt / t_sd),
            fmt_speedup(t_mirt / t_jig),
            fmt_speedup(t_imp / t_sd),
            fmt_speedup(t_sd / t_jig),
        ]);
    }
    model.print();
    println!("\nPaper reference (averages over its five images):");
    println!("  Slice-and-Dice GPU vs MIRT  ≈ 250×   (§VI-A)");
    println!("  Slice-and-Dice GPU vs Impatient ≈ 16×");
    println!("  JIGSAW vs MIRT ≈ 1500×; vs Impatient ≈ 95×; vs S&D GPU ≈ 6×");
}
