//! The `jigsaw` subcommands.

use crate::args::Options;
use crate::error::CliError;
use jigsaw_core::budget::RunBudget;
use jigsaw_core::config::GridParams;
use jigsaw_core::gridding::{
    BinnedGridder, Gridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw_core::kernel::KernelKind;
use jigsaw_core::lut::KernelLut;
use jigsaw_core::metrics::nrmsd_percent;
use jigsaw_core::phantom::Phantom2d;
use jigsaw_core::recon::{cg_reconstruct_with, CgOptions, NormalOpKind};
use jigsaw_core::sense::{self, CoilMaps};
use jigsaw_core::serve::ServeOptions;
use jigsaw_core::traj;
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;
use jigsaw_sim::power::{PowerModel, Variant};
use jigsaw_sim::{Jigsaw2d, Jigsaw3dSlice, JigsawConfig};
use jigsaw_telemetry as telemetry;
use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
jigsaw — Slice-and-Dice NuFFT and JIGSAW accelerator simulator

USAGE:
    jigsaw <command> [--flag value]...

COMMANDS:
    recon       Reconstruct a Shepp-Logan phantom from synthetic radial k-space
                  --n 192 --spokes <auto> --engine slice-dice|serial|binned
                  (gridding engine of the single-coil direct adjoint only;
                  multi-coil and CG reconstructions run the planned scatter)
                  --coils 1 (>1 = planned multi-coil batch via the worker pool)
                  --cg 0 (CG iterations; 0 = direct adjoint) --out out/recon.pgm
                  --normal-op gridded|toeplitz (CG normal operator; toeplitz
                  = gridding-free Toeplitz fast path, falls back to gridded
                  if the kernel build degrades)
                  --time-budget-ms 0 (0 = unlimited; CG returns its best
                  iterate when the wall-clock budget runs out)
    simulate    Run the JIGSAW 2-D accelerator model on a synthetic stream
                  --grid 512 --samples 100000 [--cycle-accurate] [--trace N]
    simulate3d  Run the JIGSAW 3D Slice variant
                  --grid 32 --samples 20000 [--sorted]
    gridbench   Time every gridding engine on one problem
                  --n 256 --m 100000
    profile     Run a canned radial multi-coil CG-SENSE recon with
                telemetry forced on and emit a chrome://tracing /
                Perfetto-loadable trace
                  --n 256 --coils 8 --cg 2 [--samples N]
                  --trace-out out/trace.json [--metrics]
    serve       Run the plan-cached reconstruction daemon (long-lived;
                exits 0 after a client sends the shutdown frame)
                  --socket /tmp/jigsaw.sock | --stdio (frames on stdin/stdout)
                  --cache-capacity 8 (LRU plan-cache bound)
                  --jobs 2 (executor threads) --default-budget-ms 0
                  --max-queue-depth 1024 --max-queued-bytes 1073741824
                  (bounded admission: normal-priority jobs beyond either
                  bound are refused with a retry-after hint)
                  --watchdog-multiple 8 (cancel jobs stuck past this
                  multiple of their budget)
                  --snapshot <path> (durable plan-cache snapshot: loaded
                  on start for a warm restart, written on graceful
                  drain; a corrupt file degrades to a cold start)
                  --snapshot-every-secs 0 (0 = only on drain; >0 also
                  rewrites the snapshot periodically in the background)
                  SIGTERM drains gracefully in --socket mode: finish
                  queued jobs, snapshot, exit 0
    request     Client mode: submit synthetic radial jobs to a daemon
                  --socket /tmp/jigsaw.sock --n 64 --spokes <auto>
                  --count 1 [--high] [--budget-ms 0] [--tag 1]
                  --retries 0 --backoff-ms 50 (resubmit shed jobs with
                  exponential backoff, honoring the daemon's hint)
                  --timeout-ms 120000 (per-reply receive deadline)
                  [--ping] [--shutdown] (probe / stop the daemon instead)
                  [--drain] (graceful stop: the daemon finishes queued
                  jobs, snapshots its plan cache, and exits 0)
                  [--stats [--format table|json|prom]] (scrape the live
                  introspection snapshot instead of submitting)
    top         Poll a daemon's stats on an interval and render a
                refreshing dashboard (queue, cache, windowed latency,
                per-worker utilization)
                  --socket /tmp/jigsaw.sock --interval-ms 1000
                  --iterations 0 (0 = until interrupted)
    gpustats    GPU §VI-A analysis (L2 hit rate, occupancy, divergence)
                  --grid 1024 --samples 100000
    emit-rtl    Generate the SystemVerilog select unit, weight-SRAM
                $readmemh image, and self-checking testbench
                  --grid 1024 --out rtl/
    info        Print the supported hardware parameter ranges (Table I)
                and the power/area model (Table II)
    help        Show this message

TELEMETRY (recon, gridbench, profile):
    --trace-out <path.json>   write buffered spans as Chrome trace_event
                              JSON (load in chrome://tracing or Perfetto)
    --metrics                 print the metrics-registry snapshot table
    JIGSAW_TELEMETRY=0        disable all collection (overhead: one branch)

ROBUSTNESS:
    JIGSAW_FALLBACK=0         disable the automatic serial fallback when a
                              pooled job fails (failures become hard errors)
    JIGSAW_FAULTS=site=S,seed=N,rate=F,fires=K
                              arm deterministic fault injection at a
                              registered fault point (testing only)

EXIT CODES:
    0 success · 1 usage · 2 configuration error (bad value or unknown flag)
    3 data error · 4 execution error (contained job panic) · 5 budget exhausted
    7 daemon overloaded (job shed; retry after the suggested backoff)
";

type CmdResult = Result<(), CliError>;

/// Shared `--trace-out <path.json>` / `--metrics` handling: write the
/// buffered span stream as a chrome trace and/or print the metrics
/// registry snapshot. Call once at the end of a command.
fn emit_telemetry(o: &Options) -> CmdResult {
    let dropped = telemetry::sync_dropped_events();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} span event(s) dropped by the ring buffer \
             (telemetry.dropped_events); trace and metrics are incomplete"
        );
    }
    let trace_out = o.string("trace-out", "");
    if !trace_out.is_empty() {
        if !telemetry::enabled() {
            eprintln!("warning: telemetry is disabled (JIGSAW_TELEMETRY=0); trace will be empty");
        }
        let n = telemetry::export::write_chrome_trace(std::path::Path::new(&trace_out))
            .map_err(|e| CliError::Data(format!("writing {trace_out}: {e}")))?;
        println!("wrote {n} trace events to {trace_out}");
    }
    if o.switch("metrics") {
        let snap = telemetry::global().snapshot();
        print!("{}", snap.to_table());
    }
    Ok(())
}

fn write_pgm(path: &str, image: &[C64], n: usize) -> Result<(), CliError> {
    let mags: Vec<f64> = image.iter().map(|z| z.abs()).collect();
    let hi = mags.iter().cloned().fold(0.0, f64::max).max(1e-30);
    let mut buf = format!("P5\n{n} {n}\n255\n").into_bytes();
    buf.extend(mags.iter().map(|m| (m / hi * 255.0).round() as u8));
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Data(format!("creating {}: {e}", dir.display())))?;
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(&buf))
        .map_err(|e| CliError::Data(format!("writing {path}: {e}")))
}

fn normal_op_by_name(name: &str) -> Result<NormalOpKind, String> {
    match name {
        "gridded" => Ok(NormalOpKind::Gridded),
        "toeplitz" => Ok(NormalOpKind::Toeplitz),
        other => Err(format!("unknown normal-op `{other}` (gridded | toeplitz)")),
    }
}

fn engine_by_name(name: &str) -> Result<Box<dyn Gridder<f64, 2>>, String> {
    match name {
        "serial" => Ok(Box::new(SerialGridder)),
        "binned" => Ok(Box::new(BinnedGridder::default())),
        "slice-dice" => Ok(Box::new(SliceDiceGridder::default())),
        "slice-dice-serial" => Ok(Box::new(SliceDiceGridder::new(SliceDiceMode::Serial))),
        other => Err(format!(
            "unknown engine `{other}` (serial | binned | slice-dice | slice-dice-serial)"
        )),
    }
}

/// `jigsaw recon`
pub fn recon(o: &Options) -> CmdResult {
    let n = o.usize("n", 192)?;
    let default_spokes = (1.2 * core::f64::consts::FRAC_PI_2 * n as f64) as usize;
    let spokes = o.usize("spokes", default_spokes)?;
    let cg_iters = o.usize("cg", 0)?;
    let lambda = o.f64("lambda", 1e-5)?;
    let coils = o.usize("coils", 1)?;
    let out = o.string("out", "out/recon.pgm");
    let budget_ms = o.usize("time-budget-ms", 0)?;
    let budget = if budget_ms > 0 {
        RunBudget::with_time_ms(budget_ms as u64)
    } else {
        RunBudget::unlimited()
    };
    let engine = engine_by_name(&o.string("engine", "slice-dice"))?;
    let normal_op = normal_op_by_name(&o.string("normal-op", "gridded"))?;

    let phantom = Phantom2d::shepp_logan();
    let mut coords = traj::radial_2d(spokes, 2 * n, true);
    traj::shuffle(&mut coords, 7);
    let data = phantom.kspace(n, &coords);
    println!(
        "acquired {} samples over {spokes} golden-angle spokes",
        coords.len()
    );

    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n))?;
    let image = if coils > 1 {
        // Multi-coil: modulate the acquisition by synthetic sensitivity
        // maps and reconstruct with the planned batched adjoint — the
        // window decomposition is computed once and every coil streams
        // through the persistent worker pool.
        let maps = CoilMaps::synthetic(n, coils);
        let truth = phantom.rasterize_aa(n, 4);
        let coil_data = sense::acquire(&plan, &maps, &truth, &coords)?;
        if cg_iters > 0 {
            // Iterative CG-SENSE over the selected normal operator.
            let t0 = std::time::Instant::now();
            let cg = sense::cg_sense_with(
                &plan,
                &maps,
                &coil_data,
                &coords,
                engine.as_ref(),
                &CgOptions {
                    max_iterations: cg_iters,
                    tolerance: 1e-8,
                    lambda,
                    budget,
                },
                normal_op,
            )?;
            println!(
                "CG-SENSE ({normal_op:?}): {} iterations in {:.1} ms, final relative residual {:.2e}",
                cg.residuals.len(),
                t0.elapsed().as_secs_f64() * 1e3,
                cg.residuals.last().copied().unwrap_or(1.0)
            );
            if !cg.diagnostic.is_clean() {
                eprintln!("warning: CG stopped early: {}", cg.diagnostic);
            }
            let norm = |v: &[C64]| -> Vec<C64> {
                let p = v.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-30);
                v.iter().map(|z| z.unscale(p)).collect()
            };
            println!(
                "quality vs phantom: NRMSD {:.2}%",
                nrmsd_percent(&norm(&cg.image), &norm(&truth))
            );
            write_pgm(&out, &cg.image, n)?;
            println!("wrote {out}");
            return emit_telemetry(o);
        }
        // Density compensation per coil (same radial ramp as below).
        let weighted: Vec<Vec<C64>> = coil_data
            .iter()
            .map(|d| {
                coords
                    .iter()
                    .zip(d)
                    .map(|(c, v)| {
                        let r = (c[0] * c[0] + c[1] * c[1]).sqrt();
                        v.scale(r.max(0.125 / (2.0 * n as f64)))
                    })
                    .collect()
            })
            .collect();
        let t0 = std::time::Instant::now();
        let traj_plan = plan.plan_trajectory(&coords)?;
        let combined = sense::adjoint_planned(&plan, &maps, &weighted, &traj_plan)?;
        println!(
            "planned {}-coil adjoint: plan {:.1} ms + batch {:.1} ms",
            coils,
            traj_plan.plan_seconds() * 1e3,
            t0.elapsed().as_secs_f64() * 1e3 - traj_plan.plan_seconds() * 1e3
        );
        combined
    } else if cg_iters == 0 {
        // Ramp-compensated direct adjoint.
        let weighted: Vec<C64> = coords
            .iter()
            .zip(&data)
            .map(|(c, v)| {
                let r = (c[0] * c[0] + c[1] * c[1]).sqrt();
                v.scale(r.max(0.125 / (2.0 * n as f64)))
            })
            .collect();
        let outp = plan.adjoint(&coords, &weighted, engine.as_ref())?;
        println!(
            "direct adjoint: gridding {:.1} ms ({:.1}% of total)",
            outp.timings.interp_seconds * 1e3,
            100.0 * outp.timings.interp_fraction()
        );
        outp.image
    } else {
        let cg = cg_reconstruct_with(
            &plan,
            &coords,
            &data,
            &[],
            &CgOptions {
                max_iterations: cg_iters,
                tolerance: 1e-8,
                lambda,
                budget,
            },
            normal_op,
        )?;
        println!(
            "CG: {} iterations, final relative residual {:.2e}",
            cg.residuals.len(),
            cg.residuals.last().copied().unwrap_or(1.0)
        );
        if !cg.diagnostic.is_clean() {
            eprintln!("warning: CG stopped early: {}", cg.diagnostic);
        }
        cg.image
    };

    let truth = phantom.rasterize_aa(n, 4);
    let norm = |v: &[C64]| -> Vec<C64> {
        let p = v.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-30);
        v.iter().map(|z| z.unscale(p)).collect()
    };
    println!(
        "quality vs phantom: NRMSD {:.2}%",
        nrmsd_percent(&norm(&image), &norm(&truth))
    );
    write_pgm(&out, &image, n)?;
    println!("wrote {out}");
    emit_telemetry(o)
}

/// `jigsaw simulate`
pub fn simulate(o: &Options) -> CmdResult {
    let grid = o.usize("grid", 512)?;
    let m = o.usize("samples", 100_000)?;
    let cycle_accurate = o.switch("cycle-accurate");
    let trace_cycles = o.usize("trace", 0)?;

    let cfg = JigsawConfig {
        grid,
        ..JigsawConfig::paper_default()
    };
    let mut hw = Jigsaw2d::new(cfg.clone())?;
    let coords: Vec<[f64; 2]> = (0..m)
        .map(|i| {
            let t = i as f64;
            [
                (t * 0.61803398875).rem_euclid(1.0) * grid as f64,
                (t * 0.3819660113).rem_euclid(1.0) * grid as f64,
            ]
        })
        .collect();
    let values = vec![C64::new(0.5, -0.25); m];
    let (stream, _) = hw.quantize_inputs(&coords, &values)?;

    if trace_cycles > 0 {
        println!("pipeline trace (first {trace_cycles} cycles):");
        print!(
            "{}",
            jigsaw_sim::trace::render(&jigsaw_sim::trace::trace_2d(m as u64, trace_cycles as u64))
        );
    }
    let run = if cycle_accurate {
        println!("running cycle-accurate pipeline simulation…");
        hw.run_cycle_accurate(&stream)
    } else {
        hw.run(&stream)
    };
    let r = &run.report;
    println!("samples         : {m}");
    println!(
        "compute cycles  : {} (M + 12 = {})",
        r.compute_cycles,
        m + 12
    );
    println!("readout cycles  : {}", r.readout_cycles);
    println!("gridding time   : {}", fmt_time(r.gridding_seconds()));
    println!(
        "ops             : {} checks, {} LUT reads, {} MACs, {} RMWs, {} saturations",
        r.ops.select_checks, r.ops.lut_reads, r.ops.interp_macs, r.ops.accum_rmw, r.ops.saturations
    );
    let pm = PowerModel::calibrated();
    println!(
        "power/area/energy: {:.1} mW, {:.2} mm², {:.2} µJ",
        pm.power_mw(&cfg, Variant::TwoD, (cfg.width * cfg.width) as f64, true),
        pm.area_mm2(&cfg, Variant::TwoD, true),
        pm.energy_joules(&cfg, Variant::TwoD, r) * 1e6
    );
    Ok(())
}

/// `jigsaw simulate3d`
pub fn simulate3d(o: &Options) -> CmdResult {
    let grid = o.usize("grid", 32)?;
    let m = o.usize("samples", 20_000)?;
    let sorted = o.switch("sorted");
    let cfg = JigsawConfig {
        grid,
        ..JigsawConfig::paper_default()
    };
    let mut hw = Jigsaw3dSlice::new(cfg)?;
    let coords: Vec<[f64; 3]> = (0..m)
        .map(|i| {
            let t = i as f64;
            [
                (t * 0.7548776662).rem_euclid(1.0) * grid as f64,
                (t * 0.5698402910).rem_euclid(1.0) * grid as f64,
                (t * 0.3028448642).rem_euclid(1.0) * grid as f64,
            ]
        })
        .collect();
    let values = vec![C64::new(0.3, 0.1); m];
    let (stream, _) = hw.quantize_inputs(&coords, &values)?;
    let run = hw.run(&stream, sorted);
    println!(
        "mode            : {}",
        if sorted { "Z-sorted" } else { "unsorted" }
    );
    println!("compute cycles  : {}", run.report.compute_cycles);
    println!(
        "law             : {}",
        if sorted {
            format!("Σ(|bin_z| + 15) = {}·Wz + 15·Nz", m)
        } else {
            format!("(M + 15)·Nz = {}", (m as u64 + 15) * grid as u64)
        }
    );
    println!(
        "gridding time   : {}",
        fmt_time(run.report.gridding_seconds())
    );
    Ok(())
}

/// `jigsaw gridbench`
pub fn gridbench(o: &Options) -> CmdResult {
    let n = o.usize("n", 256)?;
    let m = o.usize("m", 100_000)?;
    let g = 2 * n;
    let params = GridParams {
        grid: g,
        width: 6,
        table_oversampling: 32,
        tile: 8,
        kernel: KernelKind::Auto.resolve(6, 2.0),
    };
    let lut = KernelLut::from_params(&params);
    let mut cyc = traj::radial_2d(m.div_ceil(2 * n), 2 * n, true);
    cyc.truncate(m);
    traj::shuffle(&mut cyc, 3);
    let values = Phantom2d::shepp_logan().kspace(n, &cyc);
    let coords: Vec<[f64; 2]> = cyc
        .iter()
        .map(|c| {
            [
                c[0].rem_euclid(1.0) * g as f64,
                c[1].rem_euclid(1.0) * g as f64,
            ]
        })
        .collect();
    println!("{m} samples onto a {g}² grid (W = 6, L = 32):\n");
    let engines: [(&str, Box<dyn Gridder<f64, 2>>); 4] = [
        ("serial", Box::new(SerialGridder)),
        (
            "slice-dice serial",
            Box::new(SliceDiceGridder::new(SliceDiceMode::Serial)),
        ),
        ("binned", Box::new(BinnedGridder::default())),
        ("slice-dice parallel", Box::new(SliceDiceGridder::default())),
    ];
    for (name, e) in &engines {
        let mut out = vec![C64::zeroed(); g * g];
        let stats = e.grid(&params, &lut, &coords, &values, &mut out)?;
        println!(
            "{name:>28}: {:>10}  (presort {}, {} checks, {:.2}× duplication)",
            fmt_time(stats.total_seconds()),
            fmt_time(stats.presort_seconds),
            stats.boundary_checks,
            stats.duplication_factor()
        );
    }
    emit_telemetry(o)
}

/// `jigsaw profile` — canned radial multi-coil CG-SENSE reconstruction
/// with telemetry forced on, touching every instrumented subsystem
/// (engine dispatch, gridding, FFT, NuFFT phases, CG recon) so the
/// resulting chrome trace shows the full pipeline with per-worker lanes.
pub fn profile(o: &Options) -> CmdResult {
    // Force collection on regardless of JIGSAW_TELEMETRY: profiling is
    // the explicit point of this command.
    telemetry::set_enabled(true);
    telemetry::set_thread_lane("main");
    let n = o.usize("n", 256)?;
    let coils = o.usize("coils", 8)?;
    let cg_iters = o.usize("cg", 2)?;
    let default_spokes = (1.2 * core::f64::consts::FRAC_PI_2 * n as f64) as usize;
    let spokes = o.usize("spokes", default_spokes)?;

    let mut coords = traj::radial_2d(spokes, 2 * n, true);
    traj::shuffle(&mut coords, 7);
    let cap = o.usize("samples", coords.len())?;
    coords.truncate(cap);
    println!(
        "profiling: {}-coil radial CG-SENSE, N = {n}, M = {}, {cg_iters} CG iterations",
        coils,
        coords.len()
    );

    let t0 = std::time::Instant::now();
    let residual = {
        let _root = telemetry::span!("recon.profile", {
            n: n,
            coils: coils,
            m: coords.len()
        });
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n))?;
        let maps = CoilMaps::synthetic(n, coils);
        let truth = Phantom2d::shepp_logan().rasterize_aa(n, 4);
        let coil_data = sense::acquire(&plan, &maps, &truth, &coords)?;

        // Planned batched adjoint: one coil per pooled job, so the trace
        // gets per-worker `jigsaw-worker-*` lanes with coil spans.
        let traj_plan = plan.plan_trajectory(&coords)?;
        let _combined = sense::adjoint_planned(&plan, &maps, &coil_data, &traj_plan)?;

        // CG-SENSE: per-iteration spans + residual counter track.
        let out = sense::cg_sense(
            &plan,
            &maps,
            &coil_data,
            &coords,
            &CgOptions {
                max_iterations: cg_iters,
                tolerance: 1e-8,
                lambda: 1e-5,
                budget: Default::default(),
            },
        )?;
        out.residuals.last().copied().unwrap_or(1.0)
    };
    println!(
        "recon complete in {:.1} ms (final relative residual {residual:.2e})",
        t0.elapsed().as_secs_f64() * 1e3
    );
    if o.string("trace-out", "").is_empty() && !o.switch("metrics") {
        eprintln!("hint: pass --trace-out trace.json and/or --metrics to export the profile");
    }
    emit_telemetry(o)
}

/// SIGTERM latch for graceful drain: the handler only stores into this
/// flag (async-signal-safe by construction — no locks, no allocation);
/// the daemon's accept loop polls it between connections.
static DRAIN_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    DRAIN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Route SIGTERM to [`on_sigterm`] so `kill <pid>` drains the daemon
/// (finish queued jobs, snapshot, exit 0) instead of killing it.
fn install_sigterm_drain() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: libc `signal` with a handler that only writes an
    // AtomicBool; both the call and the handler are async-signal-safe.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// `jigsaw serve` — the long-lived plan-cached reconstruction daemon.
pub fn serve(o: &Options) -> CmdResult {
    let snapshot = o.string("snapshot", "");
    let opts = ServeOptions {
        cache_capacity: o.usize("cache-capacity", 8)?,
        executors: o.usize("jobs", 2)?,
        default_budget_ms: o.usize("default-budget-ms", 0)? as u64,
        max_queue_depth: o.usize("max-queue-depth", 1024)?,
        max_queued_bytes: o.usize("max-queued-bytes", 1 << 30)?,
        watchdog_multiple: o.usize("watchdog-multiple", 8)? as u32,
        snapshot_path: (!snapshot.is_empty()).then(|| std::path::PathBuf::from(&snapshot)),
        snapshot_every_secs: o.usize("snapshot-every-secs", 0)? as u64,
        drain_signal: Some(&DRAIN_REQUESTED),
    };
    if o.switch("stdio") {
        // stdout carries response frames in this mode; diagnostics go
        // to stderr only.
        eprintln!(
            "jigsaw serve: stdio framing, {} executors, plan cache {} entries",
            opts.executors, opts.cache_capacity
        );
        jigsaw_core::serve::serve_stdio(&opts)?;
    } else {
        let sock = o.string("socket", "");
        if sock.is_empty() {
            return Err(CliError::Config(
                "serve needs --socket <path> or --stdio".into(),
            ));
        }
        install_sigterm_drain();
        eprintln!(
            "jigsaw serve: listening on {sock}, {} executors, plan cache {} entries",
            opts.executors, opts.cache_capacity
        );
        jigsaw_core::serve::serve_unix(std::path::Path::new(&sock), &opts)?;
    }
    // Post-shutdown trace export: spans from every job the daemon ran,
    // each tagged with its request id (`req` arg), so a trace can be
    // filtered to one request end-to-end. Diagnostics stay on stderr —
    // stdout carries response frames in stdio mode.
    let trace_out = o.string("trace-out", "");
    if !trace_out.is_empty() {
        let n = telemetry::export::write_chrome_trace(std::path::Path::new(&trace_out))
            .map_err(|e| CliError::Data(format!("writing {trace_out}: {e}")))?;
        eprintln!("jigsaw serve: wrote {n} trace events to {trace_out}");
    }
    eprintln!("jigsaw serve: clean shutdown");
    Ok(())
}

fn protocol_to_cli(e: jigsaw_core::serve::ProtocolError) -> CliError {
    CliError::Data(format!("serve protocol: {e}"))
}

/// `jigsaw request` — client mode: submit synthetic radial jobs to a
/// running daemon (exercises the wire protocol end to end; also the
/// demo client for the README).
pub fn request(o: &Options) -> CmdResult {
    use jigsaw_core::serve::{Frame, JobRequest, Priority, RetryPolicy, ServeClient};
    let sock = o.string("socket", "");
    if sock.is_empty() {
        return Err(CliError::Config("request needs --socket <path>".into()));
    }
    let timeout_ms = o.usize("timeout-ms", 120_000)?;
    if timeout_ms == 0 {
        return Err(CliError::Config(
            "--timeout-ms must be positive (a zero receive deadline would hang forever)".into(),
        ));
    }
    let mut client = ServeClient::connect(std::path::Path::new(&sock))
        .map_err(|e| CliError::Data(format!("connecting to {sock}: {e}")))?;
    client
        .set_read_timeout(std::time::Duration::from_millis(timeout_ms as u64))
        .map_err(|e| CliError::Data(format!("configuring socket: {e}")))?;
    if o.switch("ping") {
        client.ping().map_err(protocol_to_cli)?;
        println!("pong");
        return Ok(());
    }
    if o.switch("shutdown") {
        client.shutdown().map_err(protocol_to_cli)?;
        println!("daemon acknowledged shutdown");
        return Ok(());
    }
    if o.switch("drain") {
        client.drain().map_err(protocol_to_cli)?;
        println!("daemon acknowledged drain");
        return Ok(());
    }
    if o.switch("stats") {
        let snap = client.stats().map_err(protocol_to_cli)?;
        match o.string("format", "table").as_str() {
            "table" => print!("{}", snap.to_table()),
            "json" => print!("{}", snap.to_json()),
            "prom" => print!("{}", snap.to_prometheus()),
            other => {
                return Err(CliError::Config(format!(
                    "unknown stats format `{other}` (table | json | prom)"
                )))
            }
        }
        return Ok(());
    }

    let n = o.usize("n", 64)?;
    let default_spokes = (1.2 * core::f64::consts::FRAC_PI_2 * n as f64) as usize;
    let spokes = o.usize("spokes", default_spokes)?;
    let count = o.usize("count", 1)?;
    let budget_ms = o.usize("budget-ms", 0)?;
    let tag0 = o.usize("tag", 1)? as u64;
    let priority = if o.switch("high") {
        Priority::High
    } else {
        Priority::Normal
    };
    let policy = RetryPolicy {
        retries: o.usize("retries", 0)? as u32,
        backoff_ms: o.usize("backoff-ms", 50)? as u64,
        seed: tag0,
    };
    let mut coords = traj::radial_2d(spokes, 2 * n, true);
    traj::shuffle(&mut coords, 7);
    let values = Phantom2d::shepp_logan().kspace(n, &coords);
    for i in 0..count {
        let req = JobRequest {
            tag: tag0 + i as u64,
            priority,
            n: n as u32,
            budget_ms: budget_ms as u32,
            coords: coords.clone(),
            values: values.clone(),
        };
        let t0 = std::time::Instant::now();
        match client
            .roundtrip_with_retry(&req, &policy)
            .map_err(protocol_to_cli)?
        {
            Frame::Result(res) => {
                println!(
                    "job {}: {}² image in {} ({})",
                    res.tag,
                    res.n,
                    fmt_time(t0.elapsed().as_secs_f64()),
                    if res.cache_hit {
                        "cache hit"
                    } else {
                        "cold plan"
                    }
                );
            }
            Frame::Error(err) => {
                use jigsaw_core::serve::ErrorCategory;
                let msg = format!("job {}: {}", err.tag, err.message);
                return Err(match err.category {
                    ErrorCategory::Config => CliError::Config(msg),
                    ErrorCategory::Data | ErrorCategory::Protocol => CliError::Data(msg),
                    ErrorCategory::Execution => CliError::Execution(msg),
                    ErrorCategory::Budget => CliError::Budget(msg),
                    ErrorCategory::Overloaded => CliError::Overloaded(msg),
                });
            }
            Frame::Overloaded(ov) => {
                return Err(CliError::Overloaded(format!(
                    "job {}: {} (shed: {}; retry after {} ms)",
                    ov.tag,
                    ov.message,
                    ov.reason.label(),
                    ov.retry_after_ms
                )));
            }
            other => return Err(CliError::Data(format!("unexpected daemon frame {other:?}"))),
        }
    }
    Ok(())
}

/// One refresh of the `jigsaw top` dashboard, rendered to a string so
/// the unit tests can pin its shape without a daemon.
fn render_top(snap: &jigsaw_core::serve::StatsSnapshot, scrape: usize, total: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let progress = if total > 0 {
        format!(" — scrape {scrape}/{total}")
    } else {
        format!(" — scrape {scrape}")
    };
    let _ = writeln!(
        s,
        "jigsaw top — uptime {}{progress}",
        fmt_time(snap.uptime_secs())
    );
    let _ = writeln!(
        s,
        "queue     : {} queued ({} high priority)",
        snap.queue_depth, snap.queue_high
    );
    let _ = writeln!(
        s,
        "plan cache: {} hit / {} miss / {} evict  (hit rate {:.1}%, {}/{} resident)",
        snap.cache.hits,
        snap.cache.misses,
        snap.cache.evictions,
        100.0 * snap.cache.hit_rate(),
        snap.cache.len,
        snap.cache.capacity
    );
    for (label, name) in [
        ("latency 60s", "serve.job_latency_ns.60s"),
        ("wait (norm)", "serve.queue_wait_ns.normal.60s"),
        ("wait (high)", "serve.queue_wait_ns.high.60s"),
    ] {
        if let Some(w) = snap.window(name) {
            let _ = writeln!(
                s,
                "{label}: p50 {}  p99 {}  ({} samples)",
                fmt_time(w.hist.quantile_estimate(0.5) / 1e9),
                fmt_time(w.hist.quantile_estimate(0.99) / 1e9),
                w.hist.count
            );
        }
    }
    let _ = writeln!(s, "workers   :");
    for (i, (w, u)) in snap
        .workers
        .iter()
        .zip(snap.worker_utilization())
        .enumerate()
    {
        let filled = (u * 20.0).round() as usize;
        let _ = writeln!(
            s,
            "  {i:>2} [{}{}] {:>5.1}%  ({} jobs)",
            "#".repeat(filled.min(20)),
            "-".repeat(20 - filled.min(20)),
            100.0 * u,
            w.jobs
        );
    }
    if let Some(e) = snap.flight.last() {
        let _ = writeln!(s, "last event: {e}");
    }
    s
}

/// `jigsaw top` — poll a daemon's stats on an interval and render a
/// refreshing terminal dashboard (queue depth, cache hit rate, windowed
/// latency quantiles, per-worker utilization bars).
pub fn top(o: &Options) -> CmdResult {
    use jigsaw_core::serve::ServeClient;
    let sock = o.string("socket", "");
    if sock.is_empty() {
        return Err(CliError::Config("top needs --socket <path>".into()));
    }
    let interval = std::time::Duration::from_millis(o.usize("interval-ms", 1000)? as u64);
    // 0 = poll until the daemon goes away (or ^C).
    let iterations = o.usize("iterations", 0)?;
    let mut scrape = 0usize;
    loop {
        let mut client = ServeClient::connect(std::path::Path::new(&sock))
            .map_err(|e| CliError::Data(format!("connecting to {sock}: {e}")))?;
        client
            .set_read_timeout(std::time::Duration::from_secs(10))
            .map_err(|e| CliError::Data(format!("configuring socket: {e}")))?;
        let snap = client.stats().map_err(protocol_to_cli)?;
        scrape += 1;
        if scrape > 1 {
            // ANSI clear + home: refresh in place on real terminals.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&snap, scrape, iterations));
        let _ = std::io::stdout().flush();
        if iterations > 0 && scrape >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// `jigsaw gpustats`
pub fn gpustats(o: &Options) -> CmdResult {
    let grid = o.usize("grid", 1024)?;
    let m = o.usize("samples", 100_000)?;
    let params = GridParams {
        grid,
        width: 6,
        table_oversampling: 32,
        tile: 8,
        kernel: KernelKind::Auto.resolve(6, 2.0),
    };
    let mut cyc = traj::radial_2d(m.div_ceil(512), 512, true);
    cyc.truncate(m);
    traj::shuffle(&mut cyc, 5);
    let coords: Vec<[f64; 2]> = cyc
        .iter()
        .map(|c| {
            [
                c[0].rem_euclid(1.0) * grid as f64,
                c[1].rem_euclid(1.0) * grid as f64,
            ]
        })
        .collect();
    let cfg = jigsaw_gpu::ReplayConfig::default();
    for stats in [
        jigsaw_gpu::replay_slice_dice(&params, &coords, &cfg),
        jigsaw_gpu::replay_impatient(&params, &coords, &cfg),
    ] {
        println!(
            "{:45} L2 read hit {:5.1}%  lanes {:5.1}%  occupancy {:5.1}%  weight-FLOPs {}",
            stats.name,
            100.0 * stats.l2_hit_rate,
            100.0 * stats.lane_efficiency,
            100.0 * stats.occupancy,
            stats.weight_flops
        );
    }
    Ok(())
}

/// `jigsaw emit-rtl`
pub fn emit_rtl(o: &Options) -> CmdResult {
    let grid = o.usize("grid", 1024)?;
    let width = o.usize("width", 6)?;
    let l = o.usize("table-oversampling", 32)?;
    let dir = o.string("out", "rtl");
    let cfg = JigsawConfig {
        grid,
        width,
        table_oversampling: l,
        ..JigsawConfig::paper_default()
    };
    cfg.validate()?;
    std::fs::create_dir_all(&dir).map_err(|e| CliError::Data(format!("creating {dir}: {e}")))?;
    let files = [
        ("jigsaw_select.sv", jigsaw_sim::rtl::emit_select_unit(&cfg)),
        (
            "jigsaw_weights.memh",
            jigsaw_sim::rtl::emit_weight_memh(&cfg),
        ),
        (
            "jigsaw_select_tb.sv",
            jigsaw_sim::rtl::emit_testbench(&cfg, 200),
        ),
    ];
    for (name, contents) in files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, contents)
            .map_err(|e| CliError::Data(format!("writing {path}: {e}")))?;
        println!("wrote {path}");
    }
    println!(
        "\nSimulate with e.g.: iverilog -g2012 {dir}/jigsaw_select.sv {dir}/jigsaw_select_tb.sv"
    );
    Ok(())
}

/// `jigsaw info`
pub fn info() -> CmdResult {
    println!("Table I — supported JIGSAW parameters:");
    println!("  target grid N        : 8–1024 (×8 multiples)");
    println!("  virtual tile T       : 8");
    println!("  window width W       : 1–8");
    println!("  table oversampling L : 1–64 (power of two)");
    println!("  pipeline width       : 32-bit fixed point");
    println!("  weight width         : 16-bit (Q1.15)");
    println!();
    println!("Table II — modeled synthesis (16 nm, 1.0 GHz):");
    for (label, p, a) in PowerModel::calibrated().table_ii() {
        println!("  {label:<26} {p:>8.2} mW  {a:>6.2} mm²");
    }
    Ok(())
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_lookup() {
        for name in ["serial", "binned", "slice-dice", "slice-dice-serial"] {
            assert!(engine_by_name(name).is_ok(), "{name}");
        }
        assert!(engine_by_name("warp-drive").is_err());
    }

    #[test]
    fn pgm_writer_creates_file() {
        let img = vec![C64::new(1.0, 0.0); 9];
        let path = "/tmp/jigsaw_cli_test/out.pgm";
        write_pgm(path, &img, 3).unwrap();
        let data = std::fs::read(path).unwrap();
        assert!(data.starts_with(b"P5\n3 3\n255\n"));
    }

    #[test]
    fn info_runs() {
        info().unwrap();
    }

    #[test]
    fn top_dashboard_renders() {
        use jigsaw_core::serve::{
            CacheStats, StatsSnapshot, WindowStats, WorkerStats, STATS_VERSION,
        };
        let snap = StatsSnapshot {
            stats_version: STATS_VERSION,
            uptime_ns: 2_000_000_000,
            queue_depth: 3,
            queue_high: 1,
            cache: CacheStats {
                hits: 9,
                misses: 1,
                evictions: 0,
                len: 1,
                capacity: 8,
            },
            workers: vec![WorkerStats {
                busy_ns: 1_000_000_000,
                jobs: 10,
            }],
            windows: vec![WindowStats {
                name: "serve.job_latency_ns.60s".into(),
                window_ns: 60_000_000_000,
                hist: telemetry::HistogramSnapshot {
                    count: 4,
                    sum: 4_000_000,
                    buckets: vec![(524_288, 1_048_576, 4)],
                },
            }],
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            flight: Vec::new(),
        };
        let s = render_top(&snap, 2, 5);
        assert!(s.contains("scrape 2/5"), "{s}");
        assert!(s.contains("3 queued (1 high priority)"), "{s}");
        assert!(s.contains("hit rate 90.0%"), "{s}");
        assert!(s.contains("latency 60s: p50"), "{s}");
        assert!(
            s.contains("[##########----------]  50.0%  (10 jobs)"),
            "{s}"
        );
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(1.5), "1.50 s");
        assert_eq!(fmt_time(2e-3), "2.00 ms");
        assert_eq!(fmt_time(3e-6), "3.00 \u{b5}s");
        assert_eq!(fmt_time(5e-9), "5 ns");
    }
}
