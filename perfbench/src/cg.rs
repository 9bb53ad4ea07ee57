//! `cg_sense`: one in-process caller running Toeplitz CG-SENSE with the
//! CLI's defaults.

use crate::inputs::{self, bitwise_eq};
use crate::report::median;
use crate::{Layers, Outcome};
use jigsaw_core::config::NufftConfig;
use jigsaw_core::engine::WorkerPool;
use jigsaw_core::gridding::SliceDiceGridder;
use jigsaw_core::nufft::NufftPlan;
use jigsaw_core::phantom::Phantom2d;
use jigsaw_core::recon::{CgDiagnostic, CgOptions, CgOutput, NormalOpKind};
use jigsaw_core::sense::{self, CoilMaps};
use jigsaw_core::toeplitz::ToeplitzOperator;
use jigsaw_core::traj;
use jigsaw_num::C64;
use std::time::{Duration, Instant};

/// Radial 128² with the CLI's default spoke count, 8 coils.
const N: usize = 128;
const COILS: usize = 8;
/// Exactly this many iterations per solve (tolerance 0).
const ITERATIONS: usize = 10;
/// The CLI's default Tikhonov weight.
const LAMBDA: f64 = 1e-5;
const SETUP_REPS: usize = 5;

struct Inputs {
    coords: Vec<[f64; 2]>,
    maps: CoilMaps,
    data: Vec<Vec<C64>>,
    truth: Vec<C64>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Self, String> {
        let spokes = (1.2 * core::f64::consts::FRAC_PI_2 * N as f64) as usize;
        let mut coords = traj::radial_2d(spokes, 2 * N, true);
        traj::shuffle(&mut coords, inputs::shuffle_seeds(seed, 1)[0]);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(N)).map_err(|e| e.to_string())?;
        let maps = CoilMaps::synthetic(N, COILS);
        let truth = Phantom2d::shepp_logan().rasterize_aa(N, 4);
        let data = sense::acquire(&plan, &maps, &truth, &coords).map_err(|e| e.to_string())?;
        Ok(Self {
            coords,
            maps,
            data,
            truth,
        })
    }

    fn solve(&self, plan: &NufftPlan<f64, 2>) -> Result<CgOutput, String> {
        let opts = CgOptions {
            max_iterations: ITERATIONS,
            tolerance: 0.0,
            lambda: LAMBDA,
            ..CgOptions::default()
        };
        sense::cg_sense_with(
            plan,
            &self.maps,
            &self.data,
            &self.coords,
            &SliceDiceGridder::default(),
            &opts,
            NormalOpKind::Toeplitz,
        )
        .map_err(|e| e.to_string())
    }
}

/// A solve is correct when it ran exactly `ITERATIONS` iterations to
/// `MaxIterations` and reproduced the setup solve's image bit for bit.
fn correct(out: &CgOutput, reference: &[C64]) -> bool {
    out.diagnostic == CgDiagnostic::MaxIterations
        && out.residuals.len() == ITERATIONS
        && bitwise_eq(&out.image, reference)
}

/// Planning plus one untimed solve, `SETUP_REPS` times. Returns the last
/// plan, the reference image, and the per-repetition setup and planning
/// times.
struct Setup {
    plan: NufftPlan<f64, 2>,
    reference: Vec<C64>,
    setup_s: Vec<f64>,
    plan_ms: Vec<f64>,
}

fn setup(inp: &Inputs) -> Result<Setup, String> {
    let mut s = Setup {
        plan: NufftPlan::new(NufftConfig::with_n(N)).map_err(|e| e.to_string())?,
        reference: Vec::new(),
        setup_s: Vec::new(),
        plan_ms: Vec::new(),
    };
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        s.plan = NufftPlan::new(NufftConfig::with_n(N)).map_err(|e| e.to_string())?;
        s.plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let out = inp.solve(&s.plan)?;
        s.setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            s.reference = out.image.clone();
        }
        if !correct(&out, &s.reference) {
            return Err(format!(
                "setup solve {rep}: {} after {} iterations, or image differs",
                out.diagnostic,
                out.residuals.len()
            ));
        }
    }
    Ok(s)
}

struct Phase {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    busy_share: Vec<f64>,
}

/// Solve back to back for `duration`, checking every solve.
fn closed_loop(inp: &Inputs, s: &Setup, duration: Duration) -> Phase {
    let pool = WorkerPool::global();
    let busy0 = pool.worker_busy_ns();
    let t_start = Instant::now();
    let mut p = Phase {
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        busy_share: Vec::new(),
    };
    while t_start.elapsed() < duration {
        p.attempted += 1;
        let t0 = Instant::now();
        match inp.solve(&s.plan) {
            Ok(out) if correct(&out, &s.reference) => {
                p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3)
            }
            _ => p.failed += 1,
        }
    }
    p.wall_s = t_start.elapsed().as_secs_f64();
    p.busy_share = busy0
        .iter()
        .zip(pool.worker_busy_ns())
        .map(|(a, b)| (b - a) as f64 / 1e9 / p.wall_s)
        .collect();
    p
}

/// The untraced run: the six end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inp = Inputs::new(seed)?;
    let s = setup(&inp)?;
    let p = closed_loop(&inp, &s, Duration::from_secs_f64(seconds));
    Ok(Outcome::end_to_end(
        &p.latencies_ms,
        p.attempted,
        p.failed,
        p.wall_s,
        median(&s.setup_s),
        crate::vm_hwm_mb("/proc/self/status")?,
        jigsaw_core::metrics::rel_l2(&s.reference, &inp.truth),
    ))
}

/// The traced run: solves with telemetry off, solves with telemetry on,
/// then a replay timing each stage of a solve through its own public
/// function — a third of the run each.
pub fn trace(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inp = Inputs::new(seed)?;
    let s = setup(&inp)?;
    let third = Duration::from_secs_f64(seconds / 3.0);
    let plain = closed_loop(&inp, &s, third);
    jigsaw_telemetry::set_enabled(true);
    let traced = closed_loop(&inp, &s, third);
    jigsaw_telemetry::set_enabled(false);
    drop(jigsaw_telemetry::drain_events());

    let gridder = SliceDiceGridder::default();
    let (mut adjoint_ms, mut build_ms, mut apply_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scatter_ms, mut fft_ms, mut apod_ms) = (Vec::new(), Vec::new(), Vec::new());
    let t_start = Instant::now();
    while adjoint_ms.is_empty() || t_start.elapsed() < third {
        let t0 = Instant::now();
        let rhs = sense::adjoint(&s.plan, &inp.maps, &inp.data, &inp.coords, &gridder)
            .map_err(|e| e.to_string())?;
        adjoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // The same coil batch again, for its per-stage split.
        let batches: Vec<&[C64]> = inp.data.iter().map(Vec::as_slice).collect();
        let outs = s
            .plan
            .adjoint_batch(&inp.coords, &batches, &gridder)
            .map_err(|e| e.to_string())?;
        let stage = |f: fn(&jigsaw_core::nufft::StageTimings) -> f64| {
            outs.iter().map(|o| f(&o.timings)).sum::<f64>() * 1e3
        };
        scatter_ms.push(stage(|t| t.interp_seconds));
        fft_ms.push(stage(|t| t.fft_seconds));
        apod_ms.push(stage(|t| t.apod_seconds));

        let t0 = Instant::now();
        let top = ToeplitzOperator::<2>::build_degradable(
            s.plan.config(),
            &inp.coords,
            &[],
            &gridder,
            None,
        )
        .map_err(|e| e.to_string())?
        .ok_or("Toeplitz build degraded to the gridded operator")?;
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let weighted: Vec<Vec<C64>> = (0..COILS)
            .map(|c| {
                rhs.iter()
                    .zip(inp.maps.map(c))
                    .map(|(v, m)| *v * *m)
                    .collect()
            })
            .collect();
        let refs: Vec<&[C64]> = weighted.iter().map(Vec::as_slice).collect();
        for _ in 0..ITERATIONS {
            let t0 = Instant::now();
            std::hint::black_box(top.apply_batch(&refs).map_err(|e| e.to_string())?);
            apply_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    let solve_p50 = median(&plain.latencies_ms);
    let parts = median(&adjoint_ms) + median(&build_ms) + ITERATIONS as f64 * median(&apply_ms);
    let mut layers = Layers::default();
    layers.on("nufft.plan_ms", median(&s.plan_ms));
    layers.on("gridding.scatter_ms", median(&scatter_ms));
    layers.on("fft.transform_ms", median(&fft_ms));
    layers.on("apod.deapodize_ms", median(&apod_ms));
    layers.busy_shares(&plain.busy_share);
    layers.on("sense.adjoint_ms", median(&adjoint_ms));
    layers.on("toeplitz.build_ms", median(&build_ms));
    layers.on("toeplitz.apply_batch_ms", median(&apply_ms));
    layers.on("recon.other_ms", solve_p50 - parts);
    layers.on("recon.iterations", ITERATIONS as f64);
    layers.on(
        "trace.overhead_ratio",
        median(&traced.latencies_ms) / solve_p50,
    );
    layers.wire_p50_ms = solve_p50;
    layers.attributed_ms = parts;

    Ok(Outcome::traced(
        &plain.latencies_ms,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        layers,
    ))
}
