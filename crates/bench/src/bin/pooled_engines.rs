//! The parallel gridders on the persistent worker pool, plus the batched
//! multi-coil adjoint path.
//!
//! Two questions, answered with wall-clock numbers and recorded in
//! `BENCH_pooled_engines.json`:
//!
//! 1. **Engine dispatch** — how fast is each parallel gridder, every one
//!    dispatched through the persistent [`WorkerPool`], against the
//!    serial engine on the same problem?
//! 2. **Multi-coil batching** — on a radial 256² problem with ≥ 8 coils,
//!    does `plan_trajectory` + `adjoint_batch_planned` (decompose once,
//!    one coil per pool job) beat a per-coil loop of `adjoint` calls, each
//!    gridding with the default column-parallel Slice-and-Dice engine?
//!
//! Run with `cargo run --release -p jigsaw-bench --bin pooled_engines`
//! (append `--quick` to shrink M).

use jigsaw_bench::harness::{fmt_time, BenchGroup, Stats};
use jigsaw_bench::{EvalImage, HarnessArgs, TrajKind};
use jigsaw_core::engine::WorkerPool;
use jigsaw_core::gridding::{
    BinnedGridder, Gridder, SerialGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;

const COILS: usize = 8;

struct JsonRecord {
    group: String,
    id: String,
    median_seconds: f64,
    min_seconds: f64,
}

fn record(records: &mut Vec<JsonRecord>, group: &str, id: &str, s: Stats) {
    records.push(JsonRecord {
        group: group.to_string(),
        id: id.to_string(),
        median_seconds: s.median,
        min_seconds: s.min,
    });
}

/// Every parallel engine and the serial baseline on one problem. Returns
/// the (serial, column-parallel Slice-and-Dice) medians.
fn engine_dispatch(img: &EvalImage, records: &mut Vec<JsonRecord>) -> (f64, f64) {
    let g = img.grid();
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(img.n)).unwrap();
    let coords_cycles = img.trajectory();
    let values = img.kspace(&coords_cycles);
    let mapped = plan.map_coords(&coords_cycles);
    let params = plan.grid_params();
    let lut = plan.lut();

    let mut group = BenchGroup::new("engine_dispatch");
    group
        .sample_size(10)
        .throughput_elements(coords_cycles.len() as u64);
    // The input-driven serial engine: the baseline every parallel
    // engine's dispatch is read against.
    let serial = group.bench_function("serial", || {
        let mut out = vec![C64::zeroed(); g * g];
        SerialGridder
            .grid(params, lut, &mapped, &values, &mut out)
            .unwrap();
        out
    });
    record(records, "engine_dispatch", "serial", serial);
    let engines: [(&str, Box<dyn Gridder<f64, 2>>); 3] = [
        ("binned", Box::new(BinnedGridder::default())),
        (
            "slice_dice_parallel",
            Box::new(SliceDiceGridder::new(SliceDiceMode::ColumnParallel)),
        ),
        (
            "slice_dice_atomic",
            Box::new(SliceDiceGridder::new(SliceDiceMode::BlockAtomic)),
        ),
    ];
    let mut parallel_med = f64::INFINITY;
    for (name, engine) in &engines {
        let stats = group.bench_function(name, || {
            let mut out = vec![C64::zeroed(); g * g];
            engine
                .grid(params, lut, &mapped, &values, &mut out)
                .unwrap();
            out
        });
        record(records, "engine_dispatch", name, stats);
        if *name == "slice_dice_parallel" {
            parallel_med = stats.median;
        }
    }
    group.finish();
    (serial.median, parallel_med)
}

/// Per-worker utilization of the global pool over one measured region:
/// `busy_ns_delta / wall_ns` for each worker, reduced to (max, min).
struct Utilization {
    max: f64,
    min: f64,
    jobs: u64,
}

fn measure_utilization<R>(mut f: impl FnMut() -> R) -> (R, Utilization) {
    let pool = WorkerPool::global();
    let busy_before = pool.worker_busy_ns();
    let jobs_before: u64 = pool.worker_job_counts().iter().sum();
    let t0 = std::time::Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos().max(1) as f64;
    let busy_after = pool.worker_busy_ns();
    let jobs_after: u64 = pool.worker_job_counts().iter().sum();
    let utils: Vec<f64> = busy_after
        .iter()
        .zip(&busy_before)
        .map(|(a, b)| (a - b) as f64 / wall_ns)
        .collect();
    let max = utils.iter().cloned().fold(0.0, f64::max);
    let min = utils.iter().cloned().fold(f64::INFINITY, f64::min);
    (
        out,
        Utilization {
            max,
            min: if min.is_finite() { min } else { 0.0 },
            jobs: jobs_after - jobs_before,
        },
    )
}

/// Batched planned multi-coil adjoint vs a per-coil loop of `adjoint`.
fn multi_coil(img: &EvalImage, records: &mut Vec<JsonRecord>) -> ((f64, f64), Utilization) {
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(img.n)).unwrap();
    let coords = img.trajectory();
    let base = img.kspace(&coords);
    // Synthetic coils: the same k-space under per-coil complex gains, the
    // shape `sense::acquire` produces for flat maps. Gridding cost is
    // identical for every coil, which is what we are measuring.
    let coils: Vec<Vec<C64>> = (0..COILS)
        .map(|c| {
            let phase = 0.7 * c as f64;
            let gain = C64::new(phase.cos(), phase.sin());
            base.iter().map(|&v| v * gain).collect()
        })
        .collect();
    let coil_refs: Vec<&[C64]> = coils.iter().map(|c| c.as_slice()).collect();
    let engine = SliceDiceGridder::default();

    let mut group = BenchGroup::new(&format!(
        "multi_coil_adjoint ({COILS} coils, radial {n}²)",
        n = img.n
    ));
    group.sample_size(5);
    let per_coil = group.bench_function("per_coil_adjoint", || {
        coils
            .iter()
            .map(|c| plan.adjoint(&coords, c, &engine).unwrap().image)
            .collect::<Vec<_>>()
    });
    let batched = group.bench_function("planned_batched_adjoint", || {
        // Planning is inside the timed region: the comparison is one full
        // reconstruction, cold trajectory, not an amortized replay.
        let traj = plan.plan_trajectory(&coords).unwrap();
        plan.adjoint_batch_planned(&traj, &coil_refs).unwrap()
    });
    let traj = plan.plan_trajectory(&coords).unwrap();
    // Warm replay doubles as the pool-imbalance probe: the always-on
    // per-worker busy counters give max/min utilization over the region.
    let (replay, util) = measure_utilization(|| {
        group.bench_function("planned_batched_adjoint_warm", || {
            plan.adjoint_batch_planned(&traj, &coil_refs).unwrap()
        })
    });
    group.finish();

    record(records, "multi_coil_adjoint", "per_coil_adjoint", per_coil);
    record(
        records,
        "multi_coil_adjoint",
        "planned_batched_adjoint",
        batched,
    );
    record(
        records,
        "multi_coil_adjoint",
        "planned_batched_adjoint_warm",
        replay,
    );
    ((per_coil.median, batched.median), util)
}

fn write_json(
    path: &str,
    records: &[JsonRecord],
    img: &EvalImage,
    dispatch: (f64, f64),
    coil: (f64, f64),
    util: &Utilization,
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"problem\": {{\"n\": {}, \"grid\": {}, \"m\": {}, \"trajectory\": \"radial\", \"coils\": {}}},\n",
        img.n,
        img.grid(),
        img.m,
        COILS
    ));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"median_seconds\": {:.6e}, \"min_seconds\": {:.6e}}}{}\n",
            r.group,
            r.id,
            r.median_seconds,
            r.min_seconds,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"parallel_over_serial_speedup\": {:.4},\n",
        dispatch.0 / dispatch.1
    ));
    s.push_str(&format!(
        "  \"batched_over_per_coil_speedup\": {:.4},\n",
        coil.0 / coil.1
    ));
    s.push_str(&format!(
        "  \"worker_utilization\": {{\"max\": {:.4}, \"min\": {:.4}, \"jobs\": {}}}\n}}\n",
        util.max, util.min, util.jobs
    ));
    std::fs::write(path, s)
}

fn main() {
    let args = HarnessArgs::parse();
    // "Radial 256²": base image N = 256 (grid 512 at σ = 2).
    let mut img = EvalImage {
        name: "radial256",
        n: 256,
        m: 131_072,
        traj: TrajKind::Radial,
    };
    if args.quick_divisor > 1 {
        println!("[quick mode: M divided by {}]", args.quick_divisor);
        img.m /= args.quick_divisor;
    }

    println!("=== Pooled gridding engines and the batched multi-coil adjoint ===\n");
    let mut records = Vec::new();
    let dispatch = engine_dispatch(&img, &mut records);
    let (coil, util) = multi_coil(&img, &mut records);

    println!(
        "slice-dice parallel {} vs serial engine {}  ({:.2}x)",
        fmt_time(dispatch.1),
        fmt_time(dispatch.0),
        dispatch.0 / dispatch.1
    );
    println!(
        "{COILS}-coil adjoint: batched {} vs per-coil {}  ({:.2}x)",
        fmt_time(coil.1),
        fmt_time(coil.0),
        coil.0 / coil.1
    );
    println!(
        "pool worker utilization over warm batch: max {:.1}%, min {:.1}% ({} jobs)",
        util.max * 100.0,
        util.min * 100.0,
        util.jobs
    );

    let path = "BENCH_pooled_engines.json";
    match write_json(path, &records, &img, dispatch, coil, &util) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
