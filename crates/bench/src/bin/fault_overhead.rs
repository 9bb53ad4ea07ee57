//! Disarmed fault-injection overhead check.
//!
//! Every fault point compiles to one relaxed atomic load and a predicted
//! branch when disarmed — the production default. This bench pins that
//! contract two ways:
//!
//! 1. **Workload level**: the pooled slice-and-dice gridding problem from
//!    `pooled_engines` is timed with fault points disarmed (default)
//!    and with a plan armed at a site the workload never hits (the armed
//!    slow path taken on every evaluation, without ever firing). The
//!    armed/disarmed ratio bounds the cost of the kill-switch check from
//!    above; the disarmed median is directly comparable with the
//!    `slice_dice_parallel` row of `BENCH_pooled_engines.json`
//!    (the ≤2 % acceptance gate — both files are regenerated on the same
//!    machine).
//! 2. **Call level**: the raw per-call cost of a disarmed
//!    `should_fire`, amortized over ten million calls.
//!
//! Run with `cargo run --release -p jigsaw-bench --bin fault_overhead`
//! (append `--quick`, or set `JIGSAW_BENCH_SAMPLES`, to shrink the run).

use jigsaw_bench::harness::{fmt_time, BenchGroup};
use jigsaw_bench::{EvalImage, HarnessArgs, TrajKind};
use jigsaw_core::gridding::{Gridder, SliceDiceGridder};
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;
use jigsaw_testkit::fault;
use std::hint::black_box;

fn main() {
    let args = HarnessArgs::parse();
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

    let g = img.grid();
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(img.n)).unwrap();
    let coords = img.trajectory();
    let values = img.kspace(&coords);
    let mapped = plan.map_coords(&coords);
    let params = plan.grid_params();
    let lut = plan.lut();
    let engine = SliceDiceGridder::default();

    println!(
        "=== Fault-point overhead (pooled slice-dice gridding, M = {}) ===\n",
        img.m
    );
    let mut group = BenchGroup::new("fault_overhead");
    group
        .sample_size(10)
        .throughput_elements(coords.len() as u64);

    // Disarmed: the production default — one relaxed load + branch per
    // fault point.
    fault::disarm();
    let disarmed = group.bench_function("gridding_faults_disarmed", || {
        let mut out = vec![C64::zeroed(); g * g];
        engine.grid(params, lut, &mapped, &values, &mut out);
        out
    });

    // Armed at a site this workload never evaluates: every fault-point
    // hit takes the full armed path (state mutex + site filter) but
    // nothing fires — an upper bound on instrumentation cost.
    fault::arm(fault::FaultPlan::once_at("bench.nonexistent"));
    let armed_miss = group.bench_function("gridding_faults_armed_miss", || {
        let mut out = vec![C64::zeroed(); g * g];
        engine.grid(params, lut, &mapped, &values, &mut out);
        out
    });
    fault::disarm();
    group.finish();

    // Raw disarmed per-call cost.
    const CALLS: u64 = 10_000_000;
    let t0 = std::time::Instant::now();
    let mut hits = 0u64;
    for _ in 0..CALLS {
        if black_box(fault::should_fire(black_box("gridding.chunk"))) {
            hits += 1;
        }
    }
    let per_call_ns = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    assert_eq!(hits, 0, "disarmed fault points must never fire");

    let ratio = armed_miss.median / disarmed.median;
    println!(
        "median: disarmed {} vs armed-miss {}  (armed/disarmed = {ratio:.4})",
        fmt_time(disarmed.median),
        fmt_time(armed_miss.median),
    );
    println!("disarmed should_fire: {per_call_ns:.2} ns/call over {CALLS} calls");

    let json = format!(
        "{{\n  \"problem\": {{\"n\": {}, \"grid\": {}, \"m\": {}, \"trajectory\": \"radial\"}},\n  \
         \"disarmed_median_seconds\": {:.6e},\n  \"disarmed_min_seconds\": {:.6e},\n  \
         \"armed_miss_median_seconds\": {:.6e},\n  \"armed_miss_min_seconds\": {:.6e},\n  \
         \"armed_over_disarmed\": {:.4},\n  \
         \"disarmed_should_fire_ns_per_call\": {:.3}\n}}\n",
        img.n,
        g,
        img.m,
        disarmed.median,
        disarmed.min,
        armed_miss.median,
        armed_miss.min,
        ratio,
        per_call_ns
    );
    let path = "BENCH_fault_overhead.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
