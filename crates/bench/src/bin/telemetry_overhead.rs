//! Disabled-telemetry overhead check.
//!
//! The telemetry kill switch's contract is that a disabled run costs one
//! predicted branch per instrumentation site. This bench times the same
//! slice-and-dice gridding problem with telemetry enabled and disabled
//! (via `jigsaw_telemetry::set_enabled`) and records the ratio in
//! `BENCH_telemetry_overhead.json` — the disabled run must stay within a
//! few percent of the enabled one, and both within noise of the pre-
//! telemetry baseline.
//!
//! A second phase times the introspection *record path* added for live
//! serve stats — a [`jigsaw_telemetry::WindowedHistogram`] record plus a
//! flight-recorder event per iteration, exactly the per-job sequence the
//! serve engine runs — against a bare baseline loop. The disarmed
//! variant (telemetry off, instrumentation present) is the acceptance
//! gate: it must stay within 1.05× of the baseline, i.e. one branch per
//! site.
//!
//! Run with `cargo run --release -p jigsaw-bench --bin telemetry_overhead`
//! (append `--quick`, or set `JIGSAW_BENCH_SAMPLES`, to shrink the run).

use jigsaw_bench::harness::{fmt_time, BenchGroup};
use jigsaw_bench::{EvalImage, HarnessArgs, TrajKind};
use jigsaw_core::gridding::{Gridder, SliceDiceGridder};
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;
use jigsaw_telemetry as telemetry;

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
    let coords_cycles = img.trajectory();
    let values = img.kspace(&coords_cycles);
    let mapped = plan.map_coords(&coords_cycles);
    let params = plan.grid_params();
    let lut = plan.lut();
    let engine = SliceDiceGridder::default();

    println!(
        "=== Telemetry overhead (slice-dice gridding, M = {}) ===\n",
        img.m
    );
    let mut group = BenchGroup::new("telemetry_overhead");
    group
        .sample_size(10)
        .throughput_elements(coords_cycles.len() as u64);

    let mut run = |id: &str, enabled: bool| {
        telemetry::set_enabled(enabled);
        let stats = group.bench_function(id, || {
            let mut out = vec![C64::zeroed(); g * g];
            engine
                .grid(params, lut, &mapped, &values, &mut out)
                .unwrap();
            out
        });
        // Don't let event buffers grow across configs.
        telemetry::drain_events();
        telemetry::reset();
        stats
    };
    let enabled = run("gridding_telemetry_on", true);
    let disabled = run("gridding_telemetry_off", false);
    telemetry::set_enabled(true);
    group.finish();

    let ratio = disabled.median / enabled.median;
    println!(
        "median: enabled {} vs disabled {}  (disabled/enabled = {:.4})",
        fmt_time(enabled.median),
        fmt_time(disabled.median),
        ratio
    );

    // ---- Phase 2: windowed-histogram + flight-recorder record path ----
    // Per iteration: one LCG step (the "work"), then the per-job record
    // sequence from `ServeEngine::execute_traced` — a windowed-histogram
    // sample gated on `enabled()` plus a flight event (internally gated).
    let iters = (2_000_000 / args.quick_divisor).max(100_000);
    println!("\n=== Introspection record path ({iters} records/sample) ===\n");
    let window = telemetry::WindowedHistogram::last_60s();
    let mut record_group = BenchGroup::new("record_path");
    record_group
        .sample_size(20)
        .throughput_elements(iters as u64);
    let lcg = |v: u64| {
        v.wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
    };
    let baseline = record_group.bench_function("record_baseline", || {
        let mut v = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..iters {
            v = lcg(v);
            std::hint::black_box(v >> 33);
        }
        v
    });
    let mut run_record = |id: &str, enabled: bool| {
        telemetry::set_enabled(enabled);
        let stats = record_group.bench_function(id, || {
            let mut v = 0x2545_f491_4f6c_dd1du64;
            for i in 0..iters {
                v = lcg(v);
                let sample = std::hint::black_box(v >> 33);
                if telemetry::enabled() {
                    window.record_at(i as u64 * 1_000, sample);
                }
                telemetry::flight::record(telemetry::FlightKind::JobFinished, i as u64, sample, "");
            }
            v
        });
        telemetry::flight::global().clear();
        stats
    };
    let record_disarmed = run_record("record_disarmed", false);
    let record_armed = run_record("record_armed", true);
    telemetry::set_enabled(true);
    record_group.finish();

    // The per-iteration work is ~1 ns, so the median is dominated by
    // scheduler jitter; min-of-samples is the noise-robust estimator for
    // a loop this tight and is what the 1.05× gate runs against.
    let record_disarmed_over_baseline = record_disarmed.min / baseline.min;
    let record_armed_over_baseline = record_armed.min / baseline.min;
    println!(
        "record path (min): baseline {} vs disarmed {} vs armed {}  \
         (disarmed/baseline = {record_disarmed_over_baseline:.4}, \
         armed/baseline = {record_armed_over_baseline:.4}, \
         armed ~{:.0} ns/record)",
        fmt_time(baseline.min),
        fmt_time(record_disarmed.min),
        fmt_time(record_armed.min),
        (record_armed.min - baseline.min) / iters as f64 * 1e9,
    );
    assert!(
        record_disarmed_over_baseline <= 1.05,
        "disarmed record path must cost <= 1.05x the bare loop, got {record_disarmed_over_baseline:.4}"
    );

    let json = format!(
        "{{\n  \"problem\": {{\"n\": {}, \"grid\": {}, \"m\": {}, \"trajectory\": \"radial\"}},\n  \
         \"enabled_median_seconds\": {:.6e},\n  \"enabled_min_seconds\": {:.6e},\n  \
         \"disabled_median_seconds\": {:.6e},\n  \"disabled_min_seconds\": {:.6e},\n  \
         \"disabled_over_enabled\": {:.4},\n  \
         \"record_path\": {{\n    \"iters\": {iters},\n    \
         \"baseline_min_seconds\": {:.6e},\n    \
         \"disarmed_min_seconds\": {:.6e},\n    \
         \"armed_min_seconds\": {:.6e},\n    \
         \"disarmed_over_baseline\": {record_disarmed_over_baseline:.4},\n    \
         \"armed_over_baseline\": {record_armed_over_baseline:.4},\n    \
         \"gate_disarmed_over_baseline_max\": 1.05\n  }}\n}}\n",
        img.n,
        g,
        img.m,
        enabled.median,
        enabled.min,
        disabled.median,
        disabled.min,
        ratio,
        baseline.min,
        record_disarmed.min,
        record_armed.min,
    );
    let path = "BENCH_telemetry_overhead.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
