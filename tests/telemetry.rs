//! Cross-crate telemetry integration tests: spans recorded across the
//! persistent worker pool carry per-worker thread attribution, the kill
//! switch makes collection a true no-op, the chrome-trace exporter emits
//! JSON our own parser accepts, and the metrics registry mirrors
//! `GridStats` counters bit-exactly.
//!
//! Telemetry state (kill switch, event buffers, global registry) is
//! process-global, so every test takes the same mutex.

use jigsaw::core::config::GridParams;
use jigsaw::core::engine::WorkerPool;
use jigsaw::core::gridding::{Gridder, SerialGridder, SliceDiceGridder};
use jigsaw::core::kernel::KernelKind;
use jigsaw::core::lut::KernelLut;
use jigsaw::core::stats::GridStats;
use jigsaw::num::C64;
use jigsaw::telemetry::{self, json, EventKind};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn params() -> GridParams {
    GridParams {
        grid: 64,
        width: 6,
        table_oversampling: 32,
        tile: 8,
        kernel: KernelKind::Auto.resolve(6, 2.0),
    }
}

fn sample_batch(m: usize) -> (Vec<[f64; 2]>, Vec<C64>) {
    (0..m)
        .map(|i| {
            let t = i as f64;
            (
                [(t * 7.31) % 64.0, (t * 3.77) % 64.0],
                C64::new((t * 0.13).sin(), (t * 0.41).cos()),
            )
        })
        .unzip()
}

/// Pooled gridding must leave spans attributed to worker threads (their
/// own tids, registered `jigsaw-worker-*` lanes) with the dispatch span
/// nested under the engine's pass span on the calling thread.
#[test]
fn pooled_spans_carry_worker_attribution() {
    let _g = guard();
    telemetry::set_enabled(true);
    telemetry::drain_events(); // isolate
    let p = params();
    let lut = KernelLut::from_params(&p);
    let (coords, values) = sample_batch(500);
    let mut out = vec![C64::zeroed(); 64 * 64];
    let engine = SliceDiceGridder::default();
    Gridder::<f64, 2>::grid(&engine, &p, &lut, &coords, &values, &mut out).unwrap();

    let events = telemetry::drain_events();
    let main_tid = telemetry::current_tid();
    let pass = events
        .iter()
        .find(|e| e.name == "gridding.slice_dice")
        .expect("gridding pass span");
    assert_eq!(pass.cat, "gridding");
    assert_eq!(pass.tid, main_tid);
    let dispatch = events
        .iter()
        .find(|e| e.name == "engine.dispatch")
        .expect("dispatch span");
    assert_eq!(dispatch.tid, main_tid);
    assert!(
        dispatch.depth > pass.depth,
        "dispatch must nest under the gridding pass ({} vs {})",
        dispatch.depth,
        pass.depth
    );
    // The dispatch interval must lie inside the pass interval.
    let end = |e: &telemetry::Event| match e.kind {
        EventKind::Span { dur_ns } => e.ts_ns + dur_ns,
        EventKind::Counter { .. } => e.ts_ns,
    };
    assert!(dispatch.ts_ns >= pass.ts_ns && end(dispatch) <= end(pass));

    let jobs: Vec<_> = events.iter().filter(|e| e.name == "engine.job").collect();
    assert!(!jobs.is_empty(), "worker job spans recorded");
    for j in &jobs {
        assert_ne!(j.tid, main_tid, "job spans attribute to worker threads");
    }
    let lanes = telemetry::lanes();
    for j in &jobs {
        let lane = lanes
            .iter()
            .find(|(tid, _)| *tid == j.tid)
            .map(|(_, n)| n.as_str())
            .expect("worker lane registered");
        assert!(lane.starts_with("jigsaw-worker-"), "lane {lane}");
    }
}

/// With the kill switch off, no events accumulate and the global
/// registry snapshot is unchanged — run-to-run deterministic.
#[test]
fn disabled_collection_is_deterministic() {
    let _g = guard();
    telemetry::set_enabled(true);
    telemetry::drain_events();
    // Pool creation registers its wait/run histograms (get-or-create);
    // force it before the baseline so the snapshot diff is pure.
    WorkerPool::global();
    telemetry::set_enabled(false);
    let before = telemetry::global().snapshot();
    let p = params();
    let lut = KernelLut::from_params(&p);
    let (coords, values) = sample_batch(300);
    for _ in 0..2 {
        let mut out = vec![C64::zeroed(); 64 * 64];
        let engine = SliceDiceGridder::default();
        Gridder::<f64, 2>::grid(&engine, &p, &lut, &coords, &values, &mut out).unwrap();
        telemetry::record_counter("should.not.appear", 1);
        telemetry::counter_event("should.not.appear", 1.0);
    }
    // Drain before re-enabling: disabled runs must have buffered nothing.
    let events = telemetry::drain_events();
    let after = telemetry::global().snapshot();
    telemetry::set_enabled(true);
    assert!(
        events.is_empty(),
        "disabled run buffered {} events",
        events.len()
    );
    assert_eq!(
        before.to_json(),
        after.to_json(),
        "registry must be untouched while disabled"
    );
    assert_eq!(after.counter("should.not.appear"), None);
}

/// The chrome-trace exporter's output must be valid JSON per the in-repo
/// parser, with the trace_event fields Perfetto requires.
#[test]
fn chrome_trace_parses_and_has_required_fields() {
    let _g = guard();
    telemetry::set_enabled(true);
    telemetry::drain_events();
    telemetry::set_thread_lane("test-main");
    {
        let _outer = telemetry::span!("recon.outer", { n: 64 });
        let _inner = telemetry::span!("gridding.inner");
        telemetry::counter_event("recon.cg_residual", 0.25);
    }
    // Pool activity so worker lanes appear.
    WorkerPool::global().map("test", 2, |_, _| {}).unwrap();
    let events = telemetry::drain_events();
    assert!(events.len() >= 4);
    let trace = telemetry::export::chrome_trace(&events, &telemetry::lanes());

    let doc = json::parse(&trace).expect("exporter must emit valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let evs = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!evs.is_empty());
    let mut phases = std::collections::BTreeSet::new();
    for e in evs {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph field");
        phases.insert(ph.to_string());
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("cat").and_then(|v| v.as_str()).is_some());
            }
            "C" => {
                let args = e.get("args").expect("counter args");
                assert!(args.get("value").and_then(|v| v.as_f64()).is_some());
            }
            "M" => assert_eq!(e.get("name").and_then(|v| v.as_str()), Some("thread_name")),
            other => panic!("unexpected phase {other}"),
        }
    }
    for ph in ["M", "X", "C"] {
        assert!(phases.contains(ph), "missing phase {ph}");
    }
    // Span events must include both the recon and gridding categories.
    let cats: std::collections::BTreeSet<_> = evs
        .iter()
        .filter_map(|e| e.get("cat").and_then(|v| v.as_str()))
        .collect();
    assert!(cats.contains("recon") && cats.contains("gridding"));
}

/// Counters mirrored from `GridStats` into a registry must match the
/// legacy struct bit-for-bit on a fixed problem.
#[test]
fn registry_mirror_matches_gridstats_bitwise() {
    let _g = guard();
    let p = params();
    let lut = KernelLut::from_params(&p);
    let (coords, values) = sample_batch(777);
    let mut out = vec![C64::zeroed(); 64 * 64];
    let stats: GridStats =
        Gridder::<f64, 2>::grid(&SerialGridder, &p, &lut, &coords, &values, &mut out).unwrap();

    let reg = telemetry::Registry::new();
    stats.mirror_to(&reg, "serial");
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("grid.serial.samples"),
        Some(stats.samples as u64)
    );
    assert_eq!(
        snap.counter("grid.serial.samples_processed"),
        Some(stats.samples_processed as u64)
    );
    assert_eq!(
        snap.counter("grid.serial.boundary_checks"),
        Some(stats.boundary_checks)
    );
    assert_eq!(
        snap.counter("grid.serial.kernel_accumulations"),
        Some(stats.kernel_accumulations)
    );
    // W² accumulations per sample on this problem.
    assert_eq!(stats.kernel_accumulations, 777 * 36);
}
