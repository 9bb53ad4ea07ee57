//! Serving-daemon soak bench: the plan cache under thousands of
//! mixed-size jobs, the warm-vs-cold latency contract at radial 256²,
//! the disarmed fault-point overhead of the serve job path, bounded
//! admission under deliberate overload, and the cost of the
//! cooperative-cancellation checkpoints in the gridding hot loop.
//!
//! Six measurements, one JSON (`BENCH_serve_soak.json`):
//!
//! 1. **Soak** — thousands of jobs drawn from a pool of six
//!    trajectories across three image sizes, multiplexed onto one
//!    [`ServeEngine`] whose cache holds the whole pool. Reports p50/p99
//!    job latency and the cache hit rate (gate: ≥ 95 % on a
//!    repeated-trajectory workload, with the `serve.cache.hit`
//!    telemetry counter nonzero). Halfway through, a stats snapshot is
//!    scraped and round-tripped through the `StatsReply` wire encoding;
//!    the wire-reported cache hit rate and windowed p50 latency must
//!    agree with the harness's own independent measurements (relative
//!    gates: hit rate within 1 %, p50 within 2× — the window's log2
//!    buckets bound the quantile estimate's resolution).
//! 2. **Warm vs cold** — the acceptance contract: at radial 256²
//!    (M = 131 072) a warm-cache job must cost ≤ 0.75× a cold job that
//!    pays `plan_trajectory` first. Cold samples build a fresh engine
//!    per iteration; warm samples reuse one primed engine.
//! 3. **Fault overhead** — the soak loop re-timed with a fault plan
//!    armed at a site the serve path never hits, bounding the cost of
//!    the `serve.job`/`serve.cache` instrumentation from above.
//! 4. **Overload** — a full daemon (over a socketpair) with a tiny
//!    admission bound, hit with a 4×-oversubscribed pipelined burst.
//!    Gates: some jobs are shed (`serve.shed.depth` nonzero), every
//!    submit is answered exactly once, no accepted job's result
//!    arrives after its budget + 500 ms epsilon, and every refusal
//!    carries a sane `retry_after_ms` hint.
//! 5. **Cancel-checkpoint overhead** — one gridding-heavy adjoint
//!    timed bare (no cancel scope: the checkpoints take the
//!    one-atomic-load fast path) vs inside an armed-but-never-fired
//!    [`cancel::CancelScope`]. Gate (enforced in CI from the JSON):
//!    scoped/bare ≤ 1.05.
//! 6. **Restart** — the durable-lifecycle contract, at two levels.
//!    Engine level: a primed engine snapshots its plan cache; a fresh
//!    engine restored from that snapshot must serve the same radial
//!    256² job as a cache hit, with post-restart warm/cold latency
//!    ≤ 0.75 (gate enforced in CI from the JSON). Wire level: a full
//!    daemon lifetime is warmed and drained (`Drain` frame → snapshot
//!    on exit), then a second lifetime boots from the snapshot — every
//!    job in its first burst must report `cache_hit`.
//!
//! Run with `cargo run --release -p jigsaw-bench --bin serve_soak`
//! (append `--quick`, or set `JIGSAW_BENCH_SAMPLES`, to shrink the run).

use jigsaw_bench::harness::{fmt_time, BenchGroup};
use jigsaw_bench::{EvalImage, HarnessArgs, TrajKind};
use jigsaw_core::budget::RunBudget;
use jigsaw_core::gridding::SliceDiceGridder;
use jigsaw_core::serve::{
    protocol, serve_stream, Frame, JobRequest, Priority, ServeEngine, ServeOptions, StatsSnapshot,
};
use jigsaw_core::traj;
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::{cancel, fault, Rng};
use std::time::Instant;

/// One reusable soak problem: a trajectory, its sample values, and the
/// image size it reconstructs to.
struct SoakProblem {
    n: u32,
    coords: Vec<[f64; 2]>,
    values: Vec<C64>,
}

impl SoakProblem {
    /// Golden-angle radial problem with contents varied by `seed` (the
    /// shuffle order is part of the trajectory hash, so distinct seeds
    /// give distinct cache keys even at equal shape).
    fn radial(n: u32, spokes: usize, seed: u64) -> Self {
        let mut coords = traj::radial_2d(spokes, 2 * n as usize, true);
        traj::shuffle(&mut coords, seed);
        let values = coords
            .iter()
            .enumerate()
            .map(|(i, c)| C64::new(c[0].cos() + i as f64 * 1e-4, c[1].sin()))
            .collect();
        Self { n, coords, values }
    }

    fn request(&self, tag: u64) -> JobRequest {
        JobRequest {
            tag,
            priority: Priority::Normal,
            n: self.n,
            budget_ms: 0,
            coords: self.coords.clone(),
            values: self.values.clone(),
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One soak run: sorted per-job latencies in seconds plus the number of
/// jobs whose result reported `cache_hit` — the harness's *independent*
/// hit count, cross-checked against the wire-scraped cache counters.
struct SoakRun {
    latencies: Vec<f64>,
    cache_hits: usize,
}

/// Run `jobs` soak iterations over `pool` on `engine`.
fn soak(engine: &ServeEngine, pool: &[SoakProblem], jobs: usize, seed: u64) -> SoakRun {
    let budget = RunBudget::unlimited();
    let mut rng = Rng::new(seed);
    let mut latencies = Vec::with_capacity(jobs);
    let mut cache_hits = 0;
    for tag in 0..jobs {
        let p = &pool[rng.usize_range(0, pool.len())];
        let req = p.request(tag as u64);
        let t0 = Instant::now();
        let res = engine
            .execute(&req, &budget)
            .unwrap_or_else(|e| panic!("soak job {tag} failed: {}", e.message));
        latencies.push(t0.elapsed().as_secs_f64());
        assert_eq!(res.n, p.n);
        cache_hits += res.cache_hit as usize;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    SoakRun {
        latencies,
        cache_hits,
    }
}

/// Scrape the engine's stats and round-trip them through the real
/// `StatsReply` wire encoding, so the numbers checked below are exactly
/// what a remote `jigsaw request --stats` client would see.
fn scrape_wire(engine: &ServeEngine) -> StatsSnapshot {
    let frame = Frame::StatsReply(Box::new(engine.stats_snapshot(0, 0)));
    let bytes = protocol::encode(&frame);
    match protocol::read_frame(&mut bytes.as_slice()).expect("stats reply must round-trip") {
        Frame::StatsReply(s) => *s,
        other => panic!("stats reply decoded as {other:?}"),
    }
}

fn main() {
    let args = HarnessArgs::parse();
    telemetry::set_enabled(true);
    fault::disarm();

    // ---- Phase 1: mixed-size soak -------------------------------------
    // Six trajectories over three sizes; capacity 8 holds them all, so
    // after the six cold builds every job is a cache hit.
    let total_jobs = (3000 / args.quick_divisor).max(200);
    if args.quick_divisor > 1 {
        println!("[quick mode: job count divided by {}]", args.quick_divisor);
    }
    let pool: Vec<SoakProblem> = vec![
        SoakProblem::radial(32, 12, 101),
        SoakProblem::radial(32, 16, 203),
        SoakProblem::radial(48, 12, 307),
        SoakProblem::radial(48, 20, 409),
        SoakProblem::radial(64, 16, 511),
        SoakProblem::radial(64, 24, 613),
    ];
    let engine = ServeEngine::new(8);
    println!(
        "=== serve soak: {total_jobs} jobs over {} trajectories (n ∈ {{32, 48, 64}}) ===",
        pool.len()
    );
    let half = total_jobs / 2;
    let t0 = Instant::now();
    let first = soak(&engine, &pool, half, 77);
    // Mid-soak introspection scrape, round-tripped over the wire.
    let mid = scrape_wire(&engine);
    assert_eq!(
        mid.cache.hits + mid.cache.misses,
        half as u64,
        "mid-soak scrape must account for every job so far"
    );
    let second = soak(&engine, &pool, total_jobs - half, 78);
    let wall = t0.elapsed().as_secs_f64();
    let cache = engine.cache();
    let (hits, misses, evictions) = (cache.hits(), cache.misses(), cache.evictions());
    let hit_rate = hits as f64 / (hits + misses) as f64;
    let mut latencies: Vec<f64> = first
        .latencies
        .iter()
        .chain(second.latencies.iter())
        .copied()
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let telemetry_hits = telemetry::global()
        .snapshot()
        .counter("serve.cache.hit")
        .unwrap_or(0);
    println!(
        "{total_jobs} jobs in {}: p50 {} p99 {}  hit rate {:.4} ({hits} hits / {misses} misses, {evictions} evictions)",
        fmt_time(wall),
        fmt_time(p50),
        fmt_time(p99),
        hit_rate
    );
    assert!(telemetry_hits > 0, "serve.cache.hit must register");

    // ---- Wire stats vs harness cross-check ----------------------------
    // The final scrape's hit rate must agree with the hit flags the
    // harness saw on each job result, and its windowed p50 with the
    // harness-timed p50 — both through the real wire encoding.
    let fin = scrape_wire(&engine);
    let harness_hits = first.cache_hits + second.cache_hits;
    let harness_hit_rate = harness_hits as f64 / total_jobs as f64;
    let wire_hit_rate = fin.cache.hit_rate();
    let hit_rate_rel_err = (wire_hit_rate - harness_hit_rate).abs() / harness_hit_rate;
    // The 60 s latency window may have aged out early samples on a long
    // run, but the p50 of the surviving (recent, steady-state) samples
    // must still land within the log2-bucket resolution of the
    // harness's own p50.
    let wire_p50 = fin
        .window("serve.job_latency_ns.60s")
        .expect("latency window present in wire snapshot")
        .hist
        .quantile_estimate(0.5)
        / 1e9;
    let p50_ratio = wire_p50 / p50;
    println!(
        "wire stats: hit rate {wire_hit_rate:.4} vs harness {harness_hit_rate:.4} \
         (rel err {hit_rate_rel_err:.2e}); p50 {} vs harness {} (ratio {p50_ratio:.4})",
        fmt_time(wire_p50),
        fmt_time(p50),
    );
    assert!(
        hit_rate_rel_err <= 0.01,
        "wire hit rate must agree with harness within 1%, got rel err {hit_rate_rel_err:.4}"
    );
    assert!(
        (0.5..=2.0).contains(&p50_ratio),
        "wire p50 must agree with harness within 2x, got ratio {p50_ratio:.4}"
    );

    // ---- Phase 2: warm vs cold at radial 256² -------------------------
    let mut img = EvalImage {
        name: "radial256",
        n: 256,
        m: 131_072,
        traj: TrajKind::Radial,
    };
    if args.quick_divisor > 1 {
        img.m /= args.quick_divisor;
    }
    let coords = img.trajectory();
    let values = img.kspace(&coords);
    let big = JobRequest {
        tag: 1_000_000,
        priority: Priority::Normal,
        n: img.n as u32,
        budget_ms: 0,
        coords,
        values,
    };
    let budget = RunBudget::unlimited();

    let mut group = BenchGroup::new("serve_warm_vs_cold");
    group.sample_size(5).throughput_elements(img.m as u64);
    // Cold: a fresh engine per iteration pays plan_trajectory every time.
    let cold = group.bench_function("cold_plan_per_job", || {
        let fresh = ServeEngine::new(1);
        fresh.execute(&big, &budget).expect("cold job")
    });
    // Warm: one engine, primed before the harness runs, so the warm-up
    // call and every timed sample are cache hits.
    let warm_engine = ServeEngine::new(1);
    let primed = warm_engine.execute(&big, &budget).expect("priming job");
    assert!(!primed.cache_hit);
    let warm = group.bench_function("warm_cache_per_job", || {
        let res = warm_engine.execute(&big, &budget).expect("warm job");
        assert!(res.cache_hit, "warm samples must hit the cache");
        res
    });
    group.finish();
    let warm_over_cold = warm.median / cold.median;
    println!(
        "radial {0}²: cold {1} vs warm {2}  (warm/cold = {warm_over_cold:.4})",
        img.n,
        fmt_time(cold.median),
        fmt_time(warm.median),
    );

    // ---- Phase 3: disarmed vs armed-miss overhead ---------------------
    // The serve path crosses `serve.job` + `serve.cache` every job; time
    // a warm-job burst disarmed, then with a plan armed at a site the
    // path never evaluates (full armed slow path, nothing fires).
    let overhead_engine = ServeEngine::new(8);
    let burst = (total_jobs / 4).max(50);
    let mut overhead = BenchGroup::new("serve_fault_overhead");
    overhead.sample_size(5);
    fault::disarm();
    let disarmed = overhead.bench_function("soak_faults_disarmed", || {
        soak(&overhead_engine, &pool, burst, 19)
    });
    fault::arm(fault::FaultPlan::once_at("bench.nonexistent"));
    let armed_miss = overhead.bench_function("soak_faults_armed_miss", || {
        soak(&overhead_engine, &pool, burst, 19)
    });
    fault::disarm();
    overhead.finish();
    let armed_over_disarmed = armed_miss.median / disarmed.median;
    println!(
        "soak burst ({burst} jobs): disarmed {} vs armed-miss {}  (armed/disarmed = {armed_over_disarmed:.4})",
        fmt_time(disarmed.median),
        fmt_time(armed_miss.median),
    );

    // ---- Phase 4: bounded admission under 4× overload -----------------
    // A real daemon over a socketpair, tiny admission bound, pipelined
    // burst several times deeper than queue + executors. The daemon
    // must shed (not queue unboundedly), answer every submit exactly
    // once, and never deliver an accepted result past its budget plus
    // a scheduling epsilon.
    let overload_jobs = (64 / args.quick_divisor).max(16);
    let overload_budget_ms: u64 = 5_000;
    let shed_counter = |name: &str| telemetry::global().snapshot().counter(name).unwrap_or(0);
    let shed_depth_before = shed_counter("serve.shed.depth");
    let opts = ServeOptions {
        cache_capacity: 8,
        executors: 2,
        max_queue_depth: 4,
        ..Default::default()
    };
    let (client, server) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    let server_reader = server.try_clone().expect("server clone");
    let daemon = std::thread::spawn(move || {
        serve_stream(server_reader, server, &opts).expect("overload daemon");
    });
    let mut submit_side = client.try_clone().expect("client clone");
    let collector = std::thread::spawn(move || {
        // Drain every daemon frame until EOF (daemon closes after the
        // shutdown drain), stamping arrival times.
        let mut reader = client;
        let mut replies = Vec::new();
        while let Ok(f) = protocol::read_frame(&mut reader) {
            replies.push((f, Instant::now()));
        }
        replies
    });
    let overload_pool = SoakProblem::radial(32, 12, 717);
    let tag_base = 2_000_000u64;
    let mut submit_at = Vec::with_capacity(overload_jobs);
    for i in 0..overload_jobs {
        let mut req = overload_pool.request(tag_base + i as u64);
        req.budget_ms = overload_budget_ms as u32;
        submit_at.push(Instant::now());
        protocol::write_frame(&mut submit_side, &Frame::Submit(req)).expect("submit");
    }
    protocol::write_frame(&mut submit_side, &Frame::Shutdown).expect("shutdown");
    drop(submit_side);
    let replies = collector.join().expect("collector");
    daemon.join().expect("daemon thread");
    let mut accepted_latencies = Vec::new();
    let mut shed = 0usize;
    let mut errors = 0usize;
    for (frame, at) in &replies {
        match frame {
            Frame::Result(r) if r.tag >= tag_base => {
                let i = (r.tag - tag_base) as usize;
                accepted_latencies.push(at.duration_since(submit_at[i]).as_secs_f64());
            }
            Frame::Overloaded(o) if o.tag >= tag_base => {
                assert!(
                    o.retry_after_ms >= 25,
                    "retry hint below the clamp floor: {}",
                    o.retry_after_ms
                );
                shed += 1;
            }
            Frame::Error(e) if e.tag >= tag_base => errors += 1,
            _ => {} // shutdown Pong
        }
    }
    let accepted = accepted_latencies.len();
    assert_eq!(
        accepted + shed + errors,
        overload_jobs,
        "every submit must be answered exactly once"
    );
    assert!(
        shed > 0,
        "4× oversubscription must shed, not queue unboundedly"
    );
    assert_eq!(errors, 0, "no accepted job may fail under overload");
    let shed_depth_after = shed_counter("serve.shed.depth");
    assert!(
        shed_depth_after > shed_depth_before,
        "serve.shed.depth must register the refusals"
    );
    accepted_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let accepted_p99 = percentile(&accepted_latencies, 0.99);
    let accepted_p99_max = overload_budget_ms as f64 / 1e3 + 0.5;
    assert!(
        accepted_p99 <= accepted_p99_max,
        "accepted p99 {accepted_p99:.3}s past budget+epsilon {accepted_p99_max:.3}s"
    );
    println!(
        "=== overload: {overload_jobs} pipelined jobs vs depth-4 queue + 2 executors ===\n\
         accepted {accepted} / shed {shed}  accepted p99 {} (bound {})",
        fmt_time(accepted_p99),
        fmt_time(accepted_p99_max),
    );

    // ---- Phase 5: cancel-checkpoint overhead --------------------------
    // The gridding hot loop polls `cancel::cancelled()` once per chunk.
    // Bare run: no scope, so the poll is one relaxed atomic load.
    // Scoped run: a live (never-fired) CancelScope arms the slow path.
    let ck_n = 96usize;
    let ck = SoakProblem::radial(ck_n as u32, 64, 901);
    let ck_plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(ck_n)).expect("checkpoint plan");
    let gridder = SliceDiceGridder::default();
    let mut ck_group = BenchGroup::new("cancel_checkpoint_overhead");
    ck_group
        .sample_size(7)
        .throughput_elements(ck.coords.len() as u64);
    let bare = ck_group.bench_function("gridding_no_scope", || {
        ck_plan
            .adjoint(&ck.coords, &ck.values, &gridder)
            .expect("bare adjoint")
    });
    let flag = cancel::CancelFlag::new();
    let scoped = {
        let _scope = cancel::CancelScope::enter(Some(flag.clone()));
        ck_group.bench_function("gridding_live_scope", || {
            ck_plan
                .adjoint(&ck.coords, &ck.values, &gridder)
                .expect("scoped adjoint")
        })
    };
    assert!(!flag.is_cancelled());
    ck_group.finish();
    let scoped_over_bare = scoped.median / bare.median;
    println!(
        "gridding n={ck_n} M={}: bare {} vs live-scope {}  (scoped/bare = {scoped_over_bare:.4})",
        ck.coords.len(),
        fmt_time(bare.median),
        fmt_time(scoped.median),
    );

    // ---- Phase 6: drain → snapshot → warm restart ---------------------
    // Engine level: a primed engine persists its plan cache; a fresh
    // engine restored from the snapshot must serve the same radial 256²
    // job as a cache hit, at warm (not cold) latency. The snapshot load
    // happens once, outside the timed region — it is boot cost, not
    // request cost; the gate is about post-restart *request* latency.
    let snap_path =
        std::env::temp_dir().join(format!("jigsaw-soak-restart-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);
    let snapshot_entries = {
        let first_life = ServeEngine::new(1);
        first_life.execute(&big, &budget).expect("priming job");
        first_life
            .cache()
            .save_snapshot(&snap_path)
            .expect("save snapshot")
    };
    let restarted = ServeEngine::new(1);
    let (restored, restore_skipped) = restarted
        .cache()
        .load_snapshot(&snap_path)
        .expect("load snapshot");
    assert_eq!(restore_skipped, 0, "undamaged snapshot must restore fully");
    assert!(restored >= 1, "snapshot must carry the primed plan");
    let mut restart_group = BenchGroup::new("serve_restart");
    restart_group
        .sample_size(5)
        .throughput_elements(img.m as u64);
    let restart_warm = restart_group.bench_function("warm_restart_request", || {
        let res = restarted.execute(&big, &budget).expect("restarted job");
        assert!(res.cache_hit, "post-restart request must hit the cache");
        res
    });
    restart_group.finish();
    let restart_over_cold = restart_warm.median / cold.median;
    println!(
        "restart: {snapshot_entries}-entry snapshot, {restored} restored; \
         post-restart {} vs cold {}  (warm/cold = {restart_over_cold:.4})",
        fmt_time(restart_warm.median),
        fmt_time(cold.median),
    );

    // Wire level: lifetime 1 warms a real daemon with the soak pool and
    // drains it (snapshotting on exit); lifetime 2 boots from the
    // snapshot and replays the pool — its entire first burst must hit.
    let run_lifetime = |frames: Vec<Frame>, opts: &ServeOptions| -> Vec<Frame> {
        let (client, server) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let server_reader = server.try_clone().expect("server clone");
        let opts = opts.clone();
        let daemon = std::thread::spawn(move || {
            serve_stream(server_reader, server, &opts).expect("restart daemon");
        });
        let mut submit_side = client.try_clone().expect("client clone");
        let collector = std::thread::spawn(move || {
            let mut reader = client;
            let mut replies = Vec::new();
            while let Ok(f) = protocol::read_frame(&mut reader) {
                replies.push(f);
            }
            replies
        });
        for f in &frames {
            protocol::write_frame(&mut submit_side, f).expect("lifetime frame");
        }
        // Half-close the submit direction so a Drain-terminated session sees
        // EOF: dropping this clone alone would not, because the collector
        // thread still holds another clone of the same socket.
        submit_side
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close submit side");
        drop(submit_side);
        let replies = collector.join().expect("collector");
        daemon.join().expect("daemon thread");
        replies
    };
    let wire_snap = std::env::temp_dir().join(format!(
        "jigsaw-soak-restart-wire-{}.snap",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wire_snap);
    let wire_opts = ServeOptions {
        snapshot_path: Some(wire_snap.clone()),
        ..Default::default()
    };
    let tag_base = 3_000_000u64;
    let warm_frames: Vec<Frame> = pool
        .iter()
        .enumerate()
        .map(|(i, p)| Frame::Submit(p.request(tag_base + i as u64)))
        .chain(std::iter::once(Frame::Drain))
        .collect();
    run_lifetime(warm_frames, &wire_opts);
    assert!(wire_snap.exists(), "drain must write the wire snapshot");
    let burst_frames: Vec<Frame> = pool
        .iter()
        .enumerate()
        .map(|(i, p)| Frame::Submit(p.request(tag_base + 100 + i as u64)))
        .chain(std::iter::once(Frame::Shutdown))
        .collect();
    let burst_replies = run_lifetime(burst_frames, &wire_opts);
    let first_burst_jobs = pool.len();
    let first_burst_hits = burst_replies
        .iter()
        .filter(|f| matches!(f, Frame::Result(r) if r.cache_hit))
        .count();
    let first_burst_hit_rate = first_burst_hits as f64 / first_burst_jobs as f64;
    assert_eq!(
        first_burst_hits, first_burst_jobs,
        "every first-burst job after a warm restart must be a cache hit"
    );
    println!(
        "wire restart: first burst {first_burst_hits}/{first_burst_jobs} cache hits \
         (rate {first_burst_hit_rate:.4})"
    );
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_file(&wire_snap);

    let json = format!(
        "{{\n  \"soak\": {{\n    \"jobs\": {total_jobs},\n    \"sizes\": [32, 48, 64],\n    \
         \"trajectories\": {},\n    \"cache_capacity\": 8,\n    \"hits\": {hits},\n    \
         \"misses\": {misses},\n    \"evictions\": {evictions},\n    \"hit_rate\": {hit_rate:.6},\n    \
         \"telemetry_cache_hit_counter\": {telemetry_hits},\n    \
         \"p50_latency_seconds\": {p50:.6e},\n    \"p99_latency_seconds\": {p99:.6e},\n    \
         \"wall_seconds\": {wall:.6e}\n  }},\n  \
         \"stats_wire\": {{\n    \"mid_scrape_jobs\": {half},\n    \
         \"mid_hits\": {},\n    \"mid_misses\": {},\n    \
         \"wire_hit_rate\": {wire_hit_rate:.6},\n    \
         \"harness_hit_rate\": {harness_hit_rate:.6},\n    \
         \"hit_rate_rel_err\": {hit_rate_rel_err:.6e},\n    \
         \"gate_hit_rate_rel_err_max\": 0.01,\n    \
         \"wire_p50_seconds\": {wire_p50:.6e},\n    \
         \"harness_p50_seconds\": {p50:.6e},\n    \
         \"p50_ratio\": {p50_ratio:.4},\n    \
         \"gate_p50_ratio_range\": [0.5, 2.0]\n  }},\n  \
         \"warm_vs_cold\": {{\n    \"n\": {},\n    \"m\": {},\n    \"trajectory\": \"radial\",\n    \
         \"cold_plan_median_seconds\": {:.6e},\n    \"warm_cache_median_seconds\": {:.6e},\n    \
         \"warm_over_cold\": {warm_over_cold:.4}\n  }},\n  \
         \"fault_overhead\": {{\n    \"burst_jobs\": {burst},\n    \
         \"disarmed_median_seconds\": {:.6e},\n    \"armed_miss_median_seconds\": {:.6e},\n    \
         \"armed_over_disarmed\": {armed_over_disarmed:.4}\n  }},\n  \
         \"overload\": {{\n    \"jobs\": {overload_jobs},\n    \"max_queue_depth\": 4,\n    \
         \"executors\": 2,\n    \"budget_ms\": {overload_budget_ms},\n    \
         \"accepted\": {accepted},\n    \"shed\": {shed},\n    \
         \"shed_depth_counter_delta\": {},\n    \
         \"accepted_p99_seconds\": {accepted_p99:.6e},\n    \
         \"gate_accepted_p99_max_seconds\": {accepted_p99_max:.3}\n  }},\n  \
         \"cancel_overhead\": {{\n    \"n\": {ck_n},\n    \"m\": {},\n    \
         \"bare_median_seconds\": {:.6e},\n    \"scoped_median_seconds\": {:.6e},\n    \
         \"scoped_over_bare\": {scoped_over_bare:.4},\n    \
         \"gate_scoped_over_bare_max\": 1.05\n  }},\n  \
         \"restart\": {{\n    \"snapshot_entries\": {snapshot_entries},\n    \
         \"restored\": {restored},\n    \"restore_skipped\": {restore_skipped},\n    \
         \"cold_median_seconds\": {:.6e},\n    \
         \"warm_restart_median_seconds\": {:.6e},\n    \
         \"warm_over_cold\": {restart_over_cold:.4},\n    \
         \"gate_warm_over_cold_max\": 0.75,\n    \
         \"first_burst_jobs\": {first_burst_jobs},\n    \
         \"first_burst_hits\": {first_burst_hits},\n    \
         \"first_burst_hit_rate\": {first_burst_hit_rate:.4},\n    \
         \"gate_first_burst_hit_rate_min\": 1.0\n  }}\n}}\n",
        pool.len(),
        mid.cache.hits,
        mid.cache.misses,
        img.n,
        img.m,
        cold.median,
        warm.median,
        disarmed.median,
        armed_miss.median,
        shed_depth_after - shed_depth_before,
        ck.coords.len(),
        bare.median,
        scoped.median,
        cold.median,
        restart_warm.median,
    );
    let path = "BENCH_serve_soak.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
