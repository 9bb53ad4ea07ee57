//! Chaos suite: every registered fault point is exercised end to end.
//!
//! For each site in `jigsaw::core::fault::SITES` this suite verifies the
//! three robustness contracts of the execution engine:
//!
//! 1. **Containment** — with the serial fallback disabled, an injected
//!    panic surfaces as `Err(Error::Execution(..))`; nothing panics or
//!    hangs, and the same global pool completes a subsequent clean run.
//! 2. **Degradation** — with the fallback enabled (the default), the
//!    same injected panic degrades: the failed jobs run again on the
//!    calling thread, the output is *bitwise identical* to an unfaulted
//!    pooled run, and the call counts once in the `engine.fallbacks`
//!    metric.
//! 3. **Numerical containment** — the `recon.cg_iter` site poisons a CG
//!    residual instead of panicking; the solver returns its best iterate
//!    with a `NonFinite` diagnostic.
//!
//! The fault switch and fallback policy are process-global, so every
//! test serializes on `fault::test_guard()` and restores the fallback
//! default on drop.

use jigsaw::core::engine::{set_serial_fallback, WorkerPool};
use jigsaw::core::fault;
use jigsaw::core::gridding::{
    BinnedGridder, Gridder, NaiveOutputGridder, SliceDiceGridder, SliceDiceMode,
};
use jigsaw::core::recon::{
    cg_reconstruct, cg_reconstruct_with, CgDiagnostic, CgOptions, NormalOpKind,
};
use jigsaw::core::toeplitz::ToeplitzOperator;
use jigsaw::core::{Error, NufftConfig, NufftPlan};
use jigsaw::num::C64;
use jigsaw::telemetry;
use jigsaw_testkit::fault::{arm, disarm, fires, test_guard, FaultPlan};

/// Restores the default robustness policy when a test ends (even by
/// panic): fault points disarmed, serial fallback enabled.
struct PolicyGuard;

impl Drop for PolicyGuard {
    fn drop(&mut self) {
        disarm();
        set_serial_fallback(true);
    }
}

fn bits_eq(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// A radial multi-coil problem on `spokes` spokes: plan, trajectory, and
/// per-coil data.
fn radial_problem(n: usize, spokes: usize, coils: usize) -> Problem {
    let coords = jigsaw::core::traj::radial_2d(spokes, 2 * n, true);
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    let data: Vec<Vec<C64>> = (0..coils)
        .map(|c| {
            coords
                .iter()
                .enumerate()
                .map(|(i, _)| C64::new((i + c) as f64 * 0.01, (c + 1) as f64 * 0.1))
                .collect()
        })
        .collect();
    (plan, coords, data)
}

/// A small multi-coil problem: plan, trajectory, and per-coil data.
fn coil_problem(n: usize, coils: usize) -> Problem {
    radial_problem(n, 12, coils)
}

/// A plan, its trajectory and per-coil data.
type Problem = (NufftPlan<f64, 2>, Vec<[f64; 2]>, Vec<Vec<C64>>);

/// The planned batches the pool-level contracts drive, each with the
/// number of pool jobs it runs: three coils run one job per coil, and
/// one coil on 480 spokes (M·W² ≈ 0.55 M kernel accumulations, above the
/// row-band cutoff) runs one row-band job per worker of the global pool,
/// or one job on a one-CPU host.
fn contract_batches() -> [(Problem, u64); 2] {
    let n = 16;
    let bands = WorkerPool::global().size().min(2 * n) as u64;
    [(radial_problem(n, 480, 1), bands), (coil_problem(n, 3), 3)]
}

fn run_batch(
    plan: &NufftPlan<f64, 2>,
    coords: &[[f64; 2]],
    data: &[Vec<C64>],
) -> Result<Vec<Vec<C64>>, Error> {
    let traj = plan.plan_trajectory(coords)?;
    let refs: Vec<&[C64]> = data.iter().map(|d| d.as_slice()).collect();
    Ok(plan
        .adjoint_batch_planned(&traj, &refs)?
        .into_iter()
        .map(|o| o.image)
        .collect())
}

/// Contract 1: with the fallback disabled, a fault at each pool-level
/// site during `adjoint_batch_planned` returns `Err(Error::Execution)`
/// — and the pool completes a clean identical run immediately after —
/// in a coil job and in a row-band job alike.
#[test]
fn strict_mode_surfaces_execution_errors_and_pool_survives() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    for ((plan, coords, data), _) in contract_batches() {
        let coils = data.len();
        let baseline = run_batch(&plan, &coords, &data).unwrap();
        for site in [fault::ENGINE_DISPATCH, fault::NUFFT_COIL] {
            set_serial_fallback(false);
            arm(FaultPlan::once_at(site));
            let err = run_batch(&plan, &coords, &data).expect_err(&format!(
                "{coils} coil(s): fault at {site} must surface in strict mode"
            ));
            assert!(
                matches!(err, Error::Execution(_)),
                "{coils} coil(s), site {site}: expected Error::Execution, got {err:?}"
            );
            assert_eq!(
                fires(),
                1,
                "{coils} coil(s): site {site} must actually fire"
            );
            // The pool is not poisoned: a clean run on the same global pool
            // reproduces the baseline bitwise.
            disarm();
            set_serial_fallback(true);
            let again = run_batch(&plan, &coords, &data).unwrap();
            for (a, b) in baseline.iter().zip(&again) {
                assert!(
                    bits_eq(a, b),
                    "{coils} coil(s), site {site}: post-failure run must match"
                );
            }
        }
    }
}

/// Contract 2: with the fallback enabled, a fault at each pool-level
/// site — in one job, or in every job of the dispatch — degrades to a
/// re-run of the failed jobs on the calling thread that is bitwise
/// identical to the unfaulted pooled run and counts once per call in
/// `engine.fallbacks`, not once per failed job.
#[test]
fn fallback_output_is_bitwise_identical_and_counted() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let fallbacks = || {
        telemetry::global()
            .snapshot()
            .counter("engine.fallbacks")
            .unwrap_or(0)
    };
    for ((plan, coords, data), jobs) in contract_batches() {
        let coils = data.len();
        let baseline = run_batch(&plan, &coords, &data).unwrap();
        for site in [fault::ENGINE_DISPATCH, fault::NUFFT_COIL] {
            for faulted in [1, jobs] {
                let what = format!("{coils} coil(s), site {site}, {faulted} faulted job(s)");
                let before = fallbacks();
                arm(FaultPlan {
                    max_fires: faulted,
                    ..FaultPlan::once_at(site)
                });
                let degraded = run_batch(&plan, &coords, &data)
                    .unwrap_or_else(|e| panic!("{what}: fallback must absorb the fault: {e}"));
                assert_eq!(fires(), faulted, "{what}: every armed fire must land");
                disarm();
                for (a, b) in baseline.iter().zip(&degraded) {
                    assert!(
                        bits_eq(a, b),
                        "{what}: serial fallback must be bitwise identical"
                    );
                }
                assert_eq!(fallbacks(), before + 1, "{what}: one fallback per call");
            }
        }
    }
}

/// Contracts 1 + 2 for the Toeplitz coil jobs: an `engine.dispatch` fault
/// in one coil's job of `apply_batch` surfaces as `Error::Execution` with
/// the fallback disabled, leaving the operator usable, and with the
/// fallback enabled degrades to a re-run of that coil's job on the
/// calling thread that is bitwise identical and counted once in
/// `engine.fallbacks`.
#[test]
fn toeplitz_coil_job_fault_strict_errors_then_fallback_matches() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let n = 16;
    let (plan, coords, _) = coil_problem(n, 1);
    let top =
        ToeplitzOperator::<2>::build(plan.config(), &coords, &[], &SliceDiceGridder::default())
            .unwrap();
    let coils: Vec<Vec<C64>> = (0..3)
        .map(|c| {
            (0..n * n)
                .map(|i| C64::new((i as f64 * 0.05 + c as f64).sin(), 0.1 * c as f64))
                .collect()
        })
        .collect();
    let refs: Vec<&[C64]> = coils.iter().map(Vec::as_slice).collect();
    let baseline = top.apply_batch(&refs).unwrap();
    let same = |got: &[Vec<C64>]| {
        got.len() == baseline.len() && baseline.iter().zip(got).all(|(a, b)| bits_eq(a, b))
    };

    set_serial_fallback(false);
    arm(FaultPlan::once_at(fault::ENGINE_DISPATCH));
    let err = top
        .apply_batch(&refs)
        .expect_err("a coil-job fault must surface in strict mode");
    assert_eq!(fires(), 1, "engine.dispatch must actually fire");
    assert!(
        matches!(err, Error::Execution(_)),
        "expected Error::Execution, got {err:?}"
    );
    disarm();
    assert!(
        same(&top.apply_batch(&refs).unwrap()),
        "the apply after a strict failure must match the unfaulted one"
    );

    set_serial_fallback(true);
    let fallbacks = || {
        telemetry::global()
            .snapshot()
            .counter("engine.fallbacks")
            .unwrap_or(0)
    };
    let before = fallbacks();
    arm(FaultPlan::once_at(fault::ENGINE_DISPATCH));
    let degraded = top
        .apply_batch(&refs)
        .expect("the fallback must absorb a coil-job fault");
    assert_eq!(fires(), 1, "engine.dispatch must actually fire");
    disarm();
    assert!(same(&degraded), "the re-run must be bitwise identical");
    assert_eq!(fallbacks(), before + 1, "engine.fallbacks must count once");
}

/// The pooled gridding engines the gridding contracts drive, by name.
/// Block-reduce splits the samples into four blocks on any host.
fn pooled_gridders() -> [(&'static str, Box<dyn Gridder<f64, 2>>); 4] {
    [
        ("column-parallel", Box::new(SliceDiceGridder::default())),
        (
            "block-reduce",
            Box::new(SliceDiceGridder {
                mode: SliceDiceMode::BlockReduce,
                threads: Some(4),
            }),
        ),
        ("binned", Box::new(BinnedGridder::default())),
        ("naive", Box::new(NaiveOutputGridder::default())),
    ]
}

/// Radial samples with distinct values, for the gridding contracts.
fn gridding_problem() -> (NufftPlan<f64, 2>, Vec<[f64; 2]>, Vec<C64>) {
    let (plan, coords, _) = coil_problem(16, 1);
    let values = (0..coords.len())
        .map(|i| C64::new(0.02 * i as f64, -0.5))
        .collect();
    (plan, coords, values)
}

/// Contract 2 for the pooled gridding engines: a fault in one gridding
/// chunk job degrades to a re-run of that job alone, so each engine's
/// image is bitwise identical to its own unfaulted pooled run, and the
/// call counts once in `engine.fallbacks`.
#[test]
fn gridding_chunk_fault_degrades_bitwise() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let (plan, coords, values) = gridding_problem();
    let fallbacks = || {
        telemetry::global()
            .snapshot()
            .counter("engine.fallbacks")
            .unwrap_or(0)
    };
    for (name, gridder) in pooled_gridders() {
        let baseline = plan.adjoint(&coords, &values, &*gridder).unwrap().image;
        let before = fallbacks();
        arm(FaultPlan::once_at(fault::GRIDDING_CHUNK));
        let faulted = plan
            .adjoint(&coords, &values, &*gridder)
            .unwrap_or_else(|e| panic!("{name}: fallback must absorb the fault: {e}"))
            .image;
        assert_eq!(fires(), 1, "{name}: gridding.chunk must actually fire");
        disarm();
        assert!(
            bits_eq(&baseline, &faulted),
            "{name}: gridding fallback must be bitwise identical"
        );
        assert_eq!(fallbacks(), before + 1, "{name}: one fallback per call");
    }
}

/// Contract 1 for the gridding engines: with the fallback disabled, a
/// fault in a gridding chunk job returns `Err(Error::Execution)` from
/// the adjoint — block-atomic included — and a clean rerun matches the
/// unfaulted one.
#[test]
fn gridding_chunk_fault_strict_surfaces_execution_error() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    let (plan, coords, values) = gridding_problem();
    let atomic = SliceDiceGridder {
        mode: SliceDiceMode::BlockAtomic,
        threads: Some(4),
    };
    let mut gridders = Vec::from(pooled_gridders());
    gridders.push(("block-atomic", Box::new(atomic)));
    for (name, gridder) in gridders {
        let baseline = plan.adjoint(&coords, &values, &*gridder).unwrap().image;
        set_serial_fallback(false);
        arm(FaultPlan::once_at(fault::GRIDDING_CHUNK));
        let err = plan
            .adjoint(&coords, &values, &*gridder)
            .expect_err(&format!("{name}: fault must surface in strict mode"));
        assert_eq!(fires(), 1, "{name}: gridding.chunk must actually fire");
        assert!(
            matches!(err, Error::Execution(_)),
            "{name}: expected Error::Execution, got {err:?}"
        );
        disarm();
        set_serial_fallback(true);
        let again = plan.adjoint(&coords, &values, &*gridder).unwrap().image;
        // Block-atomic accumulates in scheduling order, so only the
        // deterministic engines are held to their baseline's bits.
        if name != "block-atomic" {
            assert!(
                bits_eq(&baseline, &again),
                "{name}: post-failure run must match"
            );
        }
    }
}

/// Contract 3: the CG-iteration site poisons a residual (no panic); the
/// solver contains the NaN and reports a `NonFinite` diagnostic with a
/// finite best iterate.
#[test]
fn cg_iteration_fault_degrades_to_nonfinite_diagnostic() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    let (plan, coords, _) = coil_problem(16, 1);
    let data: Vec<C64> = coords
        .iter()
        .enumerate()
        .map(|(i, _)| C64::new(1.0 / (1.0 + i as f64), 0.25))
        .collect();
    let opts = CgOptions {
        max_iterations: 8,
        tolerance: 1e-12,
        ..Default::default()
    };
    let gridder = SliceDiceGridder::default();

    arm(FaultPlan::once_at(fault::RECON_CG_ITER));
    let out = cg_reconstruct(&plan, &coords, &data, &[], &gridder, &opts)
        .expect("poisoned residual must be contained, not returned as Err");
    assert_eq!(fires(), 1, "recon.cg_iter must actually fire");
    disarm();
    assert_eq!(out.diagnostic, CgDiagnostic::NonFinite);
    assert!(!out.diagnostic.is_clean());
    assert!(
        out.image
            .iter()
            .all(|z| z.re.is_finite() && z.im.is_finite()),
        "best iterate must be finite"
    );
}

/// Containment for the serving layer: a panic injected into a job body
/// (`serve.job`) or into the plan-cache path (`serve.cache`) comes back
/// as a structured Execution error frame; the engine and its cache
/// survive, and the next clean run over the *same* engine reproduces an
/// unfaulted run bitwise. `serve.cache` fires before any cache lock is
/// taken, so the injected panic can never poison the cache — asserted
/// by checking the cache still serves hits afterwards.
#[test]
fn serve_faults_are_contained_and_cache_is_not_poisoned() {
    use jigsaw::core::budget::RunBudget;
    use jigsaw::core::serve::{ErrorCategory, JobRequest, Priority, ServeEngine};

    let _lock = test_guard();
    let _policy = PolicyGuard;
    let (_, coords, data) = coil_problem(16, 1);
    let req = JobRequest {
        tag: 77,
        priority: Priority::Normal,
        n: 16,
        budget_ms: 0,
        coords: coords.clone(),
        values: data[0].clone(),
    };
    let budget = RunBudget::unlimited();

    for site in [fault::SERVE_JOB, fault::SERVE_CACHE] {
        let engine = ServeEngine::new(4);
        let baseline = {
            // Unfaulted reference from a separate engine so the faulted
            // engine's cache state is not pre-warmed.
            let fresh = ServeEngine::new(4);
            fresh.execute(&req, &budget).unwrap().image
        };
        arm(FaultPlan::once_at(site));
        let err = engine
            .execute(&req, &budget)
            .expect_err("injected panic must become an error frame");
        assert_eq!(fires(), 1, "site {site} must actually fire");
        assert_eq!(err.tag, 77, "site {site}: error frame keeps the job tag");
        assert_eq!(
            err.category,
            ErrorCategory::Execution,
            "site {site}: contained panic maps to Execution"
        );
        assert!(
            err.message.contains(site),
            "site {site}: got {}",
            err.message
        );
        disarm();

        // The engine survives: a clean run succeeds and matches the
        // unfaulted reference bitwise; a second run hits the cache,
        // proving the fault did not poison it.
        let clean = engine.execute(&req, &budget).unwrap();
        assert!(
            bits_eq(&baseline, &clean.image),
            "site {site}: post-fault run must match the unfaulted run"
        );
        let warm = engine.execute(&req, &budget).unwrap();
        assert!(warm.cache_hit, "site {site}: cache must still serve hits");
        assert!(bits_eq(&baseline, &warm.image));
    }
}

/// Contract 2 for the Toeplitz normal-operator build (`recon.normal_op`):
/// with the fallback enabled, a panic injected into the kernel build
/// degrades the whole reconstruction to the gridded normal operator —
/// bitwise identical to an explicit `NormalOpKind::Gridded` run — and is
/// counted in `recon.normal_op_fallbacks`.
#[test]
fn normal_op_build_fault_degrades_to_gridded_bitwise() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let (plan, coords, _) = coil_problem(16, 1);
    let data: Vec<C64> = coords
        .iter()
        .enumerate()
        .map(|(i, _)| C64::new(1.0 / (1.0 + i as f64), 0.25))
        .collect();
    let opts = CgOptions {
        max_iterations: 6,
        tolerance: 1e-12,
        ..Default::default()
    };
    let gridder = SliceDiceGridder::default();

    let baseline = cg_reconstruct_with(
        &plan,
        &coords,
        &data,
        &[],
        &gridder,
        &opts,
        NormalOpKind::Gridded,
    )
    .unwrap();

    let before = telemetry::global()
        .snapshot()
        .counter("recon.normal_op_fallbacks")
        .unwrap_or(0);
    arm(FaultPlan::once_at(fault::RECON_NORMAL_OP));
    let degraded = cg_reconstruct_with(
        &plan,
        &coords,
        &data,
        &[],
        &gridder,
        &opts,
        NormalOpKind::Toeplitz,
    )
    .expect("build fault must degrade to the gridded path, not error");
    assert_eq!(fires(), 1, "recon.normal_op must actually fire");
    disarm();
    assert!(
        bits_eq(&baseline.image, &degraded.image),
        "degraded Toeplitz recon must be bitwise identical to gridded"
    );
    let after = telemetry::global()
        .snapshot()
        .counter("recon.normal_op_fallbacks")
        .unwrap_or(0);
    assert!(
        after > before,
        "recon.normal_op_fallbacks must increment ({before} → {after})"
    );
}

/// Contract 1 for `recon.normal_op`: with the fallback disabled, the
/// injected build panic surfaces as `Err(Error::Execution)` — and the
/// same problem reconstructs cleanly immediately after.
#[test]
fn normal_op_build_fault_strict_surfaces_execution_error() {
    let _lock = test_guard();
    let _policy = PolicyGuard;
    let (plan, coords, _) = coil_problem(16, 1);
    let data: Vec<C64> = coords
        .iter()
        .enumerate()
        .map(|(i, _)| C64::new(1.0 / (1.0 + i as f64), 0.25))
        .collect();
    let opts = CgOptions {
        max_iterations: 4,
        tolerance: 1e-12,
        ..Default::default()
    };
    let gridder = SliceDiceGridder::default();

    set_serial_fallback(false);
    arm(FaultPlan::once_at(fault::RECON_NORMAL_OP));
    let err = cg_reconstruct_with(
        &plan,
        &coords,
        &data,
        &[],
        &gridder,
        &opts,
        NormalOpKind::Toeplitz,
    )
    .expect_err("strict mode must surface the build fault");
    assert_eq!(fires(), 1, "recon.normal_op must actually fire");
    assert!(
        matches!(err, Error::Execution(_)),
        "expected Error::Execution, got {err:?}"
    );
    disarm();
    set_serial_fallback(true);
    cg_reconstruct_with(
        &plan,
        &coords,
        &data,
        &[],
        &gridder,
        &opts,
        NormalOpKind::Toeplitz,
    )
    .expect("clean Toeplitz run must succeed after the fault");
}

/// Containment for the shed path (`serve.shed`): a panic injected while
/// the daemon builds an `Overloaded` refusal frame degrades to a plain
/// execution-error frame — the reader thread survives, and the same
/// daemon still serves the next (high-priority) job in the session.
#[test]
fn serve_shed_fault_degrades_to_error_frame_and_daemon_survives() {
    use jigsaw::core::serve::protocol::{encode, read_frame};
    use jigsaw::core::serve::{
        serve_stream, ErrorCategory, Frame, JobRequest, Priority, ServeOptions,
    };

    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let coords = jigsaw::core::traj::radial_2d(4, 16, true);
    let values: Vec<C64> = vec![C64::new(1.0, 0.0); coords.len()];
    let req = |tag: u64, priority: Priority| JobRequest {
        tag,
        priority,
        n: 8,
        budget_ms: 0,
        coords: coords.clone(),
        values: values.clone(),
    };

    // Depth bound 0: the normal submit is shed deterministically; with
    // the fault armed, the refusal-frame build panics inside the
    // daemon's catch_unwind.
    let shed_before = telemetry::global()
        .snapshot()
        .counter("serve.shed.depth")
        .unwrap_or(0);
    arm(FaultPlan::once_at(fault::SERVE_SHED));
    let mut input = Vec::new();
    input.extend_from_slice(&encode(&Frame::Submit(req(1, Priority::Normal))));
    input.extend_from_slice(&encode(&Frame::Submit(req(2, Priority::High))));
    input.extend_from_slice(&encode(&Frame::Shutdown));
    let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    serve_stream(
        std::io::Cursor::new(input),
        SharedOut(std::sync::Arc::clone(&out)),
        &ServeOptions {
            max_queue_depth: 0,
            executors: 1,
            ..Default::default()
        },
    )
    .expect("daemon must exit cleanly despite the shed-path panic");
    assert_eq!(fires(), 1, "serve.shed must actually fire");
    disarm();

    let bytes = out.lock().unwrap().clone();
    let mut r = std::io::Cursor::new(bytes);
    let mut replies = Vec::new();
    while let Ok(f) = read_frame(&mut r) {
        replies.push(f);
    }
    // The shed job's refusal degraded to a contained execution error
    // (not a panic, not silence) …
    assert!(
        replies.iter().any(|f| matches!(
            f,
            Frame::Error(e) if e.tag == 1
                && e.category == ErrorCategory::Execution
                && e.message.contains("contained")
        )),
        "expected contained shed-path error frame, got {replies:?}"
    );
    // … the shed was still counted before the fault fired …
    let shed_after = telemetry::global()
        .snapshot()
        .counter("serve.shed.depth")
        .unwrap_or(0);
    assert!(
        shed_after > shed_before,
        "serve.shed.depth must increment ({shed_before} → {shed_after})"
    );
    // … and the daemon survived to answer the high-priority job.
    assert!(
        replies
            .iter()
            .any(|f| matches!(f, Frame::Result(res) if res.tag == 2)),
        "daemon must keep serving after the contained panic: {replies:?}"
    );
}

/// Reader whose frames arrive in timed bursts, keeping a `serve_stream`
/// session alive long enough for the 25 ms watchdog tick to fire.
struct PacedReader {
    segments: std::collections::VecDeque<(std::time::Duration, Vec<u8>)>,
    current: std::io::Cursor<Vec<u8>>,
}

impl std::io::Read for PacedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let n = std::io::Read::read(&mut self.current, buf)?;
            if n > 0 {
                return Ok(n);
            }
            match self.segments.pop_front() {
                Some((delay, bytes)) => {
                    std::thread::sleep(delay);
                    self.current = std::io::Cursor::new(bytes);
                }
                None => return Ok(0),
            }
        }
    }
}

/// Containment for the watchdog (`serve.watchdog`): a panic injected
/// into a watchdog tick is caught, counted in `serve.watchdog.panics`,
/// and the daemon keeps serving — a job submitted *after* the poisoned
/// tick still gets its result.
#[test]
fn serve_watchdog_panic_is_counted_and_daemon_keeps_serving() {
    use jigsaw::core::serve::protocol::{encode, read_frame};
    use jigsaw::core::serve::{serve_stream, Frame, JobRequest, Priority, ServeOptions};

    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let coords = jigsaw::core::traj::radial_2d(4, 16, true);
    let values: Vec<C64> = vec![C64::new(1.0, 0.0); coords.len()];
    let req = JobRequest {
        tag: 8,
        priority: Priority::Normal,
        n: 8,
        budget_ms: 0,
        coords,
        values,
    };

    let panics_before = telemetry::global()
        .snapshot()
        .counter("serve.watchdog.panics")
        .unwrap_or(0);
    arm(FaultPlan::once_at(fault::SERVE_WATCHDOG));
    // Segment 1: ping immediately. Segment 2 arrives after 120 ms —
    // several watchdog ticks, so the armed fault fires mid-session —
    // then submits a job and shuts down.
    let mut late = Vec::new();
    late.extend_from_slice(&encode(&Frame::Submit(req)));
    late.extend_from_slice(&encode(&Frame::Shutdown));
    let reader = PacedReader {
        segments: std::collections::VecDeque::from([
            (std::time::Duration::ZERO, encode(&Frame::Ping)),
            (std::time::Duration::from_millis(120), late),
        ]),
        current: std::io::Cursor::new(Vec::new()),
    };
    let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    serve_stream(
        reader,
        SharedOut(std::sync::Arc::clone(&out)),
        &ServeOptions {
            executors: 1,
            ..Default::default()
        },
    )
    .expect("daemon must exit cleanly despite the watchdog panic");
    assert_eq!(fires(), 1, "serve.watchdog must actually fire");
    disarm();

    let panics_after = telemetry::global()
        .snapshot()
        .counter("serve.watchdog.panics")
        .unwrap_or(0);
    assert!(
        panics_after > panics_before,
        "serve.watchdog.panics must increment ({panics_before} → {panics_after})"
    );
    let bytes = out.lock().unwrap().clone();
    let mut r = std::io::Cursor::new(bytes);
    let mut replies = Vec::new();
    while let Ok(f) = read_frame(&mut r) {
        replies.push(f);
    }
    assert!(replies.contains(&Frame::Pong));
    assert!(
        replies
            .iter()
            .any(|f| matches!(f, Frame::Result(res) if res.tag == 8)),
        "job submitted after the poisoned tick must still complete: {replies:?}"
    );
}

/// Containment for snapshot restore (`serve.snapshot`): a panic
/// injected at the start of the plan-cache load degrades the daemon to
/// a cold start — it still boots, serves (cache miss), and exits
/// cleanly; the failure is counted in `serve.snapshot.panics`.
#[test]
fn serve_snapshot_fault_degrades_to_cold_start() {
    use jigsaw::core::serve::protocol::{encode, read_frame};
    use jigsaw::core::serve::{serve_stream, Frame, JobRequest, Priority, ServeOptions};

    let _lock = test_guard();
    let _policy = PolicyGuard;
    telemetry::set_enabled(true);
    let coords = jigsaw::core::traj::radial_2d(4, 16, true);
    let values: Vec<C64> = vec![C64::new(1.0, 0.0); coords.len()];
    let req = JobRequest {
        tag: 11,
        priority: Priority::Normal,
        n: 8,
        budget_ms: 0,
        coords,
        values,
    };

    // A perfectly valid snapshot on disk: the injected panic, not file
    // damage, is what must be contained.
    let path =
        std::env::temp_dir().join(format!("jigsaw-chaos-snapshot-{}.snap", std::process::id()));
    std::fs::write(&path, jigsaw::core::serve::encode_snapshot(&[])).unwrap();
    let panics_before = telemetry::global()
        .snapshot()
        .counter("serve.snapshot.panics")
        .unwrap_or(0);
    arm(FaultPlan::once_at(fault::SERVE_SNAPSHOT));
    let mut input = Vec::new();
    input.extend_from_slice(&encode(&Frame::Submit(req)));
    input.extend_from_slice(&encode(&Frame::Shutdown));
    let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    serve_stream(
        std::io::Cursor::new(input),
        SharedOut(std::sync::Arc::clone(&out)),
        &ServeOptions {
            executors: 1,
            snapshot_path: Some(path.clone()),
            ..Default::default()
        },
    )
    .expect("daemon must boot cold and exit cleanly despite the load panic");
    assert_eq!(fires(), 1, "serve.snapshot must actually fire");
    disarm();

    let panics_after = telemetry::global()
        .snapshot()
        .counter("serve.snapshot.panics")
        .unwrap_or(0);
    assert!(
        panics_after > panics_before,
        "serve.snapshot.panics must increment ({panics_before} → {panics_after})"
    );
    let bytes = out.lock().unwrap().clone();
    let mut r = std::io::Cursor::new(bytes);
    let mut replies = Vec::new();
    while let Ok(f) = read_frame(&mut r) {
        replies.push(f);
    }
    assert!(
        replies
            .iter()
            .any(|f| matches!(f, Frame::Result(res) if res.tag == 11 && !res.cache_hit)),
        "cold-started daemon must still serve the job: {replies:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Every registered site is covered by a test above; this meta-check
/// fails when a new fault point is added without chaos coverage.
#[test]
fn every_registered_site_is_covered() {
    let covered = [
        fault::ENGINE_DISPATCH,
        fault::NUFFT_COIL,
        fault::GRIDDING_CHUNK,
        fault::RECON_CG_ITER,
        fault::RECON_NORMAL_OP,
        fault::SERVE_JOB,
        fault::SERVE_CACHE,
        fault::SERVE_SHED,
        fault::SERVE_SNAPSHOT,
        fault::SERVE_WATCHDOG,
    ];
    for site in fault::SITES {
        assert!(
            covered.contains(site),
            "fault site `{site}` has no chaos-suite coverage"
        );
    }
}
