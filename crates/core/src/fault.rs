//! Fault-injection surface of the reconstruction engine.
//!
//! The machinery — the deterministic seeded schedule, the
//! telemetry-style kill switch, the `faultpoint!` macro — lives in
//! `jigsaw_testkit::fault`, below `jigsaw-core` in the dependency DAG;
//! this module re-exports it and owns the *registry*: the canonical list
//! of fault points compiled into the engine, which the chaos suite
//! iterates so no site can be added without failure-path coverage.
//!
//! Arm via [`arm`] in tests (serialize with [`test_guard`] — the switch
//! is process-global) or the `JIGSAW_FAULTS` environment variable for CLI
//! smoke runs, e.g.:
//!
//! ```text
//! JIGSAW_FAULTS=site=nufft.coil,seed=7,rate=1,fires=1 jigsaw recon …
//! ```
//!
//! Every site is a single relaxed atomic load + branch when disarmed
//! (≤ 2 % on the `pooled_engines` gridding problem; see
//! `BENCH_fault_overhead.json`).
//!
//! The pool-job sites sit inside the job bodies, so when
//! [`crate::engine::WorkerPool::map`] runs a failed job again on the
//! calling thread the re-run evaluates them again ([`ENGINE_DISPATCH`],
//! in the pool's own wrapper, is the exception). A [`FaultPlan`] fires
//! once unless it says otherwise, and a one-fire plan is spent by the
//! pooled run, so the re-run completes; a plan with fires left over
//! would fail the re-run too, which `map` reports as `Error::Execution`.

pub use jigsaw_testkit::fault::{
    arm, disarm, fires, should_fire, test_guard, FaultInjected, FaultPlan,
};

/// Inside every worker-pool job wrapper ([`crate::engine::WorkerPool`]),
/// before the job body runs. Fires on a worker thread; contained by the
/// pool's panic containment. Not evaluated when `map` re-runs a failed
/// job on the calling thread.
pub const ENGINE_DISPATCH: &str = "engine.dispatch";

/// Inside every pooled gridding chunk job (column chunks, bin tiles,
/// naive output chunks, block partials, atomic blocks).
pub const GRIDDING_CHUNK: &str = "gridding.chunk";

/// Inside every per-coil or row-band job of the planned adjoint
/// ([`crate::nufft::NufftPlan::adjoint_batch_planned`]). The forward
/// NuFFT's gather jobs do not evaluate it.
pub const NUFFT_COIL: &str = "nufft.coil";

/// At the top of every serving job body
/// ([`crate::serve::engine::ServeEngine::execute`]), inside the
/// per-job `catch_unwind`. A fire becomes a structured execution-error
/// frame for that client; the daemon, pool, and plan cache survive.
pub const SERVE_JOB: &str = "serve.job";

/// At the entry of every plan-cache fetch
/// ([`crate::serve::cache::PlanCache::get_or_build`]), *before* the
/// cache lock is taken, so an injected panic can never poison or
/// corrupt the cache.
pub const SERVE_CACHE: &str = "serve.cache";

/// Inside every Toeplitz normal-operator build
/// ([`crate::toeplitz::ToeplitzOperator::build`]), after validation and
/// before the PSF adjoint. A fire is contained by
/// [`crate::toeplitz::ToeplitzOperator::build_degradable`], which falls
/// back to the gridded normal operator (counted in
/// `recon.normal_op_fallbacks`, flight-recorded) when the serial
/// fallback policy is enabled.
pub const RECON_NORMAL_OP: &str = "recon.normal_op";

/// Inside the overload-refusal path of the serving daemon
/// ([`crate::serve::daemon`]): fired while building the `Overloaded`
/// frame for a shed job, inside a `catch_unwind`, so an injected panic
/// degrades to a plain execution-error frame for that client — the
/// reader thread, queue, and daemon survive.
pub const SERVE_SHED: &str = "serve.shed";

/// Inside every tick of the stuck-job watchdog thread
/// ([`crate::serve::daemon`]). Each tick body runs under
/// `catch_unwind`; an injected panic is counted
/// (`serve.watchdog.panics`) and the thread keeps ticking.
pub const SERVE_WATCHDOG: &str = "serve.watchdog";

/// At the entry of every plan-cache snapshot load
/// ([`crate::serve::cache::PlanCache::load_snapshot`]), before the
/// snapshot file is touched. The daemon runs the load under
/// `catch_unwind`: a fire degrades the warm start to a cold one
/// (counted `serve.snapshot.load_failures`, stderr-logged); the daemon
/// still comes up and serves.
pub const SERVE_SNAPSHOT: &str = "serve.snapshot";

/// At the top of every conjugate-gradient iteration
/// ([`crate::recon::cg_solve`] / [`crate::sense::cg_sense`]). This site
/// does not panic: it poisons the iteration's residual with a NaN,
/// exercising the solver's non-finite containment (best-iterate return
/// with a [`crate::recon::CgDiagnostic::NonFinite`] diagnostic).
pub const RECON_CG_ITER: &str = "recon.cg_iter";

/// Every registered fault point. `tests/chaos.rs` iterates this list;
/// keep it in sync with the `faultpoint!` / [`should_fire`] call sites
/// named above.
pub const SITES: &[&str] = &[
    ENGINE_DISPATCH,
    GRIDDING_CHUNK,
    NUFFT_COIL,
    RECON_CG_ITER,
    RECON_NORMAL_OP,
    SERVE_JOB,
    SERVE_CACHE,
    SERVE_SHED,
    SERVE_SNAPSHOT,
    SERVE_WATCHDOG,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_distinct_and_dotted() {
        for (i, a) in SITES.iter().enumerate() {
            assert!(a.contains('.'), "site `{a}` must be category.name");
            for b in &SITES[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn armed_plan_targets_only_named_site() {
        // Other tests in this binary evaluate the registered sites on
        // the shared pool without holding `test_guard`, so arm a site
        // that no code evaluates.
        const UNREACHED: &str = "test.unreached";
        let _lock = test_guard();
        arm(FaultPlan::once_at(UNREACHED));
        for site in SITES {
            assert!(!should_fire(site));
        }
        assert!(should_fire(UNREACHED));
        disarm();
    }
}
