//! Job execution for the serving daemon: plan-cache seam, budget
//! admission, and per-job panic containment.
//!
//! [`ServeEngine::execute`] is the single choke point every submitted
//! job flows through. It wraps the whole job body in `catch_unwind`, so
//! a panicking job — including one injected at the `serve.job` or
//! `serve.cache` fault points — becomes a structured
//! [`ErrorFrame`] for that client while the engine, the plan cache, and
//! the shared [`WorkerPool`](crate::engine::WorkerPool) all survive for
//! the next job. Neither fault point fires while a lock is held, so an
//! injected panic can never poison the cache.

use super::cache::{CachedPlan, PlanCache};
use super::protocol::{ErrorCategory, ErrorFrame, JobRequest, JobResult, Priority, MAX_N};
use super::stats::{CacheStats, StatsSnapshot, WindowStats, WorkerStats, STATS_VERSION};
use crate::budget::RunBudget;
use crate::config::NufftConfig;
use crate::{Error, Result};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::faultpoint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{FlightKind, WindowedHistogram};

/// The daemon's job executor: a plan cache plus the execution policy
/// (validation, budget admission, panic containment). Shared by
/// reference across executor threads.
#[derive(Debug)]
pub struct ServeEngine {
    cache: PlanCache,
    start: Instant,
    latency_window: WindowedHistogram,
    wait_window_normal: WindowedHistogram,
    wait_window_high: WindowedHistogram,
}

impl ServeEngine {
    /// An engine whose plan cache holds at most `cache_capacity` plans.
    pub fn new(cache_capacity: usize) -> Self {
        Self {
            cache: PlanCache::new(cache_capacity),
            start: Instant::now(),
            latency_window: WindowedHistogram::last_60s(),
            wait_window_normal: WindowedHistogram::last_60s(),
            wait_window_high: WindowedHistogram::last_60s(),
        }
    }

    /// The underlying plan cache (counters, capacity, resident keys).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Run one job to completion. Every failure — validation,
    /// budget exhaustion, contained panic — comes back as a tagged
    /// [`ErrorFrame`]; the engine itself never dies.
    ///
    /// Records `serve.jobs`, `serve.job_errors`, and the
    /// `serve.job_latency_ns` histogram. Equivalent to
    /// [`execute_traced`](Self::execute_traced) with the request's tag
    /// as its trace id.
    pub fn execute(
        &self,
        req: &JobRequest,
        budget: &RunBudget,
    ) -> core::result::Result<JobResult, ErrorFrame> {
        self.execute_traced(req, budget, req.tag)
    }

    /// [`execute`](Self::execute) with an explicit request id threaded
    /// through every span opened below this call (the `req` span arg),
    /// so a Chrome trace of the daemon can be filtered to one request
    /// end-to-end. Also feeds the flight recorder: `JobStarted` on
    /// entry, `JobFinished`/`JobFailed` on exit, `FaultFired` when a
    /// contained panic carries an injected-fault payload. A contained
    /// panic additionally dumps the flight-recorder tail to stderr,
    /// naming the request id.
    pub fn execute_traced(
        &self,
        req: &JobRequest,
        budget: &RunBudget,
        request_id: u64,
    ) -> core::result::Result<JobResult, ErrorFrame> {
        let _trace = telemetry::RequestScope::enter(request_id);
        let t0 = Instant::now();
        telemetry::record_counter("serve.jobs", 1);
        telemetry::flight::record(
            FlightKind::JobStarted,
            request_id,
            req.tag,
            &format!("n={} m={}", req.n, req.coords.len()),
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute_inner(req, budget)));
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let result = match outcome {
            Ok(Ok(res)) => {
                telemetry::flight::record(
                    FlightKind::JobFinished,
                    request_id,
                    req.tag,
                    &format!("cache_hit={} latency_ns={latency_ns}", res.cache_hit),
                );
                Ok(res)
            }
            Ok(Err(e)) => {
                telemetry::flight::record(
                    FlightKind::JobFailed,
                    request_id,
                    req.tag,
                    &e.to_string(),
                );
                Err(ErrorFrame {
                    tag: req.tag,
                    category: ErrorCategory::from_error(&e),
                    message: e.to_string(),
                })
            }
            Err(payload) => {
                if let Some(f) = payload.downcast_ref::<jigsaw_testkit::fault::FaultInjected>() {
                    telemetry::flight::record(FlightKind::FaultFired, request_id, req.tag, f.site);
                }
                let msg = crate::engine::panic_message(&*payload);
                telemetry::flight::record(
                    FlightKind::JobFailed,
                    request_id,
                    req.tag,
                    &format!("panic: {msg}"),
                );
                eprintln!(
                    "[jigsaw-serve] contained panic in job request_id={request_id} tag={}: {msg}",
                    req.tag
                );
                eprintln!("{}", telemetry::flight::dump_tail(32));
                Err(ErrorFrame {
                    tag: req.tag,
                    category: ErrorCategory::Execution,
                    message: format!("job panicked (contained): {msg}"),
                })
            }
        };
        if result.is_err() {
            telemetry::record_counter("serve.job_errors", 1);
        }
        telemetry::record_histogram("serve.job_latency_ns", latency_ns);
        if telemetry::enabled() {
            self.latency_window.record(latency_ns);
        }
        result
    }

    /// Record a job's queue wait: the `serve.queue_wait_ns` registry
    /// histogram plus the per-priority 60-second window.
    pub fn note_queue_wait(&self, priority: Priority, wait_ns: u64) {
        telemetry::record_histogram("serve.queue_wait_ns", wait_ns);
        if telemetry::enabled() {
            match priority {
                Priority::High => self.wait_window_high.record(wait_ns),
                Priority::Normal => self.wait_window_normal.record(wait_ns),
            }
        }
    }

    /// Assemble a [`StatsSnapshot`] without blocking job execution:
    /// registry snapshot (per-series locks), plan-cache atomics,
    /// always-on worker-pool counters, rolling windows, and the
    /// flight-recorder tail. Queue depths are the caller's — the daemon
    /// reads them under its own brief queue lock — so this method never
    /// touches the queue or the plan build path.
    pub fn stats_snapshot(&self, queue_depth: u32, queue_high: u32) -> StatsSnapshot {
        telemetry::sync_dropped_events();
        let reg = telemetry::global().snapshot();
        let pool = crate::engine::WorkerPool::global();
        let workers = pool
            .worker_busy_ns()
            .into_iter()
            .zip(pool.worker_job_counts())
            .map(|(busy_ns, jobs)| WorkerStats { busy_ns, jobs })
            .collect();
        let now = telemetry::now_ns();
        let windows = vec![
            WindowStats {
                name: "serve.job_latency_ns.60s".into(),
                window_ns: self.latency_window.window_ns(),
                hist: self.latency_window.snapshot_at(now),
            },
            WindowStats {
                name: "serve.queue_wait_ns.high.60s".into(),
                window_ns: self.wait_window_high.window_ns(),
                hist: self.wait_window_high.snapshot_at(now),
            },
            WindowStats {
                name: "serve.queue_wait_ns.normal.60s".into(),
                window_ns: self.wait_window_normal.window_ns(),
                hist: self.wait_window_normal.snapshot_at(now),
            },
        ];
        StatsSnapshot {
            stats_version: STATS_VERSION,
            uptime_ns: self.start.elapsed().as_nanos() as u64,
            queue_depth,
            queue_high,
            cache: CacheStats {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
                evictions: self.cache.evictions(),
                len: self.cache.len() as u32,
                capacity: self.cache.capacity() as u32,
            },
            workers,
            windows,
            counters: reg.counters,
            gauges: reg.gauges,
            histograms: reg.histograms,
            flight: telemetry::flight::global().tail(64),
        }
    }

    fn execute_inner(&self, req: &JobRequest, budget: &RunBudget) -> Result<JobResult> {
        let _span = telemetry::span!("serve.job", {
            tag: req.tag as usize,
            n: req.n as usize,
            m: req.coords.len()
        });
        faultpoint!(crate::fault::SERVE_JOB);
        if budget.exhausted() {
            return Err(Error::Budget(format!(
                "job {} budget exhausted before execution",
                req.tag
            )));
        }
        if req.n == 0 || req.n > MAX_N {
            return Err(Error::Config(format!(
                "image size n = {} outside serving range [1, {MAX_N}]",
                req.n
            )));
        }
        if req.coords.is_empty() {
            return Err(Error::Data("job carries no samples".into()));
        }
        if req.coords.len() != req.values.len() {
            return Err(Error::Data(format!(
                "coordinate count {} != value count {}",
                req.coords.len(),
                req.values.len()
            )));
        }
        // Non-finite sample values are rejected here, symmetric with
        // the coordinate check inside planning: a NaN that reached the
        // gridder would silently poison the whole image — and, now that
        // cache entries can be *persisted*, could outlive the process.
        if let Some(i) = req
            .values
            .iter()
            .position(|v| !v.re.is_finite() || !v.im.is_finite())
        {
            return Err(Error::Data(format!("non-finite sample value at index {i}")));
        }
        let cfg = NufftConfig::with_n(req.n as usize);
        let (cached, cache_hit) = self.cache.get_or_build(&cfg, &req.coords)?;
        if budget.exhausted() {
            // Admission control: planning consumed the deadline and no
            // usable result exists — refuse rather than start gridding.
            return Err(Error::Budget(format!(
                "job {} budget exhausted after planning",
                req.tag
            )));
        }
        let image = {
            // Arm the cooperative checkpoints in the gridding / FFT /
            // per-coil hot loops for the duration of the numeric body:
            // if the watchdog cancels this budget, the loops bail at
            // the next chunk boundary and the partial result is
            // discarded here.
            let _scope = budget.enter_scope();
            Self::reconstruct(&cached, req)?
        };
        if budget.is_cancelled() || budget.exhausted() {
            // The deadline passed (or the watchdog fired) after the
            // last checkpoint but before we could reply: a late result
            // is as useless to the client as no result. Discard it so
            // accepted jobs never complete past their deadline by more
            // than one chunk epsilon.
            return Err(Error::Budget(format!(
                "job {} deadline passed during reconstruction; partial result discarded",
                req.tag
            )));
        }
        Ok(JobResult {
            tag: req.tag,
            cache_hit,
            n: req.n,
            image,
        })
    }

    /// The back-off hint carried by an `Overloaded` refusal: estimated
    /// queue drain time — the last-60s median job latency times the
    /// number of queued jobs per executor — clamped to `[25, 30000]` ms.
    /// A cold daemon (empty latency window) suggests a flat 100 ms.
    pub fn estimated_retry_after_ms(&self, queue_depth: u32, executors: usize) -> u32 {
        let hist = self.latency_window.snapshot_at(telemetry::now_ns());
        if hist.count == 0 {
            return 100;
        }
        let p50_ns = hist.quantile_estimate(0.5);
        let waves = (queue_depth as u64)
            .div_ceil(executors.max(1) as u64)
            .max(1);
        let est_ms = (p50_ns * waves as f64 / 1e6).ceil() as u64;
        est_ms.clamp(25, 30_000) as u32
    }

    /// The numeric body: the planned one-coil adjoint on the shared
    /// worker pool. Bitwise identical to a cold one-shot serial
    /// [`crate::NufftPlan::adjoint`] by the planned-path invariant, so a
    /// cache hit and a cache miss produce identical bytes.
    fn reconstruct(cached: &Arc<CachedPlan>, req: &JobRequest) -> Result<Vec<jigsaw_num::C64>> {
        Ok(cached
            .plan
            .adjoint_planned(&cached.traj, &req.values)?
            .image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::SerialGridder;
    use crate::traj;
    use crate::NufftPlan;
    use jigsaw_num::C64;

    fn radial_request(tag: u64, n: u32, seed: u64) -> JobRequest {
        let mut coords = traj::radial_2d(8, 2 * n as usize, true);
        traj::shuffle(&mut coords, seed);
        let values: Vec<C64> = coords
            .iter()
            .enumerate()
            .map(|(i, c)| C64::new(c[0].cos() + i as f64 * 1e-3, c[1].sin()))
            .collect();
        JobRequest {
            tag,
            priority: super::super::protocol::Priority::Normal,
            n,
            budget_ms: 0,
            coords,
            values,
        }
    }

    #[test]
    fn result_matches_cold_serial_run_bitwise() {
        let engine = ServeEngine::new(4);
        let req = radial_request(1, 16, 7);
        let res = engine
            .execute(&req, &RunBudget::unlimited())
            .expect("job succeeds");
        assert!(!res.cache_hit);
        let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(16)).unwrap();
        let cold = plan
            .adjoint(&req.coords, &req.values, &SerialGridder)
            .unwrap();
        assert_eq!(res.image.len(), cold.image.len());
        for (a, b) in res.image.iter().zip(&cold.image) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // Second run: cache hit, still bitwise identical.
        let res2 = engine.execute(&req, &RunBudget::unlimited()).unwrap();
        assert!(res2.cache_hit);
        assert_eq!(res.image, res2.image);
    }

    #[test]
    fn validation_failures_are_tagged_error_frames() {
        let engine = ServeEngine::new(2);
        let budget = RunBudget::unlimited();
        let mut bad_n = radial_request(9, 16, 1);
        bad_n.n = 0;
        let e = engine.execute(&bad_n, &budget).unwrap_err();
        assert_eq!(e.tag, 9);
        assert_eq!(e.category, ErrorCategory::Config);

        let mut mismatch = radial_request(10, 16, 1);
        mismatch.values.pop();
        let e = engine.execute(&mismatch, &budget).unwrap_err();
        assert_eq!(e.tag, 10);
        assert_eq!(e.category, ErrorCategory::Data);

        let mut nan = radial_request(11, 16, 1);
        nan.coords[0][0] = f64::NAN;
        let e = engine.execute(&nan, &budget).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Data);
    }

    #[test]
    fn exhausted_budget_is_refused_before_work() {
        let engine = ServeEngine::new(2);
        let req = radial_request(5, 16, 2);
        let e = engine
            .execute(&req, &RunBudget::with_time_ms(0))
            .unwrap_err();
        assert_eq!(e.tag, 5);
        assert_eq!(e.category, ErrorCategory::Budget);
        // The refused job must not have touched the cache.
        assert_eq!(engine.cache().len(), 0);
    }

    #[test]
    fn watchdog_style_cancellation_stops_a_job_mid_run() {
        let engine = ServeEngine::new(2);
        let req = radial_request(41, 256, 5);
        let budget = RunBudget::unlimited();
        // Hold every pool worker, so no part of the job's scatter (one
        // coil job here, or one row band per worker for a scatter of
        // 2^19 kernel accumulations or more) can finish before the
        // cancel lands. The cancel fires once
        // planning has filled the cache, and only then are the workers
        // released together: the job stops at the post-planning check or
        // at the first gridding checkpoint — mid-run by construction.
        let workers = crate::engine::WorkerPool::global().size();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let gate = Arc::clone(&release);
        let holder = std::thread::spawn(move || {
            // Job `j` runs on worker `j % size`: one blocker per worker.
            crate::engine::WorkerPool::global()
                .map("test.hold", workers, move |_, _| {
                    let _ = held_tx.send(());
                    let (open, cv) = &*gate;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                })
                .unwrap();
        });
        for _ in 0..workers {
            held_rx.recv().unwrap();
        }
        let flag = budget.cancel_flag();
        let e = std::thread::scope(|s| {
            s.spawn(|| {
                while engine.cache().is_empty() {
                    std::thread::yield_now();
                }
                flag.cancel();
                *release.0.lock().unwrap() = true;
                release.1.notify_all();
            });
            engine.execute(&req, &budget).unwrap_err()
        });
        holder.join().unwrap();
        assert_eq!(e.tag, 41);
        assert_eq!(e.category, ErrorCategory::Budget);
        // Same engine afterwards: a fresh budget runs the job cleanly —
        // cancellation left no poisoned state behind.
        let small = radial_request(42, 16, 6);
        let res = engine.execute(&small, &RunBudget::unlimited()).unwrap();
        assert_eq!(res.tag, 42);
    }

    #[test]
    fn retry_hint_is_clamped_and_defaults_when_cold() {
        let engine = ServeEngine::new(2);
        // Cold engine: empty latency window → flat default.
        assert_eq!(engine.estimated_retry_after_ms(10, 2), 100);
        // Warm the window with a real job, then check the clamp bounds.
        telemetry::set_enabled(true);
        let req = radial_request(51, 16, 7);
        engine.execute(&req, &RunBudget::unlimited()).unwrap();
        let hint = engine.estimated_retry_after_ms(1, 2);
        assert!((25..=30_000).contains(&hint), "hint {hint} out of clamp");
        // A pathological queue depth still clamps at the ceiling.
        assert_eq!(engine.estimated_retry_after_ms(u32::MAX, 1), 30_000);
    }
}
