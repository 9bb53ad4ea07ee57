//! Persistent worker-pool execution engine.
//!
//! The paper's Slice-and-Dice design gives each hardware pipeline a fixed
//! *column* — the same relative position in every tile — and streams every
//! sample past all pipelines. The original software realization of that
//! model (`std::thread::scope` in each gridder) paid two per-invocation
//! costs the hardware never sees:
//!
//! 1. **Thread churn** — a spawn/join cycle per gridding call (tens of
//!    microseconds per worker), paid again for every coil of a multi-coil
//!    MRI reconstruction.
//! 2. **Allocation churn** — every worker's private accumulator columns
//!    (the "dice"), bin tiles, and partial grids were freshly allocated
//!    and faulted in on each call.
//!
//! This module provides the persistent alternative, in the spirit of
//! cuFINUFFT/FINUFFT *plans* that reuse execution resources across many
//! transforms:
//!
//! * [`WorkerPool`] — long-lived workers parked on channels. Job `j` of a
//!   dispatch always runs on worker `j % size`, so the mapping from dice
//!   columns to workers is stable across calls (the software analogue of
//!   a pipeline's fixed column assignment).
//! * [`ScratchArena`] — one arena per worker slot holding type-erased,
//!   reusable buffers. A worker's accumulator column slab is allocated on
//!   first use and then cycles: worker fills it, the caller merges it into
//!   the output grid and *returns it to the same worker's arena*.
//!
//! [`WorkerPool::map`] is the one way the workspace runs parallel work:
//! the gridders, the batched NuFFT coils (and so every served request),
//! the row bands a large one-coil adjoint splits into, the forward
//! NuFFT's gather, the SENSE adjoint and the Toeplitz coil convolutions
//! all dispatch through it, and the uniform FFT runs serially, inside a
//! coil's job or on the dispatching thread. `map` returns the jobs'
//! values in job order and owns the serial-fallback policy: a job that
//! panicked is run again by itself on the calling thread, or the call
//! fails with `Error::Execution`. The block-atomic gridder, whose jobs
//! add into one shared grid, is the only caller of the lower-level
//! `try_run`.
//!
//! Everything here is safe Rust: jobs are `'static` closures capturing
//! `Arc`-shared immutable inputs, each job's value lands in its own slot,
//! and a latch (mutex + condvar) provides the join point. Determinism is
//! preserved because job partitioning depends only on the *requested*
//! thread count, never on pool size or scheduling order, and the caller
//! merges results in job order.

use jigsaw_telemetry as telemetry;
use jigsaw_testkit::{cancel, faultpoint};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Serial-fallback policy (graceful degradation kill switch)
// ---------------------------------------------------------------------------

/// 0 = uninitialized, 1 = fallback on, 2 = fallback off.
static FALLBACK_STATE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Whether a contained pooled-job failure makes [`WorkerPool::map`] run
/// the failed jobs again on the calling thread (bitwise-identical output,
/// counted in the `engine.fallbacks` telemetry metric) instead of
/// surfacing `Error::Execution`. Defaults to on; disable with
/// `JIGSAW_FALLBACK=0` or [`set_serial_fallback`]. Same kill-switch
/// pattern as the telemetry crate: one relaxed load + branch.
#[inline]
pub fn serial_fallback_enabled() -> bool {
    match FALLBACK_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_fallback_from_env(),
    }
}

#[cold]
fn init_fallback_from_env() -> bool {
    let on = telemetry::env_enables(std::env::var("JIGSAW_FALLBACK").ok().as_deref());
    let want = if on { 1 } else { 2 };
    let _ = FALLBACK_STATE.compare_exchange(0, want, Ordering::Relaxed, Ordering::Relaxed);
    FALLBACK_STATE.load(Ordering::Relaxed) == 1
}

/// Force the serial-fallback policy on or off, overriding the
/// environment.
pub fn set_serial_fallback(on: bool) {
    FALLBACK_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Record one serial-fallback decision: bumps the `engine.fallbacks`
/// counter and logs a `FallbackTaken` flight-recorder event carrying the
/// current request id, so a degraded request is attributable after the
/// fact. `detail` names the path that fell back (e.g. a gridder or the
/// batched adjoint).
pub(crate) fn note_serial_fallback(detail: &str) {
    telemetry::record_counter("engine.fallbacks", 1);
    telemetry::flight::record(
        telemetry::FlightKind::FallbackTaken,
        telemetry::current_request_id(),
        0,
        detail,
    );
}

/// A contained worker-pool job failure: the job panicked, the panic was
/// caught on the worker (which survives, with its poisoned arena buffers
/// discarded), and the payload was captured here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobFailure {
    /// Index of the failed job within the dispatch.
    pub job: usize,
    /// Worker slot the job ran on.
    pub worker: usize,
    /// The captured panic payload, rendered as a string.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} panicked on worker {}: {}",
            self.job, self.worker, self.message
        )
    }
}

/// Render a caught panic payload as a string: `&str` and `String`
/// payloads verbatim, [`jigsaw_testkit::fault::FaultInjected`] by site
/// name, anything else opaquely.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<jigsaw_testkit::fault::FaultInjected>() {
        f.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A boxed job: runs on one worker with access to that worker's arena.
type Job = Box<dyn FnOnce(&mut ScratchArena) + Send>;

/// Per-worker-slot arena of reusable, type-erased buffers.
///
/// Buffers are keyed by `(key, element type)`; each slot holds a small
/// stack so two jobs multiplexed onto the same worker can both find a
/// buffer. The arena is owned by the pool (not the worker thread) so the
/// *caller* can return merged-out slabs to the worker that produced them.
#[derive(Default)]
pub struct ScratchArena {
    /// Buffer stacks keyed by `(key, element type)`.
    slots: HashMap<(u64, std::any::TypeId), Vec<Box<dyn Any + Send>>>,
    bytes: usize,
}

impl ScratchArena {
    /// Take a `Vec<T>` of exactly `len` elements, all equal to `fill`.
    /// Reuses a previously [`Self::give_vec`]-returned buffer when one is
    /// available (clearing it), else allocates.
    pub fn take_vec<T: Clone + Send + 'static>(&mut self, key: u64, len: usize, fill: T) -> Vec<T> {
        let slot = (key, std::any::TypeId::of::<Vec<T>>());
        if let Some(stack) = self.slots.get_mut(&slot) {
            if let Some(boxed) = stack.pop() {
                if let Ok(mut v) = boxed.downcast::<Vec<T>>() {
                    let bytes = v.capacity() * std::mem::size_of::<T>();
                    self.bytes = self.bytes.saturating_sub(bytes);
                    v.clear();
                    v.resize(len, fill);
                    return *v;
                }
            }
        }
        vec![fill; len]
    }

    /// Return a buffer for future reuse under `key`.
    pub fn give_vec<T: Send + 'static>(&mut self, key: u64, v: Vec<T>) {
        let slot = (key, std::any::TypeId::of::<Vec<T>>());
        self.bytes += v.capacity() * std::mem::size_of::<T>();
        self.slots.entry(slot).or_default().push(Box::new(v));
    }

    /// Approximate resident bytes currently parked in this arena.
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Drop every cached buffer.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.bytes = 0;
    }
}

/// Completion latch for one dispatch.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchState {
    remaining: usize,
    /// First contained job failure of the dispatch (first to count down
    /// wins; later failures are dropped — one diagnostic is enough).
    failure: Option<JobFailure>,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(LatchState {
                remaining: count,
                failure: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn count_down(&self, failure: Option<JobFailure>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.remaining -= 1;
        if st.failure.is_none() {
            st.failure = failure;
        }
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Option<JobFailure> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.remaining > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.failure.take()
    }
}

struct WorkerHandle {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of worker threads with per-worker scratch arenas.
///
/// See the [module docs](self) for the design. The pool is cheap to share
/// (`Arc` internally via [`WorkerPool::global`]) and safe to use from
/// multiple dispatching threads concurrently: jobs from concurrent
/// dispatches interleave per worker but each dispatch observes only its
/// own latch and channels.
pub struct WorkerPool {
    workers: Vec<WorkerHandle>,
    arenas: Arc<Vec<Mutex<ScratchArena>>>,
    dispatches: AtomicU64,
    /// Per-worker cumulative busy time (nanoseconds spent inside jobs,
    /// including arena lock acquisition). Always on — two relaxed atomic
    /// adds per *job*, not per sample — so imbalance is observable even
    /// with telemetry disabled.
    busy_ns: Arc<Vec<AtomicU64>>,
    /// Per-worker job counts (same lifetime as `busy_ns`).
    job_counts: Arc<Vec<AtomicU64>>,
    /// Cached telemetry histogram handles (wired to the global registry;
    /// recording is gated on `telemetry::enabled()`).
    wait_hist: Arc<telemetry::Histogram>,
    run_hist: Arc<telemetry::Histogram>,
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let arenas: Arc<Vec<Mutex<ScratchArena>>> = Arc::new(
            (0..threads)
                .map(|_| Mutex::new(ScratchArena::default()))
                .collect(),
        );
        let busy_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let job_counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let workers = (0..threads)
            .map(|wid| {
                let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
                let arenas = Arc::clone(&arenas);
                let handle = std::thread::Builder::new()
                    .name(format!("jigsaw-worker-{wid}"))
                    .spawn(move || {
                        // Register this worker's trace lane up front so the
                        // chrome-trace export shows named per-worker lanes.
                        telemetry::set_thread_lane(&format!("jigsaw-worker-{wid}"));
                        while let Ok(job) = rx.recv() {
                            let mut arena = arenas[wid].lock().unwrap_or_else(|e| e.into_inner());
                            job(&mut arena);
                        }
                    })
                    .unwrap_or_else(|e| panic!("failed to spawn pool worker: {e}"));
                WorkerHandle {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        Self {
            workers,
            arenas,
            dispatches: AtomicU64::new(0),
            busy_ns,
            job_counts,
            wait_hist: telemetry::global().histogram("engine.job_wait_ns"),
            run_hist: telemetry::global().histogram("engine.job_run_ns"),
        }
    }

    /// The process-wide shared pool, sized by available parallelism on
    /// first use. All gridders and batched NuFFT paths default to it.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(n)
        })
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Number of dispatches served since creation (instrumentation).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Cumulative nanoseconds each worker has spent running jobs since
    /// pool creation, indexed by worker slot. The spread between the
    /// busiest and idlest worker is the pool's load imbalance — always
    /// collected, independent of the telemetry kill switch.
    pub fn worker_busy_ns(&self) -> Vec<u64> {
        self.busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of jobs each worker has completed since pool creation.
    pub fn worker_job_counts(&self) -> Vec<u64> {
        self.job_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Worker slot that job `j` of an `njobs`-way dispatch runs on.
    #[inline]
    pub fn worker_for(&self, job: usize) -> usize {
        job % self.workers.len()
    }

    /// Run `f(j, arena)` for every job `j < njobs` across the pool and
    /// return the values in job order. Job `j` runs on worker `j % size`
    /// with that worker's arena; jobs beyond the pool size queue behind
    /// earlier jobs on the same worker.
    ///
    /// A job that panics is contained (see `try_run`) and the
    /// serial-fallback policy decides what happens next. With the
    /// fallback off ([`serial_fallback_enabled`]) the call returns
    /// [`crate::Error::Execution`]. With it on, one `engine.fallbacks` is
    /// counted and flight-recorded under `label`, and only the jobs that
    /// returned nothing run again, one after another on the calling
    /// thread, each with a fresh [`ScratchArena`] inside `catch_unwind`.
    /// A job that fails again is `Error::Execution`, never a panic in the
    /// caller.
    ///
    /// The re-run is bitwise identical to the pooled run as long as each
    /// job reads shared inputs and writes only buffers it owns, which
    /// every caller's jobs do: Slice-and-Dice column owners never
    /// interact. A job must not dispatch into its own pool: it may be
    /// queued behind the very job that waits for it.
    pub fn map<R, F>(&self, label: &str, njobs: usize, f: F) -> crate::Result<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(usize, &mut ScratchArena) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let slots: Arc<Vec<Mutex<Option<R>>>> =
            Arc::new((0..njobs).map(|_| Mutex::new(None)).collect());
        let (job, job_slots) = (Arc::clone(&f), Arc::clone(&slots));
        let run = self.try_run(njobs, move |j, arena| {
            let value = job(j, arena);
            *job_slots[j].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
        });
        let mut values: Vec<Option<R>> = slots
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).take())
            .collect();
        if let Err(failure) = run {
            if !serial_fallback_enabled() {
                return Err(crate::Error::Execution(format!("{label}: {failure}")));
            }
            note_serial_fallback(label);
            for (j, slot) in values.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let rerun = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    f(j, &mut ScratchArena::default())
                }));
                *slot = Some(rerun.map_err(|payload| {
                    crate::Error::Execution(format!(
                        "{label}: job {j} failed again on the calling thread: {}",
                        panic_message(&*payload)
                    ))
                })?);
            }
        }
        Ok(values.into_iter().flatten().collect())
    }

    /// Run `njobs` invocations of `f(job_index, arena)` across the pool
    /// and block until all complete. A panicking job is *contained*: the
    /// panic is caught on the worker, the worker survives and its
    /// (potentially half-written) arena buffers are discarded rather than
    /// recycled, and after every job of the dispatch has finished the
    /// first failure is returned as a [`JobFailure`]. The pool stays fully
    /// usable.
    ///
    /// [`Self::map`] wraps this with result collection and the fallback
    /// policy; only jobs that cannot be re-run one by one (the
    /// block-atomic gridder's, which add into one shared grid) call it
    /// directly.
    pub(crate) fn try_run<F>(&self, njobs: usize, f: F) -> Result<(), JobFailure>
    where
        F: Fn(usize, &mut ScratchArena) + Send + Sync + 'static,
    {
        if njobs == 0 {
            return Ok(());
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        let _dispatch_span = telemetry::span!("engine.dispatch", {
            njobs: njobs,
            workers: self.workers.len(),
        });
        telemetry::record_counter("engine.dispatches", 1);
        telemetry::record_counter("engine.jobs", njobs as u64);
        let latch = Latch::new(njobs);
        let f = Arc::new(f);
        let nworkers = self.workers.len();
        // Captured on the dispatching thread so spans opened on worker
        // threads inherit the dispatcher's request id, and so cancellation
        // checkpoints inside the jobs poll the dispatcher's budget flag.
        let request_id = telemetry::current_request_id();
        let cancel_flag = cancel::current();
        for j in 0..njobs {
            let job_latch = Arc::clone(&latch);
            let f = Arc::clone(&f);
            let wait_hist = Arc::clone(&self.wait_hist);
            let run_hist = Arc::clone(&self.run_hist);
            let busy_ns = Arc::clone(&self.busy_ns);
            let job_counts = Arc::clone(&self.job_counts);
            let enqueued_ns = telemetry::now_ns();
            let cancel_flag = cancel_flag.clone();
            let job: Job = Box::new(move |arena| {
                let _trace = telemetry::RequestScope::enter(request_id);
                let _cancel = cancel::CancelScope::enter(cancel_flag.clone());
                let collect = telemetry::enabled();
                let t0 = Instant::now();
                let started_ns = telemetry::now_ns();
                let mut span = telemetry::span!("engine.job", { job: j });
                if collect {
                    let wait = started_ns.saturating_sub(enqueued_ns);
                    wait_hist.record(wait);
                    span.arg("wait_ns", wait);
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faultpoint!(crate::fault::ENGINE_DISPATCH);
                    f(j, arena);
                }));
                drop(span);
                if collect {
                    run_hist.record(telemetry::now_ns().saturating_sub(started_ns));
                }
                // Always-on utilization accounting (telemetry-independent);
                // must land *before* the latch so callers observing the
                // counters after `run` returns see every job.
                let wid = j % nworkers;
                busy_ns[wid].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                job_counts[wid].fetch_add(1, Ordering::Relaxed);
                let failure = result.err().map(|payload| {
                    // The job unwound mid-write: any buffer it parked in (or
                    // left inside) this arena may be in an inconsistent
                    // state. Discard them all; the slot refills lazily.
                    arena.clear();
                    telemetry::record_counter("engine.job_panics", 1);
                    JobFailure {
                        job: j,
                        worker: wid,
                        message: panic_message(&*payload),
                    }
                });
                job_latch.count_down(failure);
            });
            if let Err(send_err) = self.workers[self.worker_for(j)].tx.send(job) {
                // The worker thread is gone (it cannot panic — jobs are
                // contained — so this means the pool is shutting down).
                // Account the undelivered job so the latch still resolves.
                drop(send_err);
                latch.count_down(Some(JobFailure {
                    job: j,
                    worker: self.worker_for(j),
                    message: "pool worker exited; job not delivered".to_string(),
                }));
            }
        }
        let failure = latch.wait();
        if telemetry::enabled() {
            telemetry::record_gauge(
                "engine.scratch_resident_bytes",
                self.resident_scratch_bytes() as f64,
            );
        }
        match failure {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// Give a buffer back to the arena of the worker that ran `job`, so
    /// the next dispatch's job on that slot reuses it.
    pub fn restore<T: Send + 'static>(&self, job: usize, key: u64, buf: Vec<T>) {
        let w = self.worker_for(job);
        self.arenas[w]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .give_vec(key, buf);
    }

    /// Total bytes parked across all arenas (instrumentation).
    pub fn resident_scratch_bytes(&self) -> usize {
        self.arenas
            .iter()
            .map(|a| a.lock().unwrap_or_else(|e| e.into_inner()).resident_bytes())
            .sum()
    }

    /// Drop all cached scratch buffers in every arena.
    pub fn clear_scratch(&self) {
        for a in self.arenas.iter() {
            a.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close channels, then join.
        for w in &mut self.workers {
            // Replacing the sender with a dummy drops the original.
            let (dummy, _) = channel();
            let tx = std::mem::replace(&mut w.tx, dummy);
            drop(tx);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Scratch-buffer keys of the per-worker arenas: the gridding engines'
/// buffers and the coil jobs' grids (documented here so key collisions
/// stay impossible by inspection).
pub mod keys {
    /// Slice-and-Dice per-worker accumulator columns.
    pub const DICE_COLUMNS: u64 = 0x01;
    /// Binned gridder per-worker tile block.
    pub const BIN_TILES: u64 = 0x02;
    /// Block-reduce per-worker partial grid.
    pub const PARTIAL_GRID: u64 = 0x03;
    /// Naive output-parallel per-worker output chunk.
    pub const NAIVE_CHUNK: u64 = 0x04;
    /// Per-coil grid: the batched NuFFT's oversampled grid (or one row
    /// band's slab of it) and the Toeplitz operator's `(2N)^d` pad grid.
    pub const COIL_GRID: u64 = 0x05;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_jobs_once() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.try_run(10, move |_, _| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(pool.dispatches(), 1);
    }

    #[test]
    fn job_to_worker_mapping_is_stable() {
        let pool = WorkerPool::new(4);
        for j in 0..16 {
            assert_eq!(pool.worker_for(j), j % 4);
        }
    }

    #[test]
    fn results_travel_via_channels() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        pool.try_run(6, move |j, _| {
            tx.send((j, j * j)).unwrap();
        })
        .unwrap();
        let mut got: Vec<(usize, usize)> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..6).map(|j| (j, j * j)).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_buffers_are_reused_across_dispatches() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        pool.try_run(1, move |_, arena| {
            let v = arena.take_vec::<u64>(9, 128, 0);
            tx2.send(v.as_ptr() as usize).unwrap();
            arena.give_vec(9, v);
        })
        .unwrap();
        let first_ptr = rx.recv().unwrap();
        pool.try_run(1, move |_, arena| {
            let v = arena.take_vec::<u64>(9, 64, 0);
            tx.send(v.as_ptr() as usize).unwrap();
            arena.give_vec(9, v);
        })
        .unwrap();
        let second_ptr = rx.recv().unwrap();
        assert_eq!(first_ptr, second_ptr, "buffer must be recycled");
        assert!(pool.resident_scratch_bytes() >= 128 * 8);
        pool.clear_scratch();
        assert_eq!(pool.resident_scratch_bytes(), 0);
    }

    #[test]
    fn take_vec_zeroes_recycled_buffers() {
        let mut arena = ScratchArena::default();
        let mut v = arena.take_vec::<f64>(1, 4, 0.0);
        v.iter_mut().for_each(|x| *x = 7.0);
        arena.give_vec(1, v);
        let v2 = arena.take_vec::<f64>(1, 8, 0.0);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 8);
    }

    #[test]
    fn restore_reaches_the_producing_worker() {
        let pool = WorkerPool::new(2);
        // Job 3 runs on worker 1; restore(3, ..) must land in arena 1 so a
        // second dispatch's job 1 (also worker 1) can reuse it.
        let (tx, rx) = channel();
        let txa = tx.clone();
        pool.try_run(4, move |j, arena| {
            if j == 3 {
                let v = arena.take_vec::<u32>(5, 32, 0);
                txa.send(v).unwrap();
            }
        })
        .unwrap();
        let buf = rx.recv().unwrap();
        let ptr = buf.as_ptr() as usize;
        pool.restore(3, 5, buf);
        let (tx2, rx2) = channel();
        pool.try_run(2, move |j, arena| {
            if j == 1 {
                let v = arena.take_vec::<u32>(5, 32, 0);
                tx2.send(v.as_ptr() as usize).unwrap();
            }
        })
        .unwrap();
        assert_eq!(rx2.recv().unwrap(), ptr);
    }

    #[test]
    fn panicking_job_propagates_without_poisoning_pool() {
        let pool = WorkerPool::new(2);
        let result = pool.try_run(3, |j, _| {
            if j == 1 {
                panic!("boom");
            }
        });
        assert!(result.is_err());
        // Pool still works.
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.try_run(4, move |_, _| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn try_run_reports_job_worker_and_payload() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run(4, |j, _| {
                if j == 3 {
                    panic!("kaboom {j}");
                }
            })
            .expect_err("job 3 must fail");
        assert_eq!(err.job, 3);
        assert_eq!(err.worker, 3 % 2);
        assert_eq!(err.message, "kaboom 3");
        assert!(err.to_string().contains("job 3 panicked on worker 1"));
        // The same pool completes a clean dispatch afterwards.
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.try_run(6, move |_, _| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn panicking_job_discards_poisoned_scratch() {
        let pool = WorkerPool::new(1);
        // Park a buffer cleanly so the worker's arena holds resident bytes.
        pool.try_run(1, |_, arena| {
            let v = arena.take_vec::<u64>(11, 256, 0);
            arena.give_vec(11, v);
        })
        .unwrap();
        assert!(pool.resident_scratch_bytes() >= 256 * 8);
        // A job that panics mid-write on the same worker must clear that
        // worker's arena: the parked buffer may be half-mutated.
        let err = pool.try_run(1, |_, arena| {
            let mut v = arena.take_vec::<u64>(11, 256, 0);
            v[0] = 1; // simulate a partial write
            arena.give_vec(11, v);
            panic!("mid-write");
        });
        assert!(err.is_err());
        assert_eq!(
            pool.resident_scratch_bytes(),
            0,
            "poisoned arena buffers must be discarded"
        );
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
        assert!(WorkerPool::global().size() >= 1);
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let pool = WorkerPool::new(2);
        pool.try_run(0, |_, _| panic!("must not run")).unwrap();
        let none: Vec<()> = pool.map("test", 0, |_, _| panic!("must not run")).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn worker_busy_counters_accumulate() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.worker_busy_ns(), vec![0, 0]);
        assert_eq!(pool.worker_job_counts(), vec![0, 0]);
        pool.try_run(4, |_, _| {
            // Enough work that the per-job Instant delta is nonzero.
            std::hint::black_box((0..200_000u64).map(|x| x.wrapping_mul(x)).sum::<u64>());
        })
        .unwrap();
        let busy = pool.worker_busy_ns();
        let counts = pool.worker_job_counts();
        assert_eq!(busy.len(), 2);
        // Jobs 0..4 round-robin onto 2 workers: two each.
        assert_eq!(counts, vec![2, 2]);
        assert!(busy.iter().sum::<u64>() > 0, "busy time must accumulate");
    }

    #[test]
    fn scratch_keys_are_distinct() {
        let all = [
            keys::DICE_COLUMNS,
            keys::BIN_TILES,
            keys::PARTIAL_GRID,
            keys::NAIVE_CHUNK,
            keys::COIL_GRID,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn panic_message_renders_known_payloads() {
        let p: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(&*p), "static str");
        let p: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*p), "owned");
        let p: Box<dyn Any + Send> = Box::new(jigsaw_testkit::fault::FaultInjected { site: "a.b" });
        assert_eq!(panic_message(&*p), "injected fault at a.b");
        let p: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*p), "non-string panic payload");
    }

    #[test]
    fn dispatch_records_job_histograms_when_enabled() {
        let pool = WorkerPool::new(2);
        telemetry::set_enabled(true);
        let before = pool.run_hist.count();
        pool.try_run(6, |_, _| {}).unwrap();
        // The histograms are global ("engine.job_run_ns"), so concurrent
        // tests may also record: assert at least this dispatch's jobs.
        assert!(pool.run_hist.count() - before >= 6);
        assert!(pool.wait_hist.count() >= 6);
    }

    /// A job that panics on the first attempt at `failing`, and records
    /// the thread of every attempt at every job.
    type Attempts = Arc<Mutex<Vec<(usize, std::thread::ThreadId)>>>;

    fn flaky_job(
        failing: usize,
    ) -> (
        Attempts,
        impl Fn(usize, &mut ScratchArena) -> usize + Send + Sync + 'static,
    ) {
        let attempts: Attempts = Arc::default();
        let log = Arc::clone(&attempts);
        let job = move |j: usize, _: &mut ScratchArena| {
            let mut log = log.lock().unwrap();
            let first = !log.iter().any(|&(k, _)| k == j);
            log.push((j, std::thread::current().id()));
            drop(log);
            if j == failing && first {
                panic!("first attempt at job {j}");
            }
            10 * j
        };
        (attempts, job)
    }

    #[test]
    fn map_returns_values_in_job_order_and_reruns_only_the_failed_job_here() {
        let _lock = crate::fault::test_guard();
        set_serial_fallback(true);
        let pool = WorkerPool::new(2);
        let clean = pool.map("test", 7, |j, _| 10 * j).unwrap();
        assert_eq!(clean, [0, 10, 20, 30, 40, 50, 60]);
        let (attempts, job) = flaky_job(2);
        let got = pool.map("test", 7, job).unwrap();
        assert_eq!(got, clean);
        let attempts = attempts.lock().unwrap();
        let me = std::thread::current().id();
        for j in 0..7 {
            let runs: Vec<_> = attempts.iter().filter(|&&(k, _)| k == j).collect();
            assert_eq!(runs.len(), if j == 2 { 2 } else { 1 }, "job {j}");
            assert_ne!(runs[0].1, me, "job {j} first ran on a worker");
        }
        assert_eq!(attempts.last(), Some(&(2, me)), "the re-run is last, here");
    }

    #[test]
    fn map_fails_closed_with_the_fallback_off() {
        let _lock = crate::fault::test_guard();
        set_serial_fallback(false);
        let (attempts, job) = flaky_job(1);
        let got = WorkerPool::new(2).map("test.strict", 3, job);
        set_serial_fallback(true);
        match got {
            Err(crate::Error::Execution(msg)) => {
                assert!(msg.starts_with("test.strict: job 1 panicked"), "{msg}")
            }
            other => panic!("expected Error::Execution, got {other:?}"),
        }
        assert_eq!(attempts.lock().unwrap().len(), 3, "no job ran again");
    }

    #[test]
    fn map_fails_closed_when_the_rerun_panics_too() {
        let _lock = crate::fault::test_guard();
        set_serial_fallback(true);
        let got = WorkerPool::new(2).map("test.twice", 3, |j, _| {
            if j == 1 {
                panic!("job {j} always fails");
            }
            j
        });
        match got {
            Err(crate::Error::Execution(msg)) => assert!(
                msg.contains("job 1 failed again on the calling thread: job 1 always fails"),
                "{msg}"
            ),
            other => panic!("expected Error::Execution, got {other:?}"),
        }
    }
}
