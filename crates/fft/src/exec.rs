//! Minimal job-execution abstraction for parallel N-D FFT passes.
//!
//! [`FftNd::process_with`](crate::FftNd::process_with) partitions each axis
//! pass into independent *panel jobs* (gather a block of lines into
//! contiguous scratch, run batched 1-D FFTs, hand the result back). This
//! module defines the executor those jobs run on:
//!
//! * [`Executor`] — object-safe trait with a blocking [`Executor::execute`]
//!   over a batch of owned jobs, plus buffer-recycling hooks.
//! * [`SerialExecutor`] — the default, dependency-free implementation: runs
//!   jobs in order on the calling thread with a private recycling arena.
//! * [`BufferArena`] — type-erased recycled-buffer store each job receives;
//!   `jigsaw-core` implements it for its per-worker `ScratchArena` so the
//!   persistent pool recycles panel scratch across FFT calls.
//!
//! # Why owned jobs instead of borrowed closures
//!
//! The whole workspace forbids `unsafe`, and a persistent worker pool moves
//! work over channels, which requires `'static` payloads. A borrowed
//! `run(jobs, &f)` API therefore could not be implemented by
//! `jigsaw_core::engine::WorkerPool` without unsafe lifetime erasure.
//! Instead, jobs are `'static` `FnOnce` boxes that own their inputs
//! (`Arc`-shared plans and source snapshots) and return results through
//! channels the caller drains. Determinism is structural: every 1-D line
//! transform executes the exact same floating-point operations regardless
//! of which worker runs it or how lines are grouped into panels, so output
//! is bitwise identical across executors and worker counts — no atomics,
//! no merge-order dependence.
//!
//! # Why the trait lives here
//!
//! `jigsaw-fft` sits below `jigsaw-core` in the crate DAG (core *uses* the
//! FFT); depending on core for its `WorkerPool` would invert that edge.
//! Owning a minimal executor trait here keeps the FFT crate self-contained
//! (its only dependencies are `jigsaw-num` and the std-only
//! `jigsaw-telemetry`) while letting core plug the shared pool in from
//! above.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Mutex;

/// A unit of FFT work: owns its inputs, receives a recycling arena.
pub type Job = Box<dyn FnOnce(&mut dyn BufferArena) + Send>;

/// A contained job failure: some job in an [`Executor::execute`] batch
/// panicked. The executor catches the panic (its workers — or, for
/// [`SerialExecutor`], the calling thread — survive), and reports the
/// first failure here so callers can degrade gracefully instead of
/// unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Index of the failed job within the submitted batch.
    pub job: usize,
    /// The worker that ran the job, when the executor has workers.
    pub worker: Option<usize>,
    /// The captured panic payload, rendered as a string.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.worker {
            Some(w) => write!(
                f,
                "job {} panicked on worker {}: {}",
                self.job, w, self.message
            ),
            None => write!(f, "job {} panicked: {}", self.job, self.message),
        }
    }
}

impl std::error::Error for ExecError {}

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

/// Scratch key for N-D FFT panel buffers (`Vec<Complex<T>>`).
///
/// Chosen to extend the `jigsaw_core::engine::keys` space without
/// collision (core uses `0x01..=0x05`); core re-exports it as
/// `keys::FFT_PANEL`.
pub const PANEL_KEY: u64 = 0x06;

/// Scratch key for Bluestein convolution work buffers used inside panel
/// jobs (`Vec<Complex<T>>` of `lanes * work_len()` elements). Lives in the
/// same key space as [`PANEL_KEY`]; core re-exports it as
/// `keys::FFT_WORK`.
pub const WORK_KEY: u64 = 0x08;

/// Object-safe, type-erased store of recyclable buffers.
///
/// Mirrors `jigsaw_core::engine::ScratchArena` (which implements this
/// trait): buffers are keyed by `(key, TypeId)` and cycle between jobs and
/// the caller. The `bytes` argument to [`BufferArena::give_any`] lets
/// implementations track resident scratch without downcasting.
pub trait BufferArena {
    /// Take a previously stored buffer under `(key, ty)`, if any.
    fn take_any(&mut self, key: u64, ty: TypeId) -> Option<Box<dyn Any + Send>>;
    /// Store `buf` (whose payload occupies `bytes` bytes) for future reuse.
    fn give_any(&mut self, key: u64, ty: TypeId, buf: Box<dyn Any + Send>, bytes: usize);
}

/// Take a `Vec<T>` of exactly `len` elements (all `fill`) from the arena,
/// reusing a recycled buffer when one is available.
pub fn take_vec<T: Clone + Send + 'static>(
    arena: &mut dyn BufferArena,
    key: u64,
    len: usize,
    fill: T,
) -> Vec<T> {
    if let Some(boxed) = arena.take_any(key, TypeId::of::<Vec<T>>()) {
        if let Ok(mut v) = boxed.downcast::<Vec<T>>() {
            v.clear();
            v.resize(len, fill);
            return *v;
        }
    }
    vec![fill; len]
}

/// Return a `Vec<T>` to the arena under `key` for future reuse.
pub fn give_vec<T: Send + 'static>(arena: &mut dyn BufferArena, key: u64, v: Vec<T>) {
    let bytes = v.capacity() * core::mem::size_of::<T>();
    arena.give_any(key, TypeId::of::<Vec<T>>(), Box::new(v), bytes);
}

/// A batch-job executor for FFT panel work.
///
/// Implementations must run every submitted job exactly once and return
/// from [`Executor::execute`] only after all jobs have completed. Jobs may
/// run concurrently and in any order; numerical determinism is the *job
/// author's* responsibility (upheld in this crate by making jobs fully
/// independent — see the module docs).
pub trait Executor: Sync {
    /// Run all `jobs` to completion. Job `j` should run against a stable,
    /// worker-affine [`BufferArena`] so recycled buffers stay warm.
    ///
    /// A panicking job must be *contained*: the executor stays usable,
    /// and the first failure is reported as an [`ExecError`] after every
    /// job in the batch has either run or been discarded. Scratch buffers
    /// held by a panicking job must be discarded, not recycled.
    fn execute(&self, jobs: Vec<Job>) -> Result<(), ExecError>;

    /// Number of jobs that can make progress simultaneously (≥ 1). Used
    /// only to decide whether parallel orchestration is worth setting up —
    /// never to shape the panel partition, which is deterministic.
    fn concurrency(&self) -> usize;

    /// Return a buffer to the arena that served job `job`, so the next
    /// batch's job on the same slot reuses it. Called by the orchestrating
    /// thread after it has merged the job's output.
    fn restore(&self, job: usize, key: u64, ty: TypeId, buf: Box<dyn Any + Send>, bytes: usize);
}

/// Give a `Vec<T>` produced by `job` back to the executor for recycling.
pub fn restore_vec<T: Send + 'static>(exec: &dyn Executor, job: usize, key: u64, v: Vec<T>) {
    let bytes = v.capacity() * core::mem::size_of::<T>();
    exec.restore(job, key, TypeId::of::<Vec<T>>(), Box::new(v), bytes);
}

/// The default arena: a `(key, TypeId)`-keyed stack of boxed buffers.
#[derive(Default)]
pub struct MapArena {
    slots: HashMap<(u64, TypeId), Vec<Box<dyn Any + Send>>>,
    bytes: usize,
}

impl MapArena {
    /// Approximate resident bytes currently parked in this arena.
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }
}

impl BufferArena for MapArena {
    fn take_any(&mut self, key: u64, ty: TypeId) -> Option<Box<dyn Any + Send>> {
        self.slots.get_mut(&(key, ty))?.pop()
    }

    fn give_any(&mut self, key: u64, ty: TypeId, buf: Box<dyn Any + Send>, bytes: usize) {
        self.bytes += bytes;
        self.slots.entry((key, ty)).or_default().push(buf);
    }
}

/// Runs jobs serially on the calling thread. The zero-dependency default:
/// [`crate::FftNd::process`] is exactly `process_with(&SerialExecutor::new(), ..)`
/// minus the panel-job boxing overhead.
#[derive(Default)]
pub struct SerialExecutor {
    arena: Mutex<MapArena>,
}

impl SerialExecutor {
    /// Create an executor with an empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Executor for SerialExecutor {
    fn execute(&self, jobs: Vec<Job>) -> Result<(), ExecError> {
        for (j, job) in jobs.into_iter().enumerate() {
            // The arena lock is scoped per job so a panicking job leaves
            // the executor reusable; its arena is discarded (fresh buffers
            // on next use) rather than recycled in an unknown state.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut arena = self.arena.lock().unwrap_or_else(|e| e.into_inner());
                job(&mut *arena);
            }));
            if let Err(payload) = result {
                *self.arena.lock().unwrap_or_else(|e| e.into_inner()) = MapArena::default();
                return Err(ExecError {
                    job: j,
                    worker: None,
                    message: panic_message(&*payload),
                });
            }
        }
        Ok(())
    }

    fn concurrency(&self) -> usize {
        1
    }

    fn restore(&self, _job: usize, key: u64, ty: TypeId, buf: Box<dyn Any + Send>, bytes: usize) {
        self.arena
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .give_any(key, ty, buf, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn serial_executor_runs_all_jobs_in_order() {
        let exec = SerialExecutor::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job> = (0..5)
            .map(|j| {
                let seen = Arc::clone(&seen);
                let job: Job = Box::new(move |_arena| {
                    seen.lock().unwrap().push(j);
                });
                job
            })
            .collect();
        exec.execute(jobs).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(exec.concurrency(), 1);
    }

    #[test]
    fn serial_executor_contains_job_panics() {
        let exec = SerialExecutor::new();
        let ran_after = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = vec![
            Box::new(|_arena| {}),
            Box::new(|_arena| panic!("boom in job 1")),
            Box::new(|_arena| {}),
        ];
        let err = exec.execute(jobs).unwrap_err();
        assert_eq!(err.job, 1);
        assert_eq!(err.worker, None);
        assert!(err.message.contains("boom in job 1"), "{err}");
        assert!(err.to_string().contains("job 1 panicked"));
        // The executor stays usable after the contained failure.
        let ra = Arc::clone(&ran_after);
        exec.execute(vec![Box::new(move |_arena| {
            ra.store(7, Ordering::SeqCst);
        })])
        .unwrap();
        assert_eq!(ran_after.load(Ordering::SeqCst), 7);
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
    fn map_arena_recycles_buffers() {
        let mut arena = MapArena::default();
        let v = take_vec::<u64>(&mut arena, 7, 16, 0);
        let ptr = v.as_ptr() as usize;
        give_vec(&mut arena, 7, v);
        assert!(arena.resident_bytes() >= 16 * 8);
        let v2 = take_vec::<u64>(&mut arena, 7, 8, 0);
        assert_eq!(v2.as_ptr() as usize, ptr, "buffer must be recycled");
        assert_eq!(v2.len(), 8);
        // Different key: fresh allocation path.
        let v3 = take_vec::<u64>(&mut arena, 8, 4, 3);
        assert!(v3.iter().all(|&x| x == 3));
    }

    #[test]
    fn take_vec_refills_recycled_buffers() {
        let mut arena = MapArena::default();
        let mut v = take_vec::<f64>(&mut arena, 1, 4, 0.0);
        v.iter_mut().for_each(|x| *x = 9.0);
        give_vec(&mut arena, 1, v);
        let v2 = take_vec::<f64>(&mut arena, 1, 6, 0.0);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 6);
    }

    #[test]
    fn restore_vec_lands_in_serial_arena() {
        let exec = SerialExecutor::new();
        let buf = vec![1u32; 32];
        let ptr = buf.as_ptr() as usize;
        restore_vec(&exec, 3, 5, buf);
        let got = Arc::new(AtomicUsize::new(0));
        let got2 = Arc::clone(&got);
        exec.execute(vec![Box::new(move |arena| {
            let v = take_vec::<u32>(arena, 5, 32, 0);
            got2.store(v.as_ptr() as usize, Ordering::SeqCst);
        })])
        .unwrap();
        assert_eq!(got.load(Ordering::SeqCst), ptr);
    }
}
