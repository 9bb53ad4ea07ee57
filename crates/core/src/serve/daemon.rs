//! The long-lived `jigsaw serve` daemon: accept loop, two-priority job
//! queue, and executor threads.
//!
//! Transport is either a local Unix socket ([`serve_unix`], one reader
//! thread per connection) or the process's stdin/stdout
//! ([`serve_stdio`], the fallback framing for environments without
//! sockets). Both feed the same `JobQueue`; `--jobs` executor threads
//! pop jobs (high priority first, FIFO within a class), run them through
//! the shared [`ServeEngine`], and write the tagged response frame back
//! to the submitting connection.
//!
//! ## Overload policy
//!
//! Admission is *bounded*: a normal-priority `Submit` that would push
//! the queue past `max_queue_depth` jobs or `max_queued_bytes` resident
//! sample/result bytes is refused immediately with an `Overloaded`
//! frame (kind 9) carrying a `retry_after_ms` back-off hint, rather
//! than queued behind work it cannot reach in time. High-priority jobs
//! bypass both bounds, so a high job is never shed while normal jobs
//! are being admitted. Jobs whose deadline has already expired are
//! refused at `pop` (before any planning) and swept out of the deep
//! queue by the watchdog thread, which also cancels the budgets of
//! running jobs that blow their deadline or exceed
//! `watchdog_multiple ×` their budget — the gridding/FFT/coil hot
//! loops observe the cancellation at their next chunk checkpoint.
//! Shed counts land in `serve.shed.{depth,bytes,expired}` and the
//! flight recorder (`job_shed`, `watchdog_fired`).
//!
//! ## Shutdown and drain
//!
//! A `Shutdown` frame is acknowledged with `Pong`, then the queue is
//! *closed*: no new jobs are admitted (late submitters get a
//! protocol-category error frame), executors drain everything already
//! queued, and the accept loop returns so the process can exit 0. A
//! client disconnect (EOF) closes only that connection — except in
//! stdio mode, where stdin EOF is the only possible "client gone"
//! signal and triggers the same clean drain.
//!
//! A `Drain` frame (kind 10) is the *graceful* variant: also
//! acknowledged with `Pong` and also closing the queue, but late
//! submitters get a structured `Overloaded` frame with
//! [`ShedReason::Draining`] (a retryable condition — the daemon is
//! being rotated, not broken), and once the queue empties the plan
//! cache is snapshotted to [`ServeOptions::snapshot_path`] so the
//! restarted daemon starts warm. On the Unix-socket transport, SIGTERM
//! initiates the same drain — `kill <pid>` of a supervised daemon is a
//! graceful rotation, not data loss.
//!
//! ## Durable lifecycle
//!
//! With [`ServeOptions::snapshot_path`] set, startup loads the snapshot
//! (entries that fail checksum/version/shape validation are skipped and
//! counted; a torn or garbage file degrades to a cold start with a
//! stderr diagnostic — never a crash), a background thread re-snapshots
//! every [`ServeOptions::snapshot_every_secs`] (panic-contained like
//! the watchdog), and a graceful drain snapshots once the queue is
//! empty. See [`crate::serve::snapshot`] for the format.

use super::engine::ServeEngine;
use super::protocol::{
    read_frame, write_frame, ErrorCategory, ErrorFrame, Frame, JobRequest, OverloadFrame,
    ProtocolError, ShedReason,
};
use crate::budget::RunBudget;
use crate::{Error, Result};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::faultpoint;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon-assigned request ids live in this reserved namespace (high
/// bit set), so they can never collide with a client-chosen tag — the
/// wire rejects nothing, but the daemon re-assigns any tag that strays
/// into the reserved range.
pub const DAEMON_ID_BIT: u64 = 1 << 63;

/// Watchdog cadence: deadline sweeps and stuck-job checks run at this
/// period, so mid-job deadline enforcement lags the wall clock by at
/// most one tick.
const WATCHDOG_TICK_MS: u64 = 25;

/// Daemon tuning knobs (the `jigsaw serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Number of executor threads multiplexing jobs onto the worker
    /// pool.
    pub executors: usize,
    /// Default per-job wall-clock budget in milliseconds, applied when a
    /// request carries `budget_ms = 0`. Zero means unlimited.
    pub default_budget_ms: u64,
    /// Admission bound: a normal-priority submit is refused with an
    /// `Overloaded` frame once the queue holds this many jobs.
    pub max_queue_depth: usize,
    /// Admission bound: a normal-priority submit is refused once the
    /// queued jobs' approximate resident bytes
    /// ([`JobRequest::approx_bytes`]) would exceed this.
    pub max_queued_bytes: usize,
    /// Stuck-job backstop: the watchdog cancels any budgeted job still
    /// running after `watchdog_multiple ×` its budget (unlimited jobs
    /// are never watchdog-cancelled).
    pub watchdog_multiple: u32,
    /// Plan-cache snapshot file (`--snapshot`). `None` disables the
    /// durable lifecycle entirely. When set: loaded at startup
    /// (degrading to a cold start on any damage), rewritten every
    /// [`Self::snapshot_every_secs`], and rewritten on graceful drain.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Background snapshot period in seconds (`--snapshot-every-secs`);
    /// 0 disables periodic snapshotting (drain-time snapshots still
    /// happen). Ignored without [`Self::snapshot_path`].
    pub snapshot_every_secs: u64,
    /// External drain trigger for [`serve_unix`]: when the flag flips
    /// to `true`, the accept loop initiates a graceful drain exactly as
    /// if a `Drain` frame had arrived. The CLI points this at a static
    /// latched by its SIGTERM handler (`kill <pid>` of a supervised
    /// daemon is a graceful rotation, not data loss); the core crate
    /// itself is `forbid(unsafe_code)` and installs no handlers.
    pub drain_signal: Option<&'static AtomicBool>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            cache_capacity: 8,
            executors: 2,
            default_budget_ms: 0,
            max_queue_depth: 1024,
            max_queued_bytes: 1 << 30,
            watchdog_multiple: 8,
            snapshot_path: None,
            snapshot_every_secs: 0,
            drain_signal: None,
        }
    }
}

/// A writer shared between the connection's reader thread (error
/// frames) and the executors (results) — frames are written whole under
/// the lock, so responses never interleave.
type Reply = Arc<Mutex<Box<dyn Write + Send>>>;

struct Queued {
    req: JobRequest,
    budget: RunBudget,
    reply: Reply,
    enqueued: Instant,
    /// Trace id threaded through every span the job opens (the client's
    /// tag when valid, else daemon-assigned — see [`DAEMON_ID_BIT`]).
    request_id: u64,
    /// Cached [`JobRequest::approx_bytes`], charged to the queue's
    /// byte ledger while the job waits.
    bytes: usize,
    /// Effective budget in milliseconds after the daemon default is
    /// applied (0 = unlimited) — the watchdog's stuck-job reference.
    budget_ms: u64,
}

/// Why [`JobQueue::push`] handed the job back instead of queuing it.
enum Refusal {
    /// The daemon is shutting down.
    Closed,
    /// The queue already holds `max_queue_depth` jobs.
    Depth,
    /// Admitting the job would exceed `max_queued_bytes`.
    Bytes,
}

#[derive(Default)]
struct QueueState {
    high: VecDeque<Queued>,
    normal: VecDeque<Queued>,
    /// Sum of `bytes` across both queues.
    queued_bytes: usize,
    closed: bool,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    fn record_gauges(&self) {
        telemetry::record_gauge("serve.queue_depth", self.depth() as f64);
        telemetry::record_gauge("serve.queued_bytes", self.queued_bytes as f64);
    }
}

/// One [`JobQueue::pop_one`] outcome.
enum Popped {
    /// A live job: run it.
    Job(Queued),
    /// The job's deadline expired while it queued: refuse it without
    /// planning (the caller sheds it with
    /// [`ShedReason::DeadlineExpired`]) and pop again.
    Expired(Queued),
    /// Closed and drained: the executor exits.
    Closed,
}

/// Two-priority MPMC job queue with bounded admission and a close latch
/// for clean shutdown.
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a job, bounding normal-priority admission by depth and
    /// bytes; `Err` hands the job back with the refusal reason so the
    /// caller's reply channel can carry it. High-priority jobs bypass
    /// the bounds (only `Closed` can refuse them), so a high job is
    /// never shed while normals are admitted.
    // The large Err variant is the point: a refused job goes back to
    // the caller so its reply channel can carry the refusal.
    #[allow(clippy::result_large_err)]
    fn push(
        &self,
        job: Queued,
        max_depth: usize,
        max_bytes: usize,
    ) -> std::result::Result<(), (Queued, Refusal)> {
        let mut s = self.lock();
        if s.closed {
            return Err((job, Refusal::Closed));
        }
        let high = matches!(job.req.priority, super::protocol::Priority::High);
        if !high {
            if s.depth() >= max_depth {
                return Err((job, Refusal::Depth));
            }
            if s.queued_bytes.saturating_add(job.bytes) > max_bytes {
                return Err((job, Refusal::Bytes));
            }
        }
        s.queued_bytes = s.queued_bytes.saturating_add(job.bytes);
        if high {
            s.high.push_back(job);
        } else {
            s.normal.push_back(job);
        }
        s.record_gauges();
        drop(s);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until a job is available (high priority first, FIFO within
    /// a class) or the queue is closed *and* drained. A popped job whose
    /// budget is already exhausted comes back as [`Popped::Expired`] so
    /// the caller can refuse it before any planning happens.
    fn pop_one(&self) -> Popped {
        let mut s = self.lock();
        loop {
            if let Some(job) = s.high.pop_front().or_else(|| s.normal.pop_front()) {
                s.queued_bytes = s.queued_bytes.saturating_sub(job.bytes);
                s.record_gauges();
                return if job.budget.exhausted() {
                    Popped::Expired(job)
                } else {
                    Popped::Job(job)
                };
            }
            if s.closed {
                return Popped::Closed;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Remove every queued job whose budget is already exhausted — the
    /// watchdog's periodic sweep, so a deep-queued expired job gets its
    /// refusal *now* instead of when an executor finally reaches it.
    fn sweep_expired(&self) -> Vec<Queued> {
        let mut out = Vec::new();
        let mut freed = 0usize;
        let mut guard = self.lock();
        let s = &mut *guard;
        for dq in [&mut s.high, &mut s.normal] {
            let mut i = 0;
            while i < dq.len() {
                if dq[i].budget.exhausted() {
                    if let Some(job) = dq.remove(i) {
                        freed += job.bytes;
                        out.push(job);
                    }
                } else {
                    i += 1;
                }
            }
        }
        if !out.is_empty() {
            s.queued_bytes = s.queued_bytes.saturating_sub(freed);
            s.record_gauges();
        }
        out
    }

    /// Stop admitting jobs; wake every waiting executor so the drain
    /// can finish.
    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// A running job, registered by its executor for the watchdog.
struct InFlight {
    budget: RunBudget,
    started: Instant,
    /// Effective budget in milliseconds (0 = unlimited, never
    /// watchdog-cancelled).
    budget_ms: u64,
    tag: u64,
}

/// State shared by the accept loop, connection readers, executors, and
/// the watchdog.
struct Daemon {
    engine: ServeEngine,
    queue: JobQueue,
    stop: AtomicBool,
    /// Set by a `Drain` frame (or SIGTERM on the Unix transport):
    /// refusals while the queue is closed become structured
    /// `Overloaded{draining}` frames instead of shutdown errors, and
    /// the exit path snapshots the plan cache.
    draining: AtomicBool,
    default_budget_ms: u64,
    next_request_id: AtomicU64,
    max_queue_depth: usize,
    max_queued_bytes: usize,
    watchdog_multiple: u32,
    executors: usize,
    snapshot_path: Option<std::path::PathBuf>,
    inflight: Mutex<HashMap<u64, InFlight>>,
}

impl Daemon {
    fn new(opts: &ServeOptions) -> Arc<Self> {
        let engine = ServeEngine::new(opts.cache_capacity);
        if let Some(path) = &opts.snapshot_path {
            load_snapshot_contained(&engine, path);
        }
        Arc::new(Self {
            engine,
            queue: JobQueue::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            default_budget_ms: opts.default_budget_ms,
            next_request_id: AtomicU64::new(1),
            max_queue_depth: opts.max_queue_depth,
            max_queued_bytes: opts.max_queued_bytes,
            watchdog_multiple: opts.watchdog_multiple,
            executors: opts.executors.max(1),
            snapshot_path: opts.snapshot_path.clone(),
            inflight: Mutex::new(HashMap::new()),
        })
    }

    /// Trace id for a submission: the client's tag when it is nonzero
    /// and outside the daemon's reserved namespace (so a client can
    /// correlate its own traces), else a daemon-assigned id with
    /// [`DAEMON_ID_BIT`] set. The namespacing means two clients — one
    /// silent (tag 0) and one whose tags happen to collide with the
    /// counter — can never alias each other's traces.
    fn request_id_for(&self, req: &JobRequest) -> u64 {
        if req.tag != 0 && req.tag & DAEMON_ID_BIT == 0 {
            req.tag
        } else {
            self.next_request_id.fetch_add(1, Ordering::Relaxed) | DAEMON_ID_BIT
        }
    }

    /// Admit or refuse one submission. Refusals reply immediately:
    /// `Overloaded` (with a back-off hint) for queue bounds, a
    /// protocol-category error when shutting down.
    fn admit(&self, job: Queued) {
        let request_id = job.request_id;
        let tag = job.req.tag;
        let detail = format!("n={} priority={:?}", job.req.n, job.req.priority);
        match self
            .queue
            .push(job, self.max_queue_depth, self.max_queued_bytes)
        {
            Ok(()) => {
                telemetry::flight::record(
                    telemetry::FlightKind::JobAdmitted,
                    request_id,
                    tag,
                    &detail,
                );
            }
            Err((job, Refusal::Closed)) => {
                if self.draining.load(Ordering::SeqCst) {
                    // A draining daemon is being rotated, not broken:
                    // the refusal is a structured, retryable overload
                    // frame so well-behaved clients back off and hit
                    // the restarted (warm) daemon.
                    self.shed(job, ShedReason::Draining);
                } else {
                    send(
                        &job.reply,
                        &Frame::Error(ErrorFrame {
                            tag,
                            category: ErrorCategory::Protocol,
                            message: "daemon is shutting down".into(),
                        }),
                        request_id,
                        tag,
                    );
                }
            }
            Err((job, Refusal::Depth)) => self.shed(job, ShedReason::QueueDepth),
            Err((job, Refusal::Bytes)) => self.shed(job, ShedReason::QueueBytes),
        }
    }

    /// Refuse a job with an `Overloaded` frame: count it
    /// (`serve.shed.{depth,bytes,expired}`), flight-record it, and
    /// reply with the back-off hint. The frame build runs under
    /// `catch_unwind` (the `serve.shed` fault point fires inside), so
    /// an injected panic degrades to a plain execution-error frame and
    /// the calling thread — reader or watchdog — survives.
    fn shed(&self, job: Queued, reason: ShedReason) {
        telemetry::record_counter(&format!("serve.shed.{}", reason.label()), 1);
        telemetry::flight::record(
            telemetry::FlightKind::JobShed,
            job.request_id,
            job.req.tag,
            reason.label(),
        );
        let tag = job.req.tag;
        let depth = self.queue.lock().depth() as u32;
        let retry_after_ms = self.engine.estimated_retry_after_ms(depth, self.executors);
        let frame = catch_unwind(AssertUnwindSafe(|| {
            faultpoint!(crate::fault::SERVE_SHED);
            Frame::Overloaded(OverloadFrame {
                tag,
                reason,
                retry_after_ms,
                message: format!(
                    "job {tag} shed ({}): retry in ≥{retry_after_ms} ms",
                    reason.label()
                ),
            })
        }));
        let frame = frame.unwrap_or_else(|_| {
            Frame::Error(ErrorFrame {
                tag,
                category: ErrorCategory::Execution,
                message: "internal panic while shedding job (contained)".into(),
            })
        });
        send(&job.reply, &frame, job.request_id, tag);
    }

    /// Answer a `StatsRequest`: queue depths under the queue's own
    /// brief lock, then the engine's lock-free snapshot. Runs on the
    /// connection's reader thread — never queued behind jobs.
    fn stats(&self) -> super::stats::StatsSnapshot {
        let (depth, high) = {
            let s = self.queue.lock();
            (s.depth() as u32, s.high.len() as u32)
        };
        self.engine.stats_snapshot(depth, high)
    }

    /// The effective per-job budget in milliseconds after the daemon
    /// default is applied (0 = unlimited).
    fn effective_budget_ms(&self, req: &JobRequest) -> u64 {
        if req.budget_ms > 0 {
            u64::from(req.budget_ms)
        } else {
            self.default_budget_ms
        }
    }

    fn budget_for(&self, req: &JobRequest) -> RunBudget {
        let ms = self.effective_budget_ms(req);
        if ms > 0 {
            RunBudget::with_time_ms(ms)
        } else {
            RunBudget::unlimited()
        }
    }

    fn initiate_shutdown(&self) {
        self.queue.close();
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Graceful drain: like [`Self::initiate_shutdown`], but flagged so
    /// late submits get `Overloaded{draining}` and the exit path writes
    /// a plan-cache snapshot once executors finish the queue.
    fn initiate_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Write the plan-cache snapshot if a path is configured. Panic-
    /// contained and failure-counted: a full disk or a poisoned entry
    /// must never take down the daemon (periodic thread) or turn a
    /// graceful drain into a crash.
    fn write_snapshot(&self, why: &str) {
        let Some(path) = &self.snapshot_path else {
            return;
        };
        match catch_unwind(AssertUnwindSafe(|| self.engine.cache().save_snapshot(path))) {
            Ok(Ok(entries)) => {
                // Periodic saves are silent (they would spam stderr at
                // the snapshot cadence); the one-shot drain save is the
                // operator-visible handoff, so it logs.
                if why == "drain" {
                    eprintln!(
                        "jigsaw serve: snapshot (drain): {entries} entr{} -> {}",
                        if entries == 1 { "y" } else { "ies" },
                        path.display()
                    );
                }
            }
            Ok(Err(e)) => {
                telemetry::record_counter("serve.snapshot.save_failures", 1);
                eprintln!(
                    "jigsaw serve: snapshot save ({why}) to {} failed: {e}",
                    path.display()
                );
            }
            Err(_) => {
                telemetry::record_counter("serve.snapshot.panics", 1);
                eprintln!("jigsaw serve: snapshot save ({why}) panicked (contained)");
            }
        }
    }

    /// Exit-path hook shared by every transport: after executors have
    /// drained the queue, a *graceful* drain persists the warm cache.
    fn snapshot_on_drain(&self) {
        if self.draining.load(Ordering::SeqCst) {
            self.write_snapshot("drain");
        }
    }
}

/// Load a snapshot into a fresh engine's plan cache, containing every
/// failure mode: a missing file is a silent first boot, anything else
/// wrong degrades to a cold start with a stderr diagnostic and
/// `serve.snapshot.load_failures` / `serve.snapshot.panics`
/// accounting. The warm path logs its `loaded/skipped` split.
fn load_snapshot_contained(engine: &ServeEngine, path: &Path) {
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.cache().load_snapshot(path)));
    match outcome {
        Ok(Ok((0, 0))) => {}
        Ok(Ok((loaded, skipped))) => {
            eprintln!(
                "jigsaw serve: snapshot {}: loaded {loaded} plan(s), skipped {skipped}",
                path.display()
            );
        }
        Ok(Err(e)) => {
            telemetry::record_counter("serve.snapshot.load_failures", 1);
            eprintln!(
                "jigsaw serve: snapshot {} unusable ({e}); starting cold",
                path.display()
            );
        }
        Err(_) => {
            telemetry::record_counter("serve.snapshot.load_failures", 1);
            telemetry::record_counter("serve.snapshot.panics", 1);
            eprintln!(
                "jigsaw serve: snapshot load from {} panicked (contained); starting cold",
                path.display()
            );
        }
    }
}

/// Write a reply frame. A vanished client is not a daemon error, but it
/// must be *diagnosable*: a failed write bumps `serve.replies_dropped`
/// and flight-records `reply_dropped`, so `jigsaw top` shows where the
/// answers went.
fn send(reply: &Reply, frame: &Frame, request_id: u64, tag: u64) {
    let mut w = reply.lock().unwrap_or_else(|e| e.into_inner());
    if write_frame(&mut **w, frame).is_err() {
        telemetry::record_counter("serve.replies_dropped", 1);
        telemetry::flight::record(
            telemetry::FlightKind::ReplyDropped,
            request_id,
            tag,
            frame_name(frame),
        );
    }
}

/// One executor thread: pop → execute → reply, until closed and
/// drained. Expired jobs are refused without planning; live jobs are
/// registered with the watchdog for the duration of their run.
fn run_executor(d: &Daemon) {
    loop {
        let mut job = match d.queue.pop_one() {
            Popped::Job(job) => job,
            Popped::Expired(job) => {
                d.shed(job, ShedReason::DeadlineExpired);
                continue;
            }
            Popped::Closed => return,
        };
        d.engine
            .note_queue_wait(job.req.priority, job.enqueued.elapsed().as_nanos() as u64);
        d.inflight.lock().unwrap_or_else(|e| e.into_inner()).insert(
            job.request_id,
            InFlight {
                budget: job.budget.clone(),
                started: Instant::now(),
                budget_ms: job.budget_ms,
                tag: job.req.tag,
            },
        );
        let frame = match d
            .engine
            .execute_traced(&job.req, &job.budget, job.request_id)
        {
            Ok(res) => Frame::Result(res),
            Err(err) => Frame::Error(err),
        };
        d.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job.request_id);
        // The reply needs only the image: free the request's samples
        // (32 bytes each) before the write, which can block on a slow
        // client.
        job.req.coords = Vec::new();
        job.req.values = Vec::new();
        send(&job.reply, &frame, job.request_id, job.req.tag);
    }
}

/// One watchdog tick: sweep expired jobs out of the queue and cancel
/// the budgets of running jobs that blew their deadline or exceeded
/// `watchdog_multiple ×` their budget. The body runs under
/// `catch_unwind` (the `serve.watchdog` fault point fires inside); a
/// panic is counted in `serve.watchdog.panics` and the thread keeps
/// ticking.
fn watchdog_tick(d: &Daemon) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        faultpoint!(crate::fault::SERVE_WATCHDOG);
        for job in d.queue.sweep_expired() {
            d.shed(job, ShedReason::DeadlineExpired);
        }
        let inflight = d.inflight.lock().unwrap_or_else(|e| e.into_inner());
        for (request_id, f) in inflight.iter() {
            if f.budget.is_cancelled() {
                continue;
            }
            let deadline_blown = f.budget.exhausted();
            let stuck = f.budget_ms > 0
                && f.started.elapsed()
                    >= Duration::from_millis(
                        f.budget_ms.saturating_mul(u64::from(d.watchdog_multiple)),
                    );
            if deadline_blown || stuck {
                f.budget.cancel();
                telemetry::record_counter("serve.watchdog.cancels", 1);
                telemetry::flight::record(
                    telemetry::FlightKind::WatchdogFired,
                    *request_id,
                    f.tag,
                    if stuck {
                        "stuck: exceeded watchdog multiple of budget"
                    } else {
                        "deadline passed mid-job; budget cancelled"
                    },
                );
            }
        }
    }));
    if outcome.is_err() {
        telemetry::record_counter("serve.watchdog.panics", 1);
    }
}

fn spawn_watchdog(d: &Arc<Daemon>) -> std::thread::JoinHandle<()> {
    let d = Arc::clone(d);
    std::thread::Builder::new()
        .name("jigsaw-serve-watchdog".into())
        .spawn(move || {
            while !d.stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(WATCHDOG_TICK_MS));
                watchdog_tick(&d);
            }
        })
        .unwrap_or_else(|e| panic!("spawning watchdog: {e}"))
}

/// Spawn the periodic background snapshotter when both a snapshot path
/// and a nonzero period are configured. The thread sleeps in watchdog-
/// sized ticks so shutdown is never delayed by a long period, and each
/// save is panic-contained inside [`Daemon::write_snapshot`] — a failed
/// or panicking save is counted and the thread keeps its cadence.
fn spawn_snapshotter(d: &Arc<Daemon>, opts: &ServeOptions) -> Option<std::thread::JoinHandle<()>> {
    if d.snapshot_path.is_none() || opts.snapshot_every_secs == 0 {
        return None;
    }
    let period = Duration::from_secs(opts.snapshot_every_secs);
    let d = Arc::clone(d);
    Some(
        std::thread::Builder::new()
            .name("jigsaw-serve-snapshot".into())
            .spawn(move || {
                let mut last = Instant::now();
                while !d.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(WATCHDOG_TICK_MS));
                    if last.elapsed() >= period {
                        d.write_snapshot("periodic");
                        last = Instant::now();
                    }
                }
            })
            .unwrap_or_else(|e| panic!("spawning snapshotter: {e}")),
    )
}

/// Drive one client connection: parse frames off `reader`, answering on
/// `reply`. Returns when the client disconnects, sends garbage, or
/// requests shutdown. `shutdown_on_eof` makes a clean EOF initiate
/// daemon shutdown (stdio mode).
fn handle_connection<R: Read>(d: &Daemon, mut reader: R, reply: Reply, shutdown_on_eof: bool) {
    loop {
        match read_frame(&mut reader) {
            Ok(Frame::Ping) => send(&reply, &Frame::Pong, 0, 0),
            Ok(Frame::Submit(req)) => {
                let budget = d.budget_for(&req);
                let request_id = d.request_id_for(&req);
                let bytes = req.approx_bytes();
                let budget_ms = d.effective_budget_ms(&req);
                d.admit(Queued {
                    req,
                    budget,
                    reply: Arc::clone(&reply),
                    enqueued: Instant::now(),
                    request_id,
                    bytes,
                    budget_ms,
                });
            }
            Ok(Frame::StatsRequest) => {
                // Answered inline on the reader thread: a stats scrape
                // must never queue behind (or block) job execution.
                send(&reply, &Frame::StatsReply(Box::new(d.stats())), 0, 0);
            }
            Ok(Frame::Shutdown) => {
                send(&reply, &Frame::Pong, 0, 0);
                d.initiate_shutdown();
                return;
            }
            Ok(Frame::Drain) => {
                // Ack, stop admitting, but keep *reading*: a client
                // that pipelines submits behind its Drain gets a
                // deterministic Overloaded{draining} refusal for each,
                // not a raced shutdown error or a dead socket.
                send(&reply, &Frame::Pong, 0, 0);
                d.initiate_drain();
            }
            Ok(other) => {
                // Result/Error/Pong/Overloaded are daemon→client frames
                // only.
                send(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        tag: 0,
                        category: ErrorCategory::Protocol,
                        message: format!("unexpected client frame {:?}", frame_name(&other)),
                    }),
                    0,
                    0,
                );
            }
            Err(ProtocolError::Eof) => {
                if shutdown_on_eof {
                    d.initiate_shutdown();
                }
                return;
            }
            Err(ProtocolError::Malformed(m)) => {
                // The stream position is unreliable after a grammar
                // violation: report and close this connection. The
                // daemon itself keeps serving.
                send(
                    &reply,
                    &Frame::Error(ErrorFrame {
                        tag: 0,
                        category: ErrorCategory::Protocol,
                        message: m,
                    }),
                    0,
                    0,
                );
                if shutdown_on_eof {
                    d.initiate_shutdown();
                }
                return;
            }
            Err(ProtocolError::Io(_)) => {
                if shutdown_on_eof {
                    d.initiate_shutdown();
                }
                return;
            }
        }
    }
}

fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Submit(_) => "submit",
        Frame::Result(_) => "result",
        Frame::Error(_) => "error",
        Frame::Ping => "ping",
        Frame::Pong => "pong",
        Frame::Shutdown => "shutdown",
        Frame::StatsRequest => "stats_request",
        Frame::StatsReply(_) => "stats_reply",
        Frame::Overloaded(_) => "overloaded",
        Frame::Drain => "drain",
    }
}

fn spawn_executors(d: &Arc<Daemon>, n: usize) -> Vec<std::thread::JoinHandle<()>> {
    (0..n.max(1))
        .map(|i| {
            let d = Arc::clone(d);
            std::thread::Builder::new()
                .name(format!("jigsaw-serve-{i}"))
                .spawn(move || run_executor(&d))
                .unwrap_or_else(|e| panic!("spawning executor {i}: {e}"))
        })
        .collect()
}

/// A started daemon: its shared state and the threads that serve it —
/// the executors, the watchdog and, when configured, the snapshotter.
struct Running {
    d: Arc<Daemon>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Running {
    /// Build the daemon and spawn its threads.
    fn start(opts: &ServeOptions) -> Self {
        let d = Daemon::new(opts);
        let mut threads = spawn_executors(&d, opts.executors);
        threads.push(spawn_watchdog(&d));
        threads.extend(spawn_snapshotter(&d, opts));
        Self { d, threads }
    }

    /// Join every thread, executors first, once shutdown or drain has
    /// been initiated (the executors drain the queue, then exit), and
    /// hand back the daemon.
    fn finish(self) -> Arc<Daemon> {
        for h in self.threads {
            let _ = h.join();
        }
        self.d
    }
}

/// Serve on a Unix socket at `path` until a client sends `Shutdown` or
/// `Drain`, or [`ServeOptions::drain_signal`] flips (the CLI latches
/// SIGTERM into it, so `kill <pid>` drains gracefully).
/// A stale socket file at `path` is replaced.
pub fn serve_unix(path: &Path, opts: &ServeOptions) -> Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .map_err(|e| Error::Data(format!("binding {}: {e}", path.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| Error::Data(format!("configuring listener: {e}")))?;
    let run = Running::start(opts);
    let d = Arc::clone(&run.d);

    while !d.stop.load(Ordering::SeqCst) {
        if let Some(flag) = opts.drain_signal {
            if flag.swap(false, Ordering::SeqCst) {
                eprintln!("jigsaw serve: drain signal received; draining");
                d.initiate_drain();
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                let reply: Reply = Arc::new(Mutex::new(Box::new(stream)));
                let d2 = Arc::clone(&d);
                // Reader threads are detached: they block in read() on
                // idle clients and die with the process after shutdown.
                let _ = std::thread::Builder::new()
                    .name("jigsaw-serve-conn".into())
                    .spawn(move || handle_connection(&d2, reader, reply, false));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                // No drain snapshot: the daemon stops on an error.
                d.initiate_shutdown();
                run.finish();
                let _ = std::fs::remove_file(path);
                return Err(Error::Data(format!("accept failed: {e}")));
            }
        }
    }
    // Shutdown or drain requested: a graceful drain snapshots the final
    // warm cache once the executors finish the queue.
    run.finish().snapshot_on_drain();
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Serve on stdin/stdout — the socket-free fallback framing. Returns
/// after a `Shutdown` frame or stdin EOF, once queued jobs have
/// drained. All responses go to stdout; diagnostics belong on stderr.
pub fn serve_stdio(opts: &ServeOptions) -> Result<()> {
    serve_stream(std::io::stdin(), std::io::stdout(), opts)
}

/// The daemon loop over one reader/writer pair, without any OS
/// transport: [`serve_stdio`] runs it on stdin/stdout, and tests and
/// embedders on streams of their own. Returns after a `Shutdown` frame
/// or EOF, once queued jobs have drained; after a `Drain` frame it
/// snapshots the plan cache on the way out.
pub fn serve_stream<R: Read, W: Write + Send + 'static>(
    reader: R,
    writer: W,
    opts: &ServeOptions,
) -> Result<()> {
    let run = Running::start(opts);
    let reply: Reply = Arc::new(Mutex::new(Box::new(writer)));
    handle_connection(&run.d, reader, reply, true);
    run.d.initiate_shutdown();
    run.finish().snapshot_on_drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::protocol::{encode, JobResult, Priority};
    use super::*;
    use jigsaw_num::C64;

    fn request(tag: u64, priority: Priority) -> JobRequest {
        let coords = crate::traj::radial_2d(4, 16, true);
        let values = vec![C64::new(1.0, 0.0); coords.len()];
        JobRequest {
            tag,
            priority,
            n: 8,
            budget_ms: 0,
            coords,
            values,
        }
    }

    /// Collects daemon output frames for assertion.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run_session(frames: &[Frame], opts: &ServeOptions) -> Vec<Frame> {
        let mut input = Vec::new();
        for f in frames {
            input.extend_from_slice(&encode(f));
        }
        let out = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        serve_stream(std::io::Cursor::new(input), out.clone(), opts).expect("serve");
        let bytes = out.0.lock().unwrap().clone();
        let mut r = std::io::Cursor::new(bytes);
        let mut frames = Vec::new();
        while let Ok(f) = read_frame(&mut r) {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn ping_submit_shutdown_session() {
        let req = request(42, Priority::Normal);
        let replies = run_session(
            &[Frame::Ping, Frame::Submit(req), Frame::Shutdown],
            &ServeOptions::default(),
        );
        assert!(replies.contains(&Frame::Pong));
        let result: Vec<&JobResult> = replies
            .iter()
            .filter_map(|f| match f {
                Frame::Result(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].tag, 42);
        assert_eq!(result[0].image.len(), 64);
    }

    #[test]
    fn hostile_n_gets_a_tagged_config_error() {
        // `16·n²` overflows 64 bits for both sizes: the admission ledger
        // must neither panic nor wrap, and the job must reach the
        // executor's validation, which answers with its tag.
        let frames: Vec<Frame> = [(71, 1u32 << 30), (72, u32::MAX)]
            .into_iter()
            .map(|(tag, n)| {
                let mut req = request(tag, Priority::Normal);
                req.n = n;
                Frame::Submit(req)
            })
            .collect();
        let replies = run_session(&frames, &ServeOptions::default());
        let mut errors: Vec<(u64, ErrorCategory)> = replies
            .iter()
            .map(|f| match f {
                Frame::Error(e) => (e.tag, e.category),
                other => panic!("expected an error frame, got {other:?}"),
            })
            .collect();
        errors.sort_unstable_by_key(|&(tag, _)| tag);
        assert_eq!(
            errors,
            vec![(71, ErrorCategory::Config), (72, ErrorCategory::Config)]
        );
    }

    #[test]
    fn eof_drains_queued_jobs_before_returning() {
        // No explicit Shutdown: stdin just ends. Every submitted job
        // must still be answered.
        let frames: Vec<Frame> = (0..6)
            .map(|i| Frame::Submit(request(i, Priority::Normal)))
            .collect();
        let replies = run_session(&frames, &ServeOptions::default());
        let mut tags: Vec<u64> = replies
            .iter()
            .filter_map(|f| match f {
                Frame::Result(r) => Some(r.tag),
                _ => None,
            })
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn high_priority_jobs_jump_the_queue() {
        // Single executor: queue order is observable in reply order.
        // The first job may start before the rest are enqueued, but the
        // high-priority job must be answered before the *last* normal
        // one.
        let opts = ServeOptions {
            executors: 1,
            ..Default::default()
        };
        let frames = vec![
            Frame::Submit(request(1, Priority::Normal)),
            Frame::Submit(request(2, Priority::Normal)),
            Frame::Submit(request(3, Priority::Normal)),
            Frame::Submit(request(99, Priority::High)),
            Frame::Shutdown,
        ];
        let replies = run_session(&frames, &opts);
        let tags: Vec<u64> = replies
            .iter()
            .filter_map(|f| match f {
                Frame::Result(r) => Some(r.tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags.len(), 4);
        let hi = tags.iter().position(|&t| t == 99).unwrap();
        let last_normal = tags.iter().position(|&t| t == 3).unwrap();
        assert!(
            hi < last_normal,
            "high-priority job answered at {hi}, after normal job at {last_normal}: {tags:?}"
        );
    }

    #[test]
    fn malformed_bytes_get_protocol_error_frame() {
        let mut input = encode(&Frame::Ping);
        input.extend_from_slice(b"NOPEnonsense-bytes");
        let out = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        serve_stream(
            std::io::Cursor::new(input),
            out.clone(),
            &ServeOptions::default(),
        )
        .expect("serve");
        let bytes = out.0.lock().unwrap().clone();
        let mut r = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Pong);
        match read_frame(&mut r).unwrap() {
            Frame::Error(e) => {
                assert_eq!(e.category, ErrorCategory::Protocol);
                assert_eq!(e.tag, 0);
            }
            other => panic!("expected protocol error frame, got {other:?}"),
        }
    }

    fn queued(tag: u64, priority: Priority, budget: RunBudget, out: &SharedBuf) -> Queued {
        let req = request(tag, priority);
        let bytes = req.approx_bytes();
        Queued {
            req,
            budget,
            reply: Arc::new(Mutex::new(Box::new(out.clone()))),
            enqueued: Instant::now(),
            request_id: tag | DAEMON_ID_BIT,
            bytes,
            budget_ms: 0,
        }
    }

    fn empty_buf() -> SharedBuf {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

    #[test]
    fn daemon_assigned_request_ids_are_namespaced() {
        let d = Daemon::new(&ServeOptions::default());
        // Tag 0: daemon-assigned, high bit set, distinct per submit.
        let zero = request(0, Priority::Normal);
        let id1 = d.request_id_for(&zero);
        let id2 = d.request_id_for(&zero);
        assert_ne!(id1 & DAEMON_ID_BIT, 0);
        assert_ne!(id2 & DAEMON_ID_BIT, 0);
        assert_ne!(id1, id2);
        // A client tag that strays into the reserved namespace is
        // re-assigned instead of aliasing daemon-assigned ids.
        let strayed = request(DAEMON_ID_BIT | 7, Priority::Normal);
        let id3 = d.request_id_for(&strayed);
        assert_ne!(id3, DAEMON_ID_BIT | 7);
        assert_ne!(id3 & DAEMON_ID_BIT, 0);
        // An ordinary nonzero tag is used verbatim.
        assert_eq!(d.request_id_for(&request(42, Priority::Normal)), 42);
    }

    #[test]
    fn property_bounds_never_shed_high_and_preserve_fifo() {
        jigsaw_testkit::cases!(24, |rng| {
            let q = JobQueue::new();
            let max_depth = rng.usize_range(1, 6);
            let out = empty_buf();
            let mut expect_high = Vec::new();
            let mut expect_normal = Vec::new();
            let n_jobs = rng.usize_range(1, 20);
            for i in 0..n_jobs {
                let tag = i as u64 + 1;
                let high = rng.bool(0.4);
                let pr = if high {
                    Priority::High
                } else {
                    Priority::Normal
                };
                let job = queued(tag, pr, RunBudget::unlimited(), &out);
                match q.push(job, max_depth, usize::MAX) {
                    Ok(()) => {
                        if high {
                            expect_high.push(tag);
                        } else {
                            expect_normal.push(tag);
                        }
                    }
                    Err((job, Refusal::Depth)) => {
                        assert!(
                            !matches!(job.req.priority, Priority::High),
                            "high-priority job {tag} shed by the depth bound"
                        );
                    }
                    Err(_) => panic!("unexpected refusal for job {tag}"),
                }
            }
            // Drain: high first, FIFO within each class, shedding
            // notwithstanding.
            q.close();
            let mut drained = Vec::new();
            loop {
                match q.pop_one() {
                    Popped::Job(j) => drained.push(j.req.tag),
                    Popped::Expired(j) => panic!("unlimited job {} expired", j.req.tag),
                    Popped::Closed => break,
                }
            }
            let mut expected = expect_high;
            expected.extend_from_slice(&expect_normal);
            assert_eq!(drained, expected);
        });
    }

    #[test]
    fn property_byte_ledger_bounds_normal_admission() {
        jigsaw_testkit::cases!(16, |rng| {
            let q = JobQueue::new();
            let out = empty_buf();
            let per_job = request(1, Priority::Normal).approx_bytes();
            let cap_jobs = rng.usize_range(1, 5);
            let max_bytes = per_job * cap_jobs;
            let mut admitted = 0usize;
            for i in 0..8 {
                let job = queued(i + 1, Priority::Normal, RunBudget::unlimited(), &out);
                match q.push(job, usize::MAX, max_bytes) {
                    Ok(()) => admitted += 1,
                    Err((_, Refusal::Bytes)) => {}
                    Err(_) => panic!("unexpected refusal"),
                }
            }
            assert_eq!(
                admitted,
                cap_jobs.min(8),
                "ledger admits exactly the byte budget"
            );
            // High priority bypasses the byte bound even when full.
            let high = queued(99, Priority::High, RunBudget::unlimited(), &out);
            assert!(q.push(high, usize::MAX, max_bytes).is_ok());
        });
    }

    #[test]
    fn expired_jobs_are_swept_and_popped_as_expired() {
        let q = JobQueue::new();
        let out = empty_buf();
        q.push(
            queued(1, Priority::Normal, RunBudget::with_time_ms(0), &out),
            16,
            usize::MAX,
        )
        .unwrap_or_else(|_| panic!("push refused"));
        q.push(
            queued(2, Priority::Normal, RunBudget::unlimited(), &out),
            16,
            usize::MAX,
        )
        .unwrap_or_else(|_| panic!("push refused"));
        // The sweep pulls only the expired job, deep-queue position
        // notwithstanding.
        let swept = q.sweep_expired();
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].req.tag, 1);
        // The live job still pops normally.
        q.close();
        match q.pop_one() {
            Popped::Job(j) => assert_eq!(j.req.tag, 2),
            _ => panic!("live job must pop as Job"),
        }
        assert!(matches!(q.pop_one(), Popped::Closed));
        // pop_one itself also classifies expired jobs.
        let q2 = JobQueue::new();
        q2.push(
            queued(3, Priority::Normal, RunBudget::with_time_ms(0), &out),
            16,
            usize::MAX,
        )
        .unwrap_or_else(|_| panic!("push refused"));
        q2.close();
        assert!(matches!(q2.pop_one(), Popped::Expired(_)));
    }

    #[test]
    fn zero_depth_bound_sheds_normal_but_admits_high() {
        let opts = ServeOptions {
            max_queue_depth: 0,
            executors: 1,
            ..Default::default()
        };
        let replies = run_session(
            &[
                Frame::Submit(request(1, Priority::Normal)),
                Frame::Submit(request(2, Priority::High)),
                Frame::Shutdown,
            ],
            &opts,
        );
        let shed: Vec<&OverloadFrame> = replies
            .iter()
            .filter_map(|f| match f {
                Frame::Overloaded(o) => Some(o),
                _ => None,
            })
            .collect();
        assert_eq!(shed.len(), 1, "normal job shed exactly once: {replies:?}");
        assert_eq!(shed[0].tag, 1);
        assert_eq!(shed[0].reason, ShedReason::QueueDepth);
        assert!(shed[0].retry_after_ms >= 25);
        assert!(replies
            .iter()
            .any(|f| matches!(f, Frame::Result(JobResult { tag: 2, .. }))));
    }

    #[test]
    fn zero_byte_bound_sheds_normal_with_bytes_reason() {
        let opts = ServeOptions {
            max_queued_bytes: 0,
            executors: 1,
            ..Default::default()
        };
        let replies = run_session(
            &[Frame::Submit(request(5, Priority::Normal)), Frame::Shutdown],
            &opts,
        );
        assert!(
            replies.iter().any(|f| matches!(
                f,
                Frame::Overloaded(OverloadFrame {
                    tag: 5,
                    reason: ShedReason::QueueBytes,
                    ..
                })
            )),
            "{replies:?}"
        );
    }

    #[test]
    fn watchdog_cancels_blown_and_stuck_jobs_but_not_unlimited() {
        let d = Daemon::new(&ServeOptions::default());
        let blown = RunBudget::with_time_ms(0);
        let stuck = RunBudget::unlimited();
        let unlimited = RunBudget::unlimited();
        let backdated = Instant::now() - Duration::from_millis(500);
        let mut inflight = d.inflight.lock().unwrap();
        inflight.insert(
            DAEMON_ID_BIT | 1,
            InFlight {
                budget: blown.clone(),
                started: Instant::now(),
                budget_ms: 1,
                tag: 1,
            },
        );
        inflight.insert(
            DAEMON_ID_BIT | 2,
            InFlight {
                budget: stuck.clone(),
                started: backdated,
                budget_ms: 1,
                tag: 2,
            },
        );
        inflight.insert(
            DAEMON_ID_BIT | 3,
            InFlight {
                budget: unlimited.clone(),
                started: backdated,
                budget_ms: 0,
                tag: 3,
            },
        );
        drop(inflight);
        watchdog_tick(&d);
        assert!(blown.is_cancelled(), "deadline-blown job cancelled");
        assert!(
            stuck.is_cancelled(),
            "stuck job cancelled past the multiple"
        );
        assert!(
            !unlimited.is_cancelled(),
            "unlimited jobs are never watchdog-cancelled"
        );
        // A second tick is idempotent: already-cancelled jobs are
        // skipped, not re-fired.
        watchdog_tick(&d);
    }

    /// A client that vanished: every write fails.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client gone",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dropped_replies_are_counted_and_flight_recorded() {
        telemetry::set_enabled(true);
        let counter_value = || {
            telemetry::global()
                .snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == "serve.replies_dropped")
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let before = counter_value();
        let reply: Reply = Arc::new(Mutex::new(Box::new(FailingWriter)));
        send(&reply, &Frame::Pong, DAEMON_ID_BIT | 77, 9);
        assert_eq!(counter_value(), before + 1);
        let tail = telemetry::flight::global().tail(telemetry::flight::FLIGHT_CAPACITY);
        assert!(
            tail.iter()
                .any(|e| e.kind == telemetry::FlightKind::ReplyDropped
                    && e.request_id == DAEMON_ID_BIT | 77),
            "reply_dropped event missing from flight tail"
        );
    }

    #[test]
    fn drain_finishes_accepted_jobs_and_sheds_late_submits() {
        // Deterministic ordering: submits 1 and 2 are admitted before
        // the reader thread processes Drain (same thread, in order);
        // the late submit hits the closed queue and must get a
        // structured Overloaded{draining} refusal, not a shutdown
        // error. EOF then ends the session; executors drain jobs 1+2.
        let replies = run_session(
            &[
                Frame::Submit(request(1, Priority::Normal)),
                Frame::Submit(request(2, Priority::High)),
                Frame::Drain,
                Frame::Submit(request(9, Priority::Normal)),
            ],
            &ServeOptions {
                executors: 1,
                ..Default::default()
            },
        );
        assert!(replies.contains(&Frame::Pong), "drain must be acked");
        let mut result_tags: Vec<u64> = replies
            .iter()
            .filter_map(|f| match f {
                Frame::Result(r) => Some(r.tag),
                _ => None,
            })
            .collect();
        result_tags.sort_unstable();
        assert_eq!(
            result_tags,
            vec![1, 2],
            "every accepted job gets exactly one result: {replies:?}"
        );
        let shed: Vec<&OverloadFrame> = replies
            .iter()
            .filter_map(|f| match f {
                Frame::Overloaded(o) => Some(o),
                _ => None,
            })
            .collect();
        assert_eq!(shed.len(), 1, "{replies:?}");
        assert_eq!(shed[0].tag, 9);
        assert_eq!(shed[0].reason, ShedReason::Draining);
    }

    #[test]
    fn hard_shutdown_still_gets_protocol_error_not_overloaded() {
        // The Drain/Shutdown distinction must be observable: late
        // submits after a hard Shutdown keep the legacy shutdown error
        // (but handle_connection returns on Shutdown, so exercise the
        // admit path directly).
        let d = Daemon::new(&ServeOptions::default());
        d.initiate_shutdown();
        let out = empty_buf();
        d.admit(queued(5, Priority::Normal, RunBudget::unlimited(), &out));
        let bytes = out.0.lock().unwrap().clone();
        match read_frame(&mut std::io::Cursor::new(bytes)).expect("reply") {
            Frame::Error(e) => {
                assert_eq!(e.tag, 5);
                assert_eq!(e.category, ErrorCategory::Protocol);
            }
            other => panic!("expected shutdown error frame, got {other:?}"),
        }
    }

    fn temp_snapshot(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jigsaw-daemon-{name}-{}.snap", std::process::id()))
    }

    #[test]
    fn drain_snapshots_and_restart_is_warm() {
        let path = temp_snapshot("warm-restart");
        let _ = std::fs::remove_file(&path);
        let opts = ServeOptions {
            executors: 1,
            snapshot_path: Some(path.clone()),
            ..Default::default()
        };
        // First lifetime: warm the cache, drain.
        let replies = run_session(
            &[Frame::Submit(request(1, Priority::Normal)), Frame::Drain],
            &opts,
        );
        assert!(replies.iter().any(|f| matches!(
            f,
            Frame::Result(JobResult {
                tag: 1,
                cache_hit: false,
                ..
            })
        )));
        assert!(path.exists(), "drain must write the snapshot");
        // Second lifetime: same trajectory must be a plan-cache hit on
        // the very first request.
        let replies = run_session(
            &[Frame::Submit(request(2, Priority::Normal)), Frame::Shutdown],
            &opts,
        );
        let hit = replies
            .iter()
            .find_map(|f| match f {
                Frame::Result(r) if r.tag == 2 => Some(r.cache_hit),
                _ => None,
            })
            .expect("post-restart job must produce a result");
        assert!(
            hit,
            "first identical post-restart request must hit the cache"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hard_shutdown_does_not_snapshot() {
        let path = temp_snapshot("no-snap-on-shutdown");
        let _ = std::fs::remove_file(&path);
        let opts = ServeOptions {
            snapshot_path: Some(path.clone()),
            ..Default::default()
        };
        run_session(
            &[Frame::Submit(request(1, Priority::Normal)), Frame::Shutdown],
            &opts,
        );
        assert!(
            !path.exists(),
            "hard shutdown is the no-snapshot path (only drain persists)"
        );
    }

    #[test]
    fn corrupt_snapshot_degrades_to_cold_start() {
        let path = temp_snapshot("corrupt");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let opts = ServeOptions {
            snapshot_path: Some(path.clone()),
            ..Default::default()
        };
        // The daemon must come up and serve — cold.
        let replies = run_session(
            &[Frame::Submit(request(3, Priority::Normal)), Frame::Shutdown],
            &opts,
        );
        assert!(
            replies.iter().any(|f| matches!(
                f,
                Frame::Result(JobResult {
                    tag: 3,
                    cache_hit: false,
                    ..
                })
            )),
            "{replies:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_save_failure_is_contained_and_counted() {
        telemetry::set_enabled(true);
        let counter_value = || {
            telemetry::global()
                .snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == "serve.snapshot.save_failures")
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let before = counter_value();
        // A directory as the snapshot target: the rename must fail.
        let opts = ServeOptions {
            snapshot_path: Some(std::env::temp_dir()),
            ..Default::default()
        };
        let d = Daemon::new(&opts);
        d.write_snapshot("test");
        assert_eq!(counter_value(), before + 1);
    }

    #[test]
    fn budget_zero_default_applies_daemon_default() {
        // default_budget_ms = 1 ns-scale deadline: the job is refused
        // with a budget error frame (tiny deadline, already expired by
        // execution time) — or completes if the machine is fast; both
        // are valid, but the frame must be tagged either way.
        let opts = ServeOptions {
            default_budget_ms: 0,
            ..Default::default()
        };
        let replies = run_session(
            &[Frame::Submit(request(7, Priority::Normal)), Frame::Shutdown],
            &opts,
        );
        assert!(replies.iter().any(|f| matches!(
            f,
            Frame::Result(JobResult { tag: 7, .. }) | Frame::Error(ErrorFrame { tag: 7, .. })
        )));
    }
}
