//! The `jigsaw serve` serving layer: a plan-cached reconstruction
//! daemon.
//!
//! Every one-shot CLI invocation pays the full planning cost —
//! [`crate::nufft::NufftPlan::plan_trajectory`]'s per-sample window
//! decomposition plus FFT/apodization setup — even though production
//! MRI workloads replay the same trajectories continuously (one per
//! pulse sequence). This module amortizes that cost across a process
//! lifetime:
//!
//! * [`protocol`] — a std-only, length-prefixed binary frame protocol
//!   over any byte stream (Unix socket or stdin/stdout).
//! * [`cache`] — a bounded LRU [`cache::PlanCache`] keyed by the full
//!   trajectory *contents* and grid/kernel geometry.
//! * [`engine`] — [`engine::ServeEngine`], the per-job execution seam:
//!   validation, `RunBudget` admission control, cache lookup, the
//!   planned batched adjoint on the shared worker pool, and
//!   `catch_unwind` panic containment (a panicking job becomes an error
//!   frame; the daemon survives).
//! * [`daemon`] — transports, the two-priority job queue, and the
//!   executor threads ([`daemon::serve_unix`] / [`daemon::serve_stdio`]).
//! * [`client`] — a blocking [`client::ServeClient`] for CLI client
//!   mode and the black-box tests.
//! * [`snapshot`] — the versioned, checksummed on-disk snapshot format
//!   that carries the plan cache across process lifetimes (see
//!   [`cache::PlanCache::save_snapshot`] /
//!   [`cache::PlanCache::load_snapshot`]).
//!
//! Serving v1 fixes the numeric type to `f64` and the dimensionality to
//! 2-D (the paper's primary configuration); the frame grammar reserves
//! a version byte for future widening.
//!
//! Telemetry: `serve.cache.{hit,miss,evict}` counters,
//! `serve.queue_depth` / `serve.queued_bytes` gauges, `serve.jobs` /
//! `serve.job_errors` / `serve.shed.{depth,bytes,expired,draining}` /
//! `serve.replies_dropped` / `serve.watchdog.{cancels,panics}` /
//! `serve.snapshot.{loaded,skipped,saves,save_failures,load_failures,panics}`
//! counters, and `serve.job_latency_ns` / `serve.queue_wait_ns`
//! histograms. Fault sites: [`crate::fault::SERVE_JOB`],
//! [`crate::fault::SERVE_CACHE`], [`crate::fault::SERVE_SHED`],
//! [`crate::fault::SERVE_SNAPSHOT`], and
//! [`crate::fault::SERVE_WATCHDOG`].
//!
//! Overload resilience: admission is bounded
//! ([`ServeOptions::max_queue_depth`] / `max_queued_bytes`), refused
//! jobs get an [`protocol::OverloadFrame`] with a `retry_after_ms`
//! hint, expired jobs are swept before planning, and a watchdog thread
//! cancels blown or stuck budgets so the gridding/FFT hot loops bail at
//! their next cooperative checkpoint (see [`crate::budget`]).
//!
//! Durable lifecycle: [`ServeOptions::snapshot_path`] enables
//! load-on-start (a corrupt or stale snapshot degrades to a cold start,
//! never a crash), periodic background snapshotting, and
//! snapshot-on-drain. The `Drain` frame (kind 10) — surfaced as
//! `jigsaw request --drain` and as SIGTERM on the Unix-socket server —
//! stops admission (late submits get `Overloaded{reason=draining}`),
//! finishes queued jobs, snapshots, and exits 0; the existing
//! `Shutdown` (kind 6) remains the hard stop.
//!
//! Live introspection: [`stats`] defines the versioned
//! [`stats::StatsSnapshot`] answered over the wire by the
//! `StatsRequest`/`StatsReply` frame pair (kinds 7/8) — registry
//! metrics, plan-cache state, queue depth, per-worker utilization,
//! last-60s latency windows, and the flight-recorder tail — collected
//! without ever taking the plan-cache build lock or blocking the job
//! queue.

pub mod cache;
pub mod client;
pub mod daemon;
pub mod engine;
pub mod protocol;
pub mod snapshot;
pub mod stats;

pub use cache::{plan_key, trajectory_hash, CachedPlan, PlanCache, PlanKey};
pub use client::{RetryPolicy, ServeClient};
pub use daemon::{serve_stdio, serve_stream, serve_unix, ServeOptions, DAEMON_ID_BIT};
pub use engine::ServeEngine;
pub use protocol::{
    ErrorCategory, ErrorFrame, Frame, JobRequest, JobResult, OverloadFrame, Priority,
    ProtocolError, ShedReason,
};
pub use snapshot::{
    decode_snapshot, encode_snapshot, write_atomic, DecodeOutcome, SnapshotEntry, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use stats::{CacheStats, StatsSnapshot, WindowStats, WorkerStats, STATS_VERSION};
