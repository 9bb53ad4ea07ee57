//! # jigsaw-telemetry — hermetic observability substrate
//!
//! The paper's whole argument is quantitative (`M·T^d` vs `Σ|bin|·B^d`
//! operation counts, per-phase runtime curves), so the workspace needs a
//! first-class way to *measure itself*. This crate provides that substrate
//! with zero external dependencies (the build is hermetic — no registry
//! access), mirroring how cuFINUFFT's load-balancing analysis and
//! FINUFFT's kernel tuning were both driven by per-phase instrumentation.
//!
//! Three pillars:
//!
//! * **Spans** — [`span!`] produces an RAII [`SpanGuard`]; on drop a
//!   completed-span [`Event`] (name, category, thread lane, start, dur,
//!   args) lands in the emitting thread's buffer. Buffers are per-thread
//!   (`Mutex` that is only ever contended by [`drain_events`]), so the hot
//!   path is effectively lock-free. Categories derive from the name prefix
//!   before the first `.` — `"gridding.scatter"` → `"gridding"` — giving
//!   the fleet of `engine` / `gridding` / `fft` / `nufft` / `recon` lanes.
//! * **Metrics** — a global [`Registry`] of named atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s with a
//!   deterministic [`Registry::snapshot`] for reporting.
//! * **Exporters** — human-readable table, JSON lines, and Chrome
//!   `trace_event` JSON ([`export::chrome_trace`]) loadable in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! ## Kill switch
//!
//! Telemetry defaults to **on** and is disabled either at runtime
//! (`JIGSAW_TELEMETRY=0` or [`set_enabled`]) or at compile time (the
//! `off` cargo feature). When disabled, every entry point costs one
//! relaxed atomic load and a branch — verified by the
//! `telemetry_overhead` bench.
//!
//! ```
//! use jigsaw_telemetry as telemetry;
//! use jigsaw_telemetry::span;
//!
//! {
//!     let _guard = span!("gridding.scatter", { dim: 2usize, m: 1000usize });
//!     // ... timed work ...
//! } // span recorded here
//! telemetry::record_counter("grid.samples", 1000);
//! let snapshot = telemetry::global().snapshot();
//! let events = telemetry::drain_events();
//! let trace = telemetry::export::chrome_trace(&events, &telemetry::lanes());
//! assert!(trace.contains("\"traceEvents\""));
//! if telemetry::enabled() {
//!     assert!(snapshot.counters.iter().any(|(n, v)| n == "grid.samples" && *v >= 1000));
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;
pub mod window;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use span::{
    counter_event, current_request_id, current_tid, drain_events, lanes, set_thread_lane, ArgValue,
    Event, EventKind, RequestScope, SpanGuard,
};
pub use window::WindowedHistogram;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

/// 0 = uninitialized, 1 = enabled, 2 = disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently collecting. This is the hot-path branch:
/// one relaxed atomic load (the lazy env read happens once, on first call).
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = env_enables(std::env::var("JIGSAW_TELEMETRY").ok().as_deref());
    let want = if on { 1 } else { 2 };
    // First initializer wins; an explicit set_enabled may already have run.
    let _ = STATE.compare_exchange(0, want, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == 1
}

/// The pure decision function behind the `JIGSAW_TELEMETRY` environment
/// variable: `0`, `false`, `off`, and `no` (any case) disable collection;
/// everything else — including the variable being unset — enables it.
pub fn env_enables(value: Option<&str>) -> bool {
    match value.map(str::trim) {
        Some(v) => !matches!(
            v.to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        None => true,
    }
}

/// Force telemetry on or off at runtime, overriding the environment.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide telemetry epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Global registry + convenience recorders
// ---------------------------------------------------------------------------

/// The process-wide metrics registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// `global().counter(name).add(delta)` iff telemetry is enabled.
#[inline]
pub fn record_counter(name: &str, delta: u64) {
    if enabled() {
        global().counter(name).add(delta);
    }
}

/// `global().gauge(name).set(value)` iff telemetry is enabled.
#[inline]
pub fn record_gauge(name: &str, value: f64) {
    if enabled() {
        global().gauge(name).set(value);
    }
}

/// `global().histogram(name).record(value)` iff telemetry is enabled.
#[inline]
pub fn record_histogram(name: &str, value: u64) {
    if enabled() {
        global().histogram(name).record(value);
    }
}

/// Reset the global registry (zero all metrics, keep handles valid) and
/// discard all buffered events. Intended for tests and the start of a
/// profiling run.
pub fn reset() {
    global().reset();
    let _ = drain_events();
}

/// Mirror [`span::dropped_events`] into the `telemetry.dropped_events`
/// registry counter (topping it up to the true total, so repeated calls
/// are idempotent) and return the total. Call before snapshotting so
/// ring-buffer overflow is visible in metrics output instead of silent.
pub fn sync_dropped_events() -> u64 {
    let dropped = span::dropped_events();
    if dropped > 0 && enabled() {
        let c = global().counter("telemetry.dropped_events");
        let seen = c.get();
        if dropped > seen {
            c.add(dropped - seen);
        }
    }
    dropped
}

/// The category of a span name: the prefix before the first `.`
/// (`"gridding.scatter"` → `"gridding"`), or the whole name if undotted.
pub fn category_of(name: &'static str) -> &'static str {
    match name.find('.') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Open a telemetry span: `span!("cat.name")` or
/// `span!("cat.name", { key: value, ... })`. Returns an RAII
/// [`SpanGuard`]; the span is recorded when the guard drops. The category
/// is the name's prefix before the first `.`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::begin($name, $crate::category_of($name))
    };
    ($name:expr, { $($k:ident : $v:expr),* $(,)? }) => {{
        let mut __jigsaw_span = $crate::span::SpanGuard::begin($name, $crate::category_of($name));
        $( __jigsaw_span.arg(stringify!($k), $v); )*
        __jigsaw_span
    }};
}

/// Serialize tests that toggle the global kill switch or drain the global
/// event buffers — cargo runs unit tests on parallel threads, and those
/// globals are process-wide.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_decision_table() {
        assert!(env_enables(None));
        assert!(env_enables(Some("1")));
        assert!(env_enables(Some("on")));
        assert!(env_enables(Some("yes")));
        assert!(!env_enables(Some("0")));
        assert!(!env_enables(Some("false")));
        assert!(!env_enables(Some("FALSE")));
        assert!(!env_enables(Some("off")));
        assert!(!env_enables(Some(" no ")));
    }

    #[test]
    fn category_derivation() {
        assert_eq!(category_of("gridding.scatter"), "gridding");
        assert_eq!(category_of("fft.process"), "fft");
        assert_eq!(category_of("undotted"), "undotted");
        assert_eq!(category_of("a.b.c"), "a");
    }

    #[test]
    fn config_round_trip() {
        let _lock = test_guard();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        // With the compile-time `off` feature, enabled() is always false.
        assert_eq!(enabled(), !cfg!(feature = "off"));
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
