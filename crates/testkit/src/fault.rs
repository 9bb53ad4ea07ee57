//! Deterministic fault injection with a telemetry-style kill switch.
//!
//! Production NuFFT services need their failure paths *tested*, not just
//! written. This module provides the substrate: named fault points
//! (placed with the [`faultpoint!`](crate::faultpoint) macro) that are a
//! single relaxed atomic load + predicted branch when disarmed, and fire
//! a deterministic, seeded schedule of panics when armed.
//!
//! Mirrors the `jigsaw-telemetry` kill-switch pattern exactly:
//!
//! * **Disarmed** (the default): every [`should_fire`] call is one
//!   relaxed load and a branch — verified by the `fault_overhead` bench.
//! * **Armed**: via [`arm`] in tests, or the `JIGSAW_FAULTS` environment
//!   variable (e.g. `JIGSAW_FAULTS=site=nufft.coil,seed=7,rate=1,fires=1`)
//!   for CLI smoke runs.
//! * **Compile-time off**: the `off` cargo feature removes even the
//!   branch.
//!
//! The schedule is *deterministic*: whether the k-th evaluation of a
//! given site fires depends only on `(seed, site, k)`, so a failing chaos
//! run replays exactly. Fires are bounded by `max_fires` (default 1) so
//! graceful-degradation retries do not re-trip the same fault forever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// 0 = uninitialized, 1 = armed, 2 = disarmed.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Panic payload thrown by a fired fault point. Handlers (the worker-pool
/// panic containment) downcast to this to report the site by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjected {
    /// The fault-point name that fired, e.g. `"nufft.coil"`.
    pub site: &'static str,
}

impl std::fmt::Display for FaultInjected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

/// A deterministic fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Only this site fires (all registered sites when `None`).
    pub site: Option<String>,
    /// Seed for the per-hit fire decision.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given hit of a matching site
    /// fires.
    pub rate: f64,
    /// Total number of fires across the process before the schedule goes
    /// quiet. Bounded by default so serial-fallback retries succeed.
    pub max_fires: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            site: None,
            seed: 0,
            rate: 1.0,
            max_fires: 1,
        }
    }
}

impl FaultPlan {
    /// A plan that fires exactly once, at the first hit of `site`.
    pub fn once_at(site: &str) -> Self {
        Self {
            site: Some(site.to_string()),
            ..Self::default()
        }
    }

    /// Parse the `JIGSAW_FAULTS` syntax: comma-separated `key=value`
    /// pairs among `site=`, `seed=`, `rate=`, `fires=` (e.g.
    /// `site=gridding.chunk,seed=7,rate=0.5,fires=2`). Returns `None`
    /// for the disabling spellings (empty, `0`, `off`, `false`, `no`)
    /// and for unparseable input.
    pub fn parse(spec: &str) -> Option<Self> {
        let spec = spec.trim();
        if matches!(
            spec.to_ascii_lowercase().as_str(),
            "" | "0" | "off" | "false" | "no"
        ) {
            return None;
        }
        let mut plan = Self::default();
        for part in spec.split(',') {
            let (key, value) = part.split_once('=')?;
            match key.trim() {
                "site" => plan.site = Some(value.trim().to_string()),
                "seed" => plan.seed = value.trim().parse().ok()?,
                "rate" => plan.rate = value.trim().parse().ok()?,
                "fires" => plan.max_fires = value.trim().parse().ok()?,
                _ => return None,
            }
        }
        Some(plan)
    }
}

struct FaultState {
    plan: FaultPlan,
    /// Per-site evaluation counters — the `k` in the `(seed, site, k)`
    /// fire decision.
    hits: HashMap<String, u64>,
    fired: u64,
}

fn state() -> &'static Mutex<Option<FaultState>> {
    static STATE_CELL: OnceLock<Mutex<Option<FaultState>>> = OnceLock::new();
    STATE_CELL.get_or_init(|| Mutex::new(None))
}

fn lock_state() -> MutexGuard<'static, Option<FaultState>> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Install `plan` and arm every fault point. Resets hit and fire
/// counters.
pub fn arm(plan: FaultPlan) {
    let mut s = lock_state();
    *s = Some(FaultState {
        plan,
        hits: HashMap::new(),
        fired: 0,
    });
    STATE.store(1, Ordering::Relaxed);
}

/// Disarm every fault point. [`should_fire`] drops back to a single
/// relaxed load + branch.
pub fn disarm() {
    STATE.store(2, Ordering::Relaxed);
    *lock_state() = None;
}

/// How many faults have fired since the last [`arm`].
pub fn fires() -> u64 {
    lock_state().as_ref().map_or(0, |s| s.fired)
}

/// Whether the fault point `site` should fire at this evaluation. The
/// disarmed fast path is one relaxed atomic load and a branch.
#[inline]
pub fn should_fire(site: &str) -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    match STATE.load(Ordering::Relaxed) {
        2 => false,
        1 => decide(site),
        _ => init_from_env(site),
    }
}

#[cold]
fn init_from_env(site: &str) -> bool {
    let plan = std::env::var("JIGSAW_FAULTS")
        .ok()
        .as_deref()
        .and_then(FaultPlan::parse);
    // First initializer wins; an explicit arm()/disarm() may have raced.
    match plan {
        Some(p) => {
            if STATE
                .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                let mut s = lock_state();
                if s.is_none() {
                    *s = Some(FaultState {
                        plan: p,
                        hits: HashMap::new(),
                        fired: 0,
                    });
                }
            }
        }
        None => {
            let _ = STATE.compare_exchange(0, 2, Ordering::Relaxed, Ordering::Relaxed);
        }
    }
    if STATE.load(Ordering::Relaxed) == 1 {
        decide(site)
    } else {
        false
    }
}

#[cold]
fn decide(site: &str) -> bool {
    let mut guard = lock_state();
    let Some(s) = guard.as_mut() else {
        return false;
    };
    if let Some(filter) = &s.plan.site {
        if filter != site {
            return false;
        }
    }
    let hit = s.hits.entry(site.to_string()).or_insert(0);
    let k = *hit;
    *hit += 1;
    if s.fired >= s.plan.max_fires {
        return false;
    }
    // SplitMix64-style mix of (seed, site, k) → uniform in [0, 1).
    let mut h: u64 = s.plan.seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h ^= k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if u < s.plan.rate {
        s.fired += 1;
        true
    } else {
        false
    }
}

/// Serialize tests that arm/disarm the process-wide fault state — cargo
/// runs tests on parallel threads and the kill switch is global.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Place a named fault point: a no-op costing one relaxed atomic load
/// when fault injection is disarmed, an unwind with a
/// [`FaultInjected`](crate::fault::FaultInjected) payload when the armed
/// schedule says this evaluation fires. The site must be a `&'static
/// str` expression (conventionally a dotted literal like
/// `"gridding.chunk"`).
///
/// The unwind starts with [`std::panic::resume_unwind`], which skips the
/// panic hook: the default hook cannot render the typed payload and
/// would print `Box<dyn Any>` on stderr for every contained fire. The
/// handler that catches it names the site from the payload.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        if $crate::fault::should_fire($site) {
            ::std::panic::resume_unwind(::std::boxed::Box::new($crate::fault::FaultInjected {
                site: $site,
            }));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let _lock = test_guard();
        disarm();
        for _ in 0..1000 {
            assert!(!should_fire("any.site"));
        }
    }

    #[test]
    fn once_at_fires_exactly_once_at_the_named_site() {
        let _lock = test_guard();
        arm(FaultPlan::once_at("a.site"));
        assert!(!should_fire("other.site"));
        assert!(should_fire("a.site"));
        assert!(!should_fire("a.site"), "max_fires=1 must bound the burst");
        assert_eq!(fires(), 1);
        disarm();
    }

    #[test]
    fn schedule_is_deterministic_in_seed_site_and_hit() {
        let _lock = test_guard();
        let plan = FaultPlan {
            site: None,
            seed: 42,
            rate: 0.5,
            max_fires: u64::MAX,
        };
        arm(plan.clone());
        let a: Vec<bool> = (0..64).map(|_| should_fire("x.y")).collect();
        arm(plan);
        let b: Vec<bool> = (0..64).map(|_| should_fire("x.y")).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f));
        assert!(a.iter().any(|&f| !f));
        disarm();
    }

    #[test]
    fn env_spec_parses() {
        let p = FaultPlan::parse("site=gridding.chunk,seed=7,rate=0.25,fires=3").unwrap();
        assert_eq!(p.site.as_deref(), Some("gridding.chunk"));
        assert_eq!(p.seed, 7);
        assert_eq!(p.rate, 0.25);
        assert_eq!(p.max_fires, 3);
        assert!(FaultPlan::parse("0").is_none());
        assert!(FaultPlan::parse(" off ").is_none());
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("bogus").is_none());
        assert!(FaultPlan::parse("rate=abc").is_none());
        let d = FaultPlan::parse("site=s").unwrap();
        assert_eq!(d.rate, 1.0);
        assert_eq!(d.max_fires, 1);
    }

    #[test]
    fn faultpoint_macro_panics_with_typed_payload() {
        let _lock = test_guard();
        arm(FaultPlan::once_at("macro.site"));
        let err = std::panic::catch_unwind(|| faultpoint!("macro.site")).unwrap_err();
        let payload = err.downcast::<FaultInjected>().expect("typed payload");
        assert_eq!(payload.site, "macro.site");
        assert_eq!(payload.to_string(), "injected fault at macro.site");
        disarm();
    }
}
