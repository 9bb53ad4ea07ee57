//! LRU plan cache keyed by trajectory *contents* and grid geometry.
//!
//! Planning — the per-sample quantize → decompose → LUT-lookup pass of
//! [`NufftPlan::plan_trajectory`] plus the FFT twiddle/apodization setup
//! of [`NufftPlan::new`] — dominates a one-shot transform (the warm-plan
//! row of `BENCH_pooled_engines.json`). A serving daemon sees the same
//! trajectories over and over (one per pulse sequence), so the cache
//! keeps the `(plan, planned trajectory)` pair for the most recently
//! used keys and evicts least-recently-used entries beyond a capacity
//! bound.
//!
//! ## Keying
//!
//! The key hashes the **full trajectory contents** — every coordinate's
//! `f64` bit pattern, not just the sample count — together with every
//! parameter that shapes the planning output: grid size, kernel width,
//! table oversampling, tile, oversampling factor, and the resolved
//! kernel (family code + shape parameter bits,
//! [`KernelKind::code`](crate::kernel::KernelKind::code)). Two spellings
//! of the same kernel (`Auto` vs. its resolved Kaiser-Bessel) share one
//! entry.
//!
//! The key only hashes the trajectory, so a hit is verified: the entry's
//! stored coordinates must equal the request's bit for bit, or the
//! lookup counts as a miss and the rebuilt entry replaces the resident
//! one. Two same-shape trajectories with different coordinates therefore
//! never share a plan, and a `trajectory_hash` collision costs a
//! rebuild, never a wrong image. That is why [`trajectory_hash`] can be
//! cheap: it takes one FNV-1a step per 8-byte coordinate word, and it
//! runs on every served request, hit or miss. Snapshots store rebuild
//! inputs, not keys, so the hash can change without touching the
//! snapshot format.

use crate::config::NufftConfig;
use crate::nufft::{NufftPlan, PlannedTrajectory};
use crate::serve::snapshot;
use crate::Result;
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::faultpoint;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything that distinguishes one cached plan from another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Base image size `N`.
    pub n: usize,
    /// Oversampled grid size `G`.
    pub grid: usize,
    /// Window width `W`.
    pub width: usize,
    /// Table oversampling `L`.
    pub table_oversampling: usize,
    /// Tile dimension `T`.
    pub tile: usize,
    /// `σ` as IEEE-754 bits (bitwise equality, no float comparison).
    pub sigma_bits: u64,
    /// Resolved kernel's family code
    /// ([`KernelKind::code`](crate::kernel::KernelKind::code)).
    pub kernel_code: u8,
    /// Resolved kernel's shape parameter as IEEE-754 bits (0 for
    /// parameterless families).
    pub kernel_param_bits: u64,
    /// Number of trajectory samples.
    pub samples: usize,
    /// Word-wise FNV-1a hash of every coordinate's bit pattern (see
    /// [`trajectory_hash`]).
    pub traj_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Word-wise FNV-1a over the sample count and every coordinate's `f64`
/// bit pattern, in order: one xor-multiply step per 8-byte word, not
/// per byte. Identical shapes with different contents hash apart, and
/// sample order is part of identity (planned scatter replays samples in
/// order). Each step is a bijection of the running state, so two
/// trajectories that differ in a single coordinate never collide. The
/// key does not have to be collision-free: every hit is verified
/// against the entry's stored coordinates bit for bit, so a collision
/// costs a rebuild, never a wrong image.
pub fn trajectory_hash(coords: &[[f64; 2]]) -> u64 {
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(FNV_PRIME);
    coords
        .as_flattened()
        .iter()
        .fold(step(FNV_OFFSET, coords.len() as u64), |h, x| {
            step(h, x.to_bits())
        })
}

/// Build the cache key for a configuration + trajectory pair. The kernel
/// is resolved first, so `Auto` and its explicit Beatty Kaiser-Bessel
/// land on the same entry.
pub fn plan_key(cfg: &NufftConfig, coords: &[[f64; 2]]) -> PlanKey {
    let (kernel_code, param) = cfg.resolved_kernel().code();
    PlanKey {
        n: cfg.n,
        grid: cfg.grid_size(),
        width: cfg.width,
        table_oversampling: cfg.table_oversampling,
        tile: cfg.tile,
        sigma_bits: cfg.sigma.to_bits(),
        kernel_code,
        kernel_param_bits: param.to_bits(),
        samples: coords.len(),
        traj_hash: trajectory_hash(coords),
    }
}

/// A cached plan: the `NufftPlan` (LUT, apodization, FFT setup) plus the
/// planned per-sample window decomposition for one trajectory.
///
/// Each entry also keeps its original coordinates: hits are verified
/// against them, and with the plan's configuration they are the
/// **rebuild inputs** [`PlanCache::save_snapshot`] persists across
/// process lifetimes (see [`crate::serve::snapshot`]). They are a
/// shared `Arc` slice: one extra allocation per entry, no per-job
/// copies.
pub struct CachedPlan {
    /// The key this entry was stored under.
    pub key: PlanKey,
    /// The NuFFT plan (f64, 2-D at serving v1), built from the
    /// configuration the entry was requested under.
    pub plan: NufftPlan<f64, 2>,
    /// The precomputed window decomposition.
    pub traj: PlannedTrajectory<2>,
    /// Original trajectory coordinates (snapshot rebuild input).
    pub coords: Arc<[[f64; 2]]>,
}

impl CachedPlan {
    /// Whether this entry was built from exactly `coords`, bit for bit.
    fn built_from(&self, coords: &[[f64; 2]]) -> bool {
        let (a, b) = (self.coords.as_flattened(), coords.as_flattened());
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

impl std::fmt::Debug for CachedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedPlan")
            .field("key", &self.key)
            .field("samples", &self.traj.len())
            .finish_non_exhaustive()
    }
}

/// A bounded LRU cache of [`CachedPlan`]s, safe to share across the
/// daemon's executor threads.
///
/// Hit/miss/eviction counts are kept in always-on atomics (exposed via
/// [`PlanCache::hits`] etc. so admission-control and benches work even
/// with telemetry disabled) *and* mirrored into the telemetry registry
/// as `serve.cache.hit` / `serve.cache.miss` / `serve.cache.evict`.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// Front = most recently used.
    entries: Mutex<VecDeque<Arc<CachedPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The resident keys, most recently used first. (Test/diagnostic
    /// surface — the LRU property tests compare this against a model.)
    pub fn keys(&self) -> Vec<PlanKey> {
        self.lock().iter().map(|e| e.key.clone()).collect()
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<CachedPlan>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key`, promoting it to most recently used on a hit.
    /// Counts a hit or a miss. The key alone decides; [`Self::get_or_build`]
    /// also checks the entry's rebuild inputs.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.lookup_verified(key, |_| true)
    }

    /// [`Self::lookup`] where the entry under `key` is a hit only if
    /// `verify` accepts it; otherwise the lookup counts as a miss.
    fn lookup_verified(
        &self,
        key: &PlanKey,
        verify: impl Fn(&CachedPlan) -> bool,
    ) -> Option<Arc<CachedPlan>> {
        let mut entries = self.lock();
        if let Some(i) = entries.iter().position(|e| &e.key == key && verify(e)) {
            let Some(entry) = entries.remove(i) else {
                // Unreachable: `i` came from `position` under the same lock.
                return None;
            };
            entries.push_front(Arc::clone(&entry));
            drop(entries);
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::record_counter("serve.cache.hit", 1);
            telemetry::flight::record(
                telemetry::FlightKind::CacheHit,
                telemetry::current_request_id(),
                key.traj_hash,
                "",
            );
            Some(entry)
        } else {
            drop(entries);
            self.misses.fetch_add(1, Ordering::Relaxed);
            telemetry::record_counter("serve.cache.miss", 1);
            telemetry::flight::record(
                telemetry::FlightKind::CacheMiss,
                telemetry::current_request_id(),
                key.traj_hash,
                "",
            );
            None
        }
    }

    /// Insert an entry at the most-recently-used position, evicting the
    /// least recently used entries beyond capacity. If the key is
    /// already resident and built from the same coordinates (a racing
    /// build on another thread won), the resident entry is kept and
    /// returned so all callers share one canonical plan. A resident
    /// entry built from other coordinates under the same key (a hash
    /// collision) is replaced.
    pub fn insert(&self, entry: Arc<CachedPlan>) -> Arc<CachedPlan> {
        let mut evicted = 0u64;
        let canonical;
        {
            let mut entries = self.lock();
            if let Some(i) = entries.iter().position(|e| e.key == entry.key) {
                let Some(existing) = entries.remove(i) else {
                    return entry;
                };
                canonical = if existing.built_from(&entry.coords) {
                    existing
                } else {
                    entry
                };
                entries.push_front(Arc::clone(&canonical));
            } else {
                entries.push_front(Arc::clone(&entry));
                while entries.len() > self.capacity {
                    entries.pop_back();
                    evicted += 1;
                }
                canonical = entry;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            telemetry::record_counter("serve.cache.evict", evicted);
            telemetry::flight::record(
                telemetry::FlightKind::CacheEvict,
                telemetry::current_request_id(),
                evicted,
                &format!("len={}", self.len()),
            );
        }
        canonical
    }

    /// The daemon's main seam: return the cached plan for
    /// `(cfg, coords)`, building (outside the lock) and inserting it on
    /// a miss. The boolean is `true` on a cache hit, which requires the
    /// entry's stored coordinates to equal `coords` bit for bit.
    ///
    /// The `serve.cache` fault point fires *before* any lock is taken,
    /// so an injected panic here can never poison or corrupt the cache.
    pub fn get_or_build(
        &self,
        cfg: &NufftConfig,
        coords: &[[f64; 2]],
    ) -> Result<(Arc<CachedPlan>, bool)> {
        faultpoint!(crate::fault::SERVE_CACHE);
        let key = plan_key(cfg, coords);
        if let Some(hit) = self.lookup_verified(&key, |e| e.built_from(coords)) {
            return Ok((hit, true));
        }
        // Build outside the lock: concurrent misses on the same key may
        // race, but `insert` keeps a single canonical entry.
        let plan = NufftPlan::<f64, 2>::new(cfg.clone())?;
        let traj = plan.plan_trajectory(coords)?;
        let entry = Arc::new(CachedPlan {
            key,
            plan,
            traj,
            coords: coords.into(),
        });
        Ok((self.insert(entry), false))
    }

    /// Persist every resident entry's rebuild inputs to `path`
    /// atomically (temp file + rename; see
    /// [`snapshot::write_atomic`]). Entries are written
    /// least-recently-used **first** so [`Self::load_snapshot`]'s
    /// sequential replay reproduces the exact LRU order. Returns the
    /// number of entries written and counts `serve.snapshot.saves`.
    ///
    /// The entry list is cloned out under the lock (cheap: `Arc`
    /// bumps); encoding and file I/O run outside it, so a slow disk
    /// never blocks executors.
    pub fn save_snapshot(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let resident: Vec<Arc<CachedPlan>> = {
            let entries = self.lock();
            // Rear = LRU; write that first.
            entries.iter().rev().cloned().collect()
        };
        let snap: Vec<snapshot::SnapshotEntry> = resident
            .iter()
            .map(|e| snapshot::SnapshotEntry {
                cfg: e.plan.config().clone(),
                coords: Arc::clone(&e.coords),
            })
            .collect();
        let bytes = snapshot::encode_snapshot(&snap);
        snapshot::write_atomic(path, &bytes)?;
        telemetry::record_counter("serve.snapshot.saves", 1);
        Ok(snap.len())
    }

    /// Rebuild cache entries from a snapshot file, in LRU order.
    /// Returns `(loaded, skipped)`, mirrored into the
    /// `serve.snapshot.loaded` / `serve.snapshot.skipped` counters.
    ///
    /// Failure policy (the restart path must never be worse than a cold
    /// start):
    ///
    /// * missing file → `Ok((0, 0))` — a first boot, not an error;
    /// * unreadable file, garbage/short header, or unsupported version
    ///   → `Err` — the caller logs it and serves cold;
    /// * per-entry damage (checksum, framing, implausible fields), an
    ///   entry that is not a plan, or a rebuild failure/panic → that
    ///   entry is skipped, the rest load.
    ///
    /// The `serve.snapshot` fault site fires at entry, before the file
    /// is touched, so chaos runs can pin the degraded-start path.
    pub fn load_snapshot(&self, path: &std::path::Path) -> Result<(u64, u64)> {
        faultpoint!(crate::fault::SERVE_SNAPSHOT);
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => {
                return Err(crate::Error::Data(format!(
                    "cannot read snapshot {}: {e}",
                    path.display()
                )))
            }
        };
        let outcome = snapshot::decode_snapshot(&bytes)?;
        let mut loaded = 0u64;
        let mut skipped = outcome.skipped;
        if !outcome.file_checksum_ok {
            eprintln!(
                "jigsaw serve: snapshot {} file checksum mismatch; \
                 salvaging entries that verify individually",
                path.display()
            );
        }
        for entry in &outcome.entries {
            // Each rebuild replays the normal build path (validation
            // included) under panic containment: one poisoned entry
            // must not take down the warm start.
            let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.get_or_build(&entry.cfg, &entry.coords)
            }));
            match rebuilt {
                Ok(Ok(_)) => loaded += 1,
                _ => skipped += 1,
            }
        }
        if loaded > 0 {
            telemetry::record_counter("serve.snapshot.loaded", loaded);
        }
        if skipped > 0 {
            telemetry::record_counter("serve.snapshot.skipped", skipped);
        }
        Ok((loaded, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn traj(seed: u64, m: usize) -> Vec<[f64; 2]> {
        crate::traj::random_nd::<2>(m, seed)
    }

    fn cfg(n: usize) -> NufftConfig {
        NufftConfig::with_n(n)
    }

    #[test]
    fn content_hash_distinguishes_same_shape() {
        let a = traj(1, 64);
        let b = traj(2, 64);
        assert_eq!(a.len(), b.len());
        assert_ne!(trajectory_hash(&a), trajectory_hash(&b));
        assert_ne!(plan_key(&cfg(16), &a), plan_key(&cfg(16), &b));
        // Same contents, same hash.
        assert_eq!(trajectory_hash(&a), trajectory_hash(&a.clone()));
    }

    #[test]
    fn sample_order_is_part_of_identity() {
        let a = traj(3, 8);
        let mut rev = a.clone();
        rev.reverse();
        assert_ne!(trajectory_hash(&a), trajectory_hash(&rev));
    }

    #[test]
    fn auto_kernel_aliases_its_resolution() {
        let c_auto = cfg(16);
        let mut c_kb = cfg(16);
        c_kb.kernel = c_auto.resolved_kernel();
        let t = traj(4, 32);
        assert_eq!(plan_key(&c_auto, &t), plan_key(&c_kb, &t));
        // But a genuinely different kernel keys apart.
        let mut c_g = cfg(16);
        c_g.kernel = KernelKind::Gaussian { s: 1.0 };
        assert_ne!(plan_key(&c_auto, &t), plan_key(&c_g, &t));
    }

    #[test]
    fn hit_returns_the_same_plan_and_promotes() {
        let cache = PlanCache::new(2);
        let t = traj(5, 16);
        let (a, hit_a) = cache.get_or_build(&cfg(8), &t).unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_build(&cfg(8), &t).unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_lru_and_bounded() {
        let cache = PlanCache::new(2);
        // Odd, well-separated seeds: `random_nd` ors the seed with 1,
        // so consecutive even/odd pairs would alias.
        let t1 = traj(101, 8);
        let t2 = traj(201, 8);
        let t3 = traj(301, 8);
        let c = cfg(8);
        cache.get_or_build(&c, &t1).unwrap();
        cache.get_or_build(&c, &t2).unwrap();
        // Touch t1 so t2 is LRU.
        cache.get_or_build(&c, &t1).unwrap();
        cache.get_or_build(&c, &t3).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let keys = cache.keys();
        assert_eq!(keys[0].traj_hash, trajectory_hash(&t3));
        assert_eq!(keys[1].traj_hash, trajectory_hash(&t1));
        // t2 was evicted: next fetch is a miss.
        let (_, hit) = cache.get_or_build(&c, &t2).unwrap();
        assert!(!hit);
    }

    #[test]
    fn racing_insert_keeps_one_canonical_entry() {
        let cache = PlanCache::new(4);
        let t = traj(20, 8);
        let c = cfg(8);
        let key = plan_key(&c, &t);
        let build = || {
            let plan = NufftPlan::<f64, 2>::new(c.clone()).unwrap();
            let traj = plan.plan_trajectory(&t).unwrap();
            Arc::new(CachedPlan {
                key: key.clone(),
                plan,
                traj,
                coords: t.as_slice().into(),
            })
        };
        let first = cache.insert(build());
        let second = cache.insert(build());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_is_clamped_positive() {
        assert_eq!(PlanCache::new(0).capacity(), 1);
    }
}
