//! Serving-layer cache and concurrency properties, tested against the
//! in-process [`ServeEngine`] (the same object the daemon multiplexes
//! jobs onto — the transport adds framing, not numerics):
//!
//! 1. **Concurrent correctness** — N client threads with overlapping
//!    trajectories each get results *bitwise identical* to a cold
//!    single-shot `adjoint(..., &SerialGridder)` run, regardless of
//!    cache hits, races between plan builders, or eviction pressure.
//! 2. **LRU discipline** — the plan cache's eviction order and capacity
//!    bound match a reference model under randomized access traces.
//! 3. **Hit ≡ miss** — a cache hit returns the same bytes as the cache
//!    miss that built the plan, including a rebuild after eviction.
//! 4. **No stale plans** — trajectories with identical shape but
//!    different contents never alias to the same cache entry
//!    (regression: the key hashes full trajectory contents, not just
//!    sample count and config).
//! 5. **Snapshot round-trip** — encode → decode of the durable
//!    plan-cache snapshot is lossless to the bit, under randomized
//!    entry sets; a cache persisted and restored through a real file
//!    serves the same request as a hit with bitwise-identical output.
//! 6. **Snapshot damage** — randomized truncation and bit flips never
//!    panic the loader; every declared entry is either restored or
//!    counted skipped, and version damage degrades to an error (cold
//!    start), never a crash.
//! 7. **Input hygiene** — non-finite k-space sample values are rejected
//!    with a data error before they can reach a plan or a persisted
//!    snapshot.
//! 8. **Verified hits** — an entry resident under a request's key but
//!    built from another trajectory (a hash collision) is a miss, and
//!    the rebuilt entry replaces it.

use jigsaw::core::budget::RunBudget;
use jigsaw::core::gridding::SerialGridder;
use jigsaw::core::serve::{
    decode_snapshot, encode_snapshot, plan_key, trajectory_hash, CachedPlan, JobRequest, PlanCache,
    Priority, ServeEngine, SnapshotEntry,
};
use jigsaw::core::{NufftConfig, NufftPlan};
use jigsaw::num::C64;
use jigsaw_testkit::{cases, Rng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;

/// A finite trajectory over the `[0, n)^2` torus plus matching sample
/// values, drawn deterministically from `seed`. Distinct seeds give
/// distinct contents (checked where it matters).
fn problem(n: usize, m: usize, seed: u64) -> (Vec<[f64; 2]>, Vec<C64>) {
    let mut rng = Rng::new(seed);
    let g = n as f64;
    let coords: Vec<[f64; 2]> = (0..m)
        .map(|_| [rng.f64_range(0.0, g), rng.f64_range(0.0, g)])
        .collect();
    let values: Vec<C64> = (0..m)
        .map(|_| C64::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0)))
        .collect();
    (coords, values)
}

fn request(tag: u64, n: usize, coords: &[[f64; 2]], values: &[C64]) -> JobRequest {
    JobRequest {
        tag,
        priority: Priority::Normal,
        n: n as u32,
        budget_ms: 0,
        coords: coords.to_vec(),
        values: values.to_vec(),
    }
}

/// Cold single-shot reference: fresh plan, serial gridder, no cache.
fn cold_reference(n: usize, coords: &[[f64; 2]], values: &[C64]) -> Vec<C64> {
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(n)).unwrap();
    plan.adjoint(coords, values, &SerialGridder).unwrap().image
}

fn bits_eq(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Property 1: concurrent clients with overlapping trajectories are
/// bitwise identical to cold single-shot runs. The cache capacity is
/// smaller than the trajectory pool, so the trace exercises hits,
/// misses, racing builds of the same key, and evict-then-rebuild.
#[test]
fn concurrent_clients_match_cold_single_shot_bitwise() {
    const N: usize = 16;
    const CLIENTS: usize = 6;
    const JOBS_PER_CLIENT: usize = 4;
    // Four trajectories shared by all clients; capacity 2 forces churn.
    let pool: Vec<(Vec<[f64; 2]>, Vec<C64>)> = (0..4).map(|i| problem(N, 60, 1001 + i)).collect();
    let cold: Vec<Vec<C64>> = pool.iter().map(|(c, v)| cold_reference(N, c, v)).collect();

    let engine = Arc::new(ServeEngine::new(2));
    let outputs: Vec<Vec<(usize, Vec<C64>)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = Arc::clone(&engine);
                let pool = &pool;
                s.spawn(move || {
                    (0..JOBS_PER_CLIENT)
                        .map(|j| {
                            // Stagger the access pattern per client so
                            // threads race on different keys.
                            let which = (c + j) % pool.len();
                            let (coords, values) = &pool[which];
                            let req = request((c * 100 + j) as u64, N, coords, values);
                            let res = engine
                                .execute(&req, &RunBudget::unlimited())
                                .unwrap_or_else(|e| panic!("client {c} job {j}: {}", e.message));
                            assert_eq!(res.tag, req.tag, "results must keep their tag");
                            (which, res.image)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, client_results) in outputs.iter().enumerate() {
        for (j, (which, image)) in client_results.iter().enumerate() {
            assert!(
                bits_eq(image, &cold[*which]),
                "client {c} job {j} (trajectory {which}) diverged from the cold serial run"
            );
        }
    }
    let cache = engine.cache();
    assert!(cache.len() <= 2, "capacity bound violated: {}", cache.len());
    assert!(cache.hits() + cache.misses() >= (CLIENTS * JOBS_PER_CLIENT) as u64);
}

/// Property 2: the cache's LRU behaviour matches a reference model —
/// promote on hit, insert at MRU on miss, evict from the LRU end, never
/// exceed capacity — under randomized access traces.
#[test]
fn lru_eviction_order_and_capacity_match_model() {
    const N: usize = 8;
    cases!(8, |rng| {
        let capacity = rng.usize_range(1, 5);
        let cache = PlanCache::new(capacity);
        let cfg = NufftConfig::with_n(N);
        // A pool of distinct trajectories (distinct contents ⇒ distinct
        // keys), larger than the capacity so evictions must happen.
        let base = rng.u64();
        let pool: Vec<Vec<[f64; 2]>> = (0..capacity + 3)
            .map(|i| problem(N, 12, base.wrapping_add(7919 * i as u64)).0)
            .collect();
        let keys: Vec<_> = pool.iter().map(|c| plan_key(&cfg, c)).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "trajectory pool must have distinct keys");
            }
        }

        // Reference model: front = MRU.
        let mut model: VecDeque<usize> = VecDeque::new();
        let mut model_evictions = 0u64;
        let ops = rng.usize_range(10, 30);
        for _ in 0..ops {
            let which = rng.usize_range(0, pool.len());
            let (_, hit) = cache.get_or_build(&cfg, &pool[which]).unwrap();
            let modelled_hit = model.contains(&which);
            assert_eq!(
                hit, modelled_hit,
                "hit/miss disagrees with model for trajectory {which}"
            );
            if let Some(pos) = model.iter().position(|&k| k == which) {
                model.remove(pos);
            }
            model.push_front(which);
            while model.len() > capacity {
                model.pop_back();
                model_evictions += 1;
            }

            assert!(cache.len() <= capacity, "capacity bound violated");
            let want: Vec<_> = model.iter().map(|&k| keys[k].clone()).collect();
            assert_eq!(cache.keys(), want, "MRU→LRU order diverged from model");
        }
        assert_eq!(cache.evictions(), model_evictions, "eviction count");
        assert_eq!(
            cache.hits() + cache.misses(),
            ops as u64,
            "every access is either a hit or a miss"
        );
    });
}

/// Property 3: a cache hit is bitwise identical to the miss that built
/// the plan — and to a rebuild after the entry was evicted.
#[test]
fn cache_hit_output_equals_cache_miss_output_bitwise() {
    const N: usize = 16;
    let (coords_a, values_a) = problem(N, 80, 31);
    let (coords_b, _) = problem(N, 80, 97);
    let engine = ServeEngine::new(1);
    let req = request(1, N, &coords_a, &values_a);

    let miss = engine.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(!miss.cache_hit);
    let hit = engine.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(hit.cache_hit, "second identical job must hit the cache");
    assert!(bits_eq(&miss.image, &hit.image), "hit must equal miss");

    // Evict A (capacity 1) by planning B, then rebuild A from scratch.
    let (_, b_hit) = engine
        .cache()
        .get_or_build(&NufftConfig::with_n(N), &coords_b)
        .unwrap();
    assert!(!b_hit);
    let rebuilt = engine.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(!rebuilt.cache_hit, "A must have been evicted");
    assert!(
        bits_eq(&miss.image, &rebuilt.image),
        "rebuilt plan must reproduce the original bytes"
    );
    assert_eq!(engine.cache().evictions(), 2);
}

/// Property 4 (stale-plan regression): same-shape, different-content
/// trajectories never alias. The cache key hashes every coordinate bit,
/// so changing a single sample — or merely reordering samples — yields
/// a distinct key and a fresh plan.
#[test]
fn same_shape_different_content_trajectories_never_alias() {
    const N: usize = 16;
    let cfg = NufftConfig::with_n(N);
    let (coords, values) = problem(N, 64, 11);

    // One-ULP change in one coordinate: different key.
    let mut nudged = coords.clone();
    nudged[40][1] = f64::from_bits(nudged[40][1].to_bits() ^ 1);
    assert_ne!(trajectory_hash(&coords), trajectory_hash(&nudged));
    assert_ne!(plan_key(&cfg, &coords), plan_key(&cfg, &nudged));

    // Same multiset of samples, different order: different key (the
    // planned decomposition is order-dependent).
    let mut swapped = coords.clone();
    swapped.swap(0, 1);
    assert_ne!(trajectory_hash(&coords), trajectory_hash(&swapped));

    // End to end: submitting the nudged trajectory after the original
    // must be a cache miss and must not reuse the stale plan's output.
    let engine = ServeEngine::new(4);
    let original = engine
        .execute(&request(1, N, &coords, &values), &RunBudget::unlimited())
        .unwrap();
    assert!(!original.cache_hit);
    let nudged_res = engine
        .execute(&request(2, N, &nudged, &values), &RunBudget::unlimited())
        .unwrap();
    assert!(
        !nudged_res.cache_hit,
        "different trajectory contents must never hit a stale plan"
    );
    assert_eq!(engine.cache().len(), 2, "both plans must be resident");
    assert!(
        bits_eq(&nudged_res.image, &cold_reference(N, &nudged, &values)),
        "nudged trajectory must be gridded with its own plan"
    );
    assert!(
        bits_eq(&original.image, &cold_reference(N, &coords, &values)),
        "original result must match its own cold run"
    );
}

/// Property 8: the key alone never decides a hit. An entry stored under
/// trajectory A's key but built from trajectory B (what a
/// `trajectory_hash` collision would leave behind) must not serve A: the
/// job reports a miss, returns A's cold serial image bit for bit, and
/// its rebuilt entry replaces the impostor.
#[test]
fn colliding_entry_is_a_miss_and_is_replaced() {
    const N: usize = 16;
    let cfg = NufftConfig::with_n(N);
    let (coords_a, values_a) = problem(N, 80, 41);
    let (coords_b, _) = problem(N, 80, 43);
    let engine = ServeEngine::new(4);
    let plan = NufftPlan::<f64, 2>::new(cfg.clone()).unwrap();
    let impostor = Arc::new(CachedPlan {
        key: plan_key(&cfg, &coords_a),
        traj: plan.plan_trajectory(&coords_b).unwrap(),
        plan,
        coords: coords_b.as_slice().into(),
    });
    engine.cache().insert(Arc::clone(&impostor));

    let req = request(1, N, &coords_a, &values_a);
    let res = engine.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(!res.cache_hit, "an entry built from B must not serve A");
    assert!(
        bits_eq(&res.image, &cold_reference(N, &coords_a, &values_a)),
        "A must be gridded with its own plan"
    );
    assert_eq!(engine.cache().len(), 1, "the rebuilt entry replaces B's");
    assert_eq!(engine.cache().hits(), 0);

    let again = engine.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(again.cache_hit, "A's own entry now serves A");
    assert!(bits_eq(&again.image, &res.image));
}

/// A randomized snapshot-entry set: plan entries with assorted shapes.
fn random_entries(rng: &mut Rng) -> Vec<SnapshotEntry> {
    let count = rng.usize_range(1, 5);
    (0..count)
        .map(|_| {
            let n = *rng.choose(&[8usize, 16, 24]);
            let m = rng.usize_range(4, 40);
            SnapshotEntry {
                cfg: NufftConfig::with_n(n),
                coords: problem(n, m, rng.u64()).0.into(),
            }
        })
        .collect()
}

/// Property 5a: encode → decode is bitwise lossless for arbitrary
/// well-formed entry sets — every field of every entry survives, in
/// order, with the file checksum intact.
#[test]
fn snapshot_round_trip_is_bitwise_lossless() {
    cases!(16, |rng| {
        let entries = random_entries(rng);
        let bytes = encode_snapshot(&entries);
        let out = decode_snapshot(&bytes).expect("well-formed snapshot must decode");
        assert_eq!(out.skipped, 0);
        assert!(out.file_checksum_ok);
        assert_eq!(out.entries, entries, "round trip must be bitwise");
    });
}

/// Property 5b: persist → restore through a real file, end to end. The
/// restored cache must serve the original request as a *hit* whose
/// image is bitwise identical to the pre-restart (and cold) output.
#[test]
fn restored_cache_serves_bitwise_identical_hits() {
    const N: usize = 16;
    let (coords, values) = problem(N, 70, 555);
    let req = request(1, N, &coords, &values);
    let path = std::env::temp_dir().join(format!(
        "jigsaw-serve-cache-restore-{}.snap",
        std::process::id()
    ));

    let engine = ServeEngine::new(4);
    let before = engine.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(!before.cache_hit);
    let saved = engine.cache().save_snapshot(&path).unwrap();
    assert_eq!(saved, 1);

    let restarted = ServeEngine::new(4);
    let (loaded, skipped) = restarted.cache().load_snapshot(&path).unwrap();
    assert_eq!((loaded, skipped), (1, 0));
    let after = restarted.execute(&req, &RunBudget::unlimited()).unwrap();
    assert!(after.cache_hit, "restored plan must serve as a cache hit");
    assert!(
        bits_eq(&before.image, &after.image),
        "post-restore output must be bitwise identical"
    );
    assert!(
        bits_eq(&after.image, &cold_reference(N, &coords, &values)),
        "post-restore output must match the cold serial reference"
    );
    let _ = std::fs::remove_file(&path);
}

/// Property 6a: truncating a snapshot at any byte never panics the
/// decoder, and the accounting never loses an entry — everything
/// declared is either restored intact or counted skipped.
#[test]
fn truncated_snapshots_never_panic_and_account_for_every_entry() {
    cases!(8, |rng| {
        let entries = random_entries(rng);
        let bytes = encode_snapshot(&entries);
        let cut = rng.usize_range(0, bytes.len());
        match decode_snapshot(&bytes[..cut]) {
            Err(_) => {} // header damage: cold start
            Ok(out) => {
                assert_eq!(
                    out.entries.len() as u64 + out.skipped,
                    entries.len() as u64,
                    "cut at {cut}: every declared entry restored or skipped"
                );
                for e in &out.entries {
                    assert!(entries.contains(e), "salvaged entries must be genuine");
                }
            }
        }
    });
}

/// Property 6b: flipping any single bit never panics the decoder and
/// never *invents* entries — survivors are bitwise-genuine, casualties
/// are counted, and header/version damage degrades to an error.
#[test]
fn bit_flips_never_panic_and_survivors_are_genuine() {
    cases!(8, |rng| {
        let entries = random_entries(rng);
        let mut bytes = encode_snapshot(&entries);
        let pos = rng.usize_range(0, bytes.len());
        bytes[pos] ^= 1 << rng.usize_range(0, 8);
        match decode_snapshot(&bytes) {
            Err(_) => {} // magic/version damage: cold start
            Ok(out) => {
                assert!(out.entries.len() <= entries.len());
                for e in &out.entries {
                    assert!(
                        entries.contains(e),
                        "bit flip at byte {pos} produced a forged entry"
                    );
                }
            }
        }
    });
}

/// Property 6c: a future format version is refused outright (`Err`, so
/// the daemon cold-starts) — stale readers must never guess at a layout
/// they do not understand.
#[test]
fn future_snapshot_version_is_refused() {
    let entries = random_entries(&mut Rng::new(42));
    let mut bytes = encode_snapshot(&entries);
    bytes[4..8].copy_from_slice(&(jigsaw::core::serve::SNAPSHOT_VERSION + 1).to_le_bytes());
    let err = decode_snapshot(&bytes).expect_err("future version must be an error");
    assert!(
        err.to_string().contains("unsupported snapshot version"),
        "{err}"
    );
}

/// Property 7: non-finite sample values are rejected with a tagged data
/// error at submit time — under every priority and for any poisoned
/// index — and never touch the plan cache.
#[test]
fn non_finite_sample_values_are_rejected_as_data_errors() {
    use jigsaw::core::serve::ErrorCategory;
    const N: usize = 8;
    cases!(8, |rng| {
        let m = rng.usize_range(4, 30);
        let (coords, mut values) = problem(N, m, rng.u64());
        let poison = *rng.choose(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let i = rng.usize_range(0, m);
        if rng.usize_range(0, 2) == 0 {
            values[i] = C64::new(poison, values[i].im);
        } else {
            values[i] = C64::new(values[i].re, poison);
        }
        let engine = ServeEngine::new(2);
        let err = engine
            .execute(&request(3, N, &coords, &values), &RunBudget::unlimited())
            .expect_err("poisoned values must be refused");
        assert_eq!(err.category, ErrorCategory::Data, "{}", err.message);
        assert!(
            err.message.contains("non-finite sample value"),
            "{}",
            err.message
        );
        assert_eq!(
            engine.cache().len(),
            0,
            "rejected jobs must not populate the cache"
        );
    });
}

/// `cases!` property: any two trajectories drawn with different
/// contents get different hashes (smoke-level collision resistance for
/// the FNV-based key, over small perturbations where it matters).
#[test]
fn trajectory_hash_separates_nearby_trajectories() {
    cases!(16, |rng| {
        let n = *rng.choose(&[8usize, 16]);
        let m = rng.usize_range(4, 40);
        let (coords, _) = problem(n, m, rng.u64());
        let mut other = coords.clone();
        let i = rng.usize_range(0, m);
        let axis = rng.usize_range(0, 2);
        other[i][axis] = f64::from_bits(other[i][axis].to_bits() ^ (1 << rng.usize_range(0, 52)));
        if other[i][axis].to_bits() != coords[i][axis].to_bits() {
            assert_ne!(
                trajectory_hash(&coords),
                trajectory_hash(&other),
                "single-bit perturbation at sample {i} axis {axis} must change the hash"
            );
        }
    });
}
