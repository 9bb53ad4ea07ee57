//! Durable on-disk snapshots of the serving plan cache.
//!
//! A restart — deploy, crash, OOM-kill — normally throws away every
//! cached plan and replays the cold-planning cost
//! (`BENCH_serve_soak.json` records warm/cold). This module
//! defines a versioned, hand-rolled (std-only, no serde) snapshot
//! format so [`super::PlanCache`] contents survive process lifetimes.
//!
//! ## What is persisted
//!
//! Not the built artifacts (LUTs, FFT twiddles — large,
//! layout-sensitive, and full of derived invariants) but the **rebuild
//! inputs**: the [`NufftConfig`] plus the original trajectory
//! coordinates of every resident plan. Loading replays
//! [`super::PlanCache::get_or_build`] per entry, so a loaded entry is
//! bit-identical to a freshly built one by construction, every existing
//! validation path runs again at load time, and a snapshot written by an
//! older build stays loadable as long as the inputs parse. The first
//! identical post-restart request is then a genuine plan-cache hit.
//!
//! ## Wire format (all little-endian)
//!
//! ```text
//! magic    [u8; 4] = "JGSP"
//! version  u32     = 1
//! count    u32     (declared entry count)
//! entries  count × {
//!     body_len  u32
//!     body      body_len bytes:
//!         kind       u8   (1 = plan)
//!         n          u64
//!         sigma      u64  (f64 bits)
//!         width      u64
//!         table_os   u64
//!         tile       u64
//!         kernel     u8   (family code, see `KernelKind::code`)
//!         kernel_par u64  (f64 bits of the shape parameter)
//!         m          u32  (sample count)
//!         coords     m × 2 × u64 (f64 bits, kx then ky)
//!         w          u32  (weight count; 0 for plan entries)
//!         weights    w × u64 (f64 bits)
//!     checksum  u64  (FNV-1a over body)
//! }
//! file_checksum u64 (FNV-1a over everything above)
//! ```
//!
//! Both checksums are FNV-1a with offset basis `0xcbf2_9ce4_8422_2325`
//! and multiplier `0x1000_0000_01b3`, which is not the published 64-bit
//! FNV prime (`0x100_0000_01b3`); v1 files carry it.
//!
//! Every entry written is a plan: kind 1, weight count 0. Earlier builds
//! also wrote kind 2 entries (a precomputed operator kernel, with
//! weights); the cache holds plans only, so the decoder skips any entry
//! whose kind is not 1 or whose weight count is not 0, and a v1 file
//! holding such entries still restores its plans.
//!
//! Entries are written least-recently-used **first**, so replaying the
//! file in order and inserting at the MRU position reproduces the exact
//! LRU order (and a snapshot larger than the loading cache's capacity
//! degrades correctly: the most recent entries win).
//!
//! ## Corruption policy
//!
//! Decoding never panics on attacker-shaped bytes. A file too short for
//! the header, a magic mismatch, or an unsupported version is an
//! [`Error::Data`] — the caller degrades to a cold start. Past the
//! header, damage is contained per entry: a torn tail, a bad body
//! length, an entry-checksum mismatch, or an implausible field skips
//! that entry (counted by the caller as `serve.snapshot.skipped`) while
//! salvaging the rest. A whole-file checksum mismatch is reported but
//! does not discard entries whose own checksums verify.

use crate::config::NufftConfig;
use crate::kernel::KernelKind;
use crate::{Error, Result};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"JGSP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Entry kind of a plan (config + trajectory), the only kind loaded.
const ENTRY_PLAN: u8 = 1;

/// Implausibility bound on the persisted grid size (the live protocol
/// caps `n` at 2048; the snapshot bound leaves headroom without letting
/// a flipped bit demand a petabyte plan at load).
const MAX_SNAPSHOT_N: u64 = 8192;

/// Implausibility bound on per-entry sample counts (64 Mi samples).
const MAX_SNAPSHOT_SAMPLES: u64 = 1 << 26;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Little-endian u32 from the first 4 bytes of `bytes` (caller has
/// already bounds-checked the slice).
fn u32_at(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// Little-endian u64 from the first 8 bytes of `bytes`.
fn u64_at(bytes: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(a)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The rebuild inputs of one cached plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The configuration the plan was built from.
    pub cfg: NufftConfig,
    /// Original (pre-wrap) trajectory coordinates.
    pub coords: Arc<[[f64; 2]]>,
}

/// What [`decode_snapshot`] recovered from a byte buffer.
#[derive(Debug)]
pub struct DecodeOutcome {
    /// Entries that passed framing, checksum, and plausibility checks,
    /// in file (LRU-first) order.
    pub entries: Vec<SnapshotEntry>,
    /// Entries (or, for an unsupported version, the whole declared set)
    /// that had to be discarded.
    pub skipped: u64,
    /// Whether the trailing whole-file checksum was present and
    /// matched. Salvaged entries are returned even when it did not.
    pub file_checksum_ok: bool,
}

fn encode_entry_body(entry: &SnapshotEntry, out: &mut Vec<u8>) {
    out.push(ENTRY_PLAN);
    out.extend_from_slice(&(entry.cfg.n as u64).to_le_bytes());
    out.extend_from_slice(&entry.cfg.sigma.to_bits().to_le_bytes());
    out.extend_from_slice(&(entry.cfg.width as u64).to_le_bytes());
    out.extend_from_slice(&(entry.cfg.table_oversampling as u64).to_le_bytes());
    out.extend_from_slice(&(entry.cfg.tile as u64).to_le_bytes());
    let (code, param) = entry.cfg.kernel.code();
    out.push(code);
    out.extend_from_slice(&param.to_bits().to_le_bytes());
    out.extend_from_slice(&(entry.coords.len() as u32).to_le_bytes());
    for c in entry.coords.iter() {
        out.extend_from_slice(&c[0].to_bits().to_le_bytes());
        out.extend_from_slice(&c[1].to_bits().to_le_bytes());
    }
    // Weight count: plans carry none.
    out.extend_from_slice(&0u32.to_le_bytes());
}

/// Serialize a snapshot. Entries must already be in LRU-first order.
pub fn encode_snapshot(entries: &[SnapshotEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + entries.len() * 256);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    let mut body = Vec::new();
    for entry in entries {
        body.clear();
        encode_entry_body(entry, &mut body);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a(FNV_OFFSET, &body).to_le_bytes());
    }
    let file_sum = fnv1a(FNV_OFFSET, &out);
    out.extend_from_slice(&file_sum.to_le_bytes());
    out
}

/// Bounds-checked little-endian reader over an entry body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut a = [0u8; 8];
            a.copy_from_slice(s);
            u64::from_le_bytes(a)
        })
    }

    fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parse one entry body. `None` means the entry is damaged,
/// implausible, or not a plan, and must be skipped.
fn decode_entry_body(body: &[u8]) -> Option<SnapshotEntry> {
    let mut c = Cursor::new(body);
    if c.u8()? != ENTRY_PLAN {
        return None;
    }
    let n = c.u64()?;
    let sigma = c.f64_bits()?;
    let width = c.u64()?;
    let table_oversampling = c.u64()?;
    let tile = c.u64()?;
    let disc = c.u8()?;
    let param = c.f64_bits()?;
    if n == 0 || n > MAX_SNAPSHOT_N {
        return None;
    }
    if !sigma.is_finite() || sigma <= 1.0 || sigma > 16.0 {
        return None;
    }
    if width == 0 || width > 64 || table_oversampling == 0 || table_oversampling > 65536 {
        return None;
    }
    if tile == 0 || tile > 4096 {
        return None;
    }
    let kernel = KernelKind::from_code(disc, param)?;
    let m = c.u32()? as u64;
    if m == 0 || m > MAX_SNAPSHOT_SAMPLES {
        return None;
    }
    // The body must be exactly large enough for the declared counts —
    // a flipped count bit fails here instead of allocating blindly.
    let mut coords = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let kx = c.f64_bits()?;
        let ky = c.f64_bits()?;
        coords.push([kx, ky]);
    }
    // Plans carry no weights.
    if c.u32()? != 0 || !c.exhausted() {
        return None;
    }
    Some(SnapshotEntry {
        cfg: NufftConfig {
            n: n as usize,
            sigma,
            width: width as usize,
            table_oversampling: table_oversampling as usize,
            tile: tile as usize,
            kernel,
        },
        coords: coords.into(),
    })
}

/// Decode a snapshot buffer, salvaging what the corruption policy
/// allows. `Err` only for an unusable prefix (short/garbage header or
/// unsupported version) — per-entry damage lands in
/// [`DecodeOutcome::skipped`] instead.
pub fn decode_snapshot(bytes: &[u8]) -> Result<DecodeOutcome> {
    if bytes.len() < 12 {
        return Err(Error::Data(format!(
            "snapshot too short for header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(Error::Data("snapshot magic mismatch".into()));
    }
    let version = u32_at(&bytes[4..8]);
    let declared = u32_at(&bytes[8..12]) as u64;
    if version != SNAPSHOT_VERSION {
        return Err(Error::Data(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION}, \
             {declared} declared entries discarded)"
        )));
    }
    let mut entries = Vec::new();
    let mut skipped = 0u64;
    let mut pos = 12usize;
    let mut parsed = 0u64;
    while parsed < declared {
        // Entry framing: body_len, body, checksum. A torn tail stops
        // the walk; everything not yet parsed counts as skipped.
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            skipped += declared - parsed;
            break;
        };
        let body_len = u32_at(len_bytes) as usize;
        let body_start = pos + 4;
        let Some(body_end) = body_start.checked_add(body_len) else {
            skipped += declared - parsed;
            break;
        };
        // The body and its 8-byte checksum must fit in the buffer. The
        // length field itself is untrusted, so on a violation there is
        // no way to resynchronize: stop and skip the rest.
        if body_end.checked_add(8).is_none_or(|e| e > bytes.len()) {
            skipped += declared - parsed;
            break;
        }
        let body = &bytes[body_start..body_end];
        let sum = u64_at(&bytes[body_end..body_end + 8]);
        pos = body_end + 8;
        parsed += 1;
        if fnv1a(FNV_OFFSET, body) != sum {
            skipped += 1;
            continue;
        }
        match decode_entry_body(body) {
            Some(entry) => entries.push(entry),
            None => skipped += 1,
        }
    }
    let file_checksum_ok = match bytes.get(pos..pos + 8) {
        Some(tail) if pos + 8 == bytes.len() => u64_at(tail) == fnv1a(FNV_OFFSET, &bytes[..pos]),
        _ => false,
    };
    Ok(DecodeOutcome {
        entries,
        skipped,
        file_checksum_ok,
    })
}

/// Write `bytes` to `path` atomically: a temp file in the same
/// directory (same filesystem, so the rename cannot cross devices) is
/// written, flushed, and renamed over the target. A reader therefore
/// sees either the old snapshot or the new one, never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("snapshot path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::cache::{plan_key, PlanCache};

    fn entry(seed: u64, m: usize) -> SnapshotEntry {
        SnapshotEntry {
            cfg: NufftConfig::with_n(16),
            coords: crate::traj::random_nd::<2>(m, seed).into(),
        }
    }

    fn le(bits: u64) -> [u8; 8] {
        bits.to_le_bytes()
    }

    /// `entry`'s body re-tagged as `kind` and carrying `weights`, the
    /// way earlier builds wrote kind-2 entries.
    fn body_with(entry: &SnapshotEntry, kind: u8, weights: &[f64]) -> Vec<u8> {
        let mut body = Vec::new();
        encode_entry_body(entry, &mut body);
        body[0] = kind;
        body.truncate(body.len() - 4);
        body.extend_from_slice(&(weights.len() as u32).to_le_bytes());
        for w in weights {
            body.extend_from_slice(&le(w.to_bits()));
        }
        body
    }

    /// A v1 file framing `bodies`, each with its checksum.
    fn v1_file(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(bodies.len() as u32).to_le_bytes());
        for body in bodies {
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(body);
            out.extend_from_slice(&le(fnv1a(FNV_OFFSET, body)));
        }
        let sum = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&le(sum));
        out
    }

    #[test]
    fn plan_entry_bytes_follow_the_layout_table() {
        let plan = SnapshotEntry {
            cfg: NufftConfig::with_n(16),
            coords: vec![[0.25, -0.5], [1.5, -0.0]].into(),
        };
        let mut body = vec![1]; // kind: plan
        body.extend_from_slice(&[16, 0, 0, 0, 0, 0, 0, 0]); // n
        body.extend_from_slice(&le(0x4000_0000_0000_0000)); // sigma 2.0
        body.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0]); // width
        body.extend_from_slice(&[32, 0, 0, 0, 0, 0, 0, 0]); // table_os
        body.extend_from_slice(&[8, 0, 0, 0, 0, 0, 0, 0]); // tile
        body.push(0); // kernel: Auto
        body.extend_from_slice(&le(0)); // kernel_par
        body.extend_from_slice(&[2, 0, 0, 0]); // m
        for b in [
            0x3FD0_0000_0000_0000, // 0.25
            0xBFE0_0000_0000_0000, // -0.5
            0x3FF8_0000_0000_0000, // 1.5
            0x8000_0000_0000_0000, // -0.0
        ] {
            body.extend_from_slice(&le(b));
        }
        body.extend_from_slice(&[0, 0, 0, 0]); // w
        assert_eq!(body.len(), 90);

        let mut want = vec![b'J', b'G', b'S', b'P', 1, 0, 0, 0, 1, 0, 0, 0];
        want.extend_from_slice(&[90, 0, 0, 0]); // body_len
        want.extend_from_slice(&body);
        want.extend_from_slice(&le(0x6F6F_2332_994D_BC01)); // checksum
        want.extend_from_slice(&le(0x0B9A_682B_71FE_B9B1)); // file_checksum
        assert_eq!(encode_snapshot(&[plan]), want);
    }

    #[test]
    fn round_trip_is_bitwise() {
        let entries = vec![entry(1, 24), entry(3, 8), entry(5, 1)];
        let bytes = encode_snapshot(&entries);
        let out = decode_snapshot(&bytes).unwrap();
        assert_eq!(out.skipped, 0);
        assert!(out.file_checksum_ok);
        assert_eq!(out.entries.len(), entries.len());
        for (a, b) in out.entries.iter().zip(&entries) {
            assert_eq!(a.cfg, b.cfg);
            for (ca, cb) in a.coords.iter().zip(b.coords.iter()) {
                assert_eq!(ca[0].to_bits(), cb[0].to_bits());
                assert_eq!(ca[1].to_bits(), cb[1].to_bits());
            }
        }
    }

    #[test]
    fn v1_kernel_entries_are_skipped_and_plans_restore_in_lru_order() {
        let (a, kernel, b) = (entry(1, 12), entry(3, 8), entry(5, 10));
        let weights: Vec<f64> = (0..8).map(|i| 0.5 + i as f64 * 0.125).collect();
        let bytes = v1_file(&[
            body_with(&a, ENTRY_PLAN, &[]),
            body_with(&kernel, 2, &weights),
            body_with(&b, ENTRY_PLAN, &[]),
        ]);
        let path =
            std::env::temp_dir().join(format!("jigsaw-snap-v1-kernels-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let cache = PlanCache::new(4);
        let loaded = cache.load_snapshot(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.unwrap(), (2, 1));
        assert_eq!(
            cache.keys(),
            vec![plan_key(&b.cfg, &b.coords), plan_key(&a.cfg, &a.coords)],
            "most recently used first"
        );
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = encode_snapshot(&[]);
        let out = decode_snapshot(&bytes).unwrap();
        assert!(out.entries.is_empty());
        assert_eq!(out.skipped, 0);
        assert!(out.file_checksum_ok);
    }

    #[test]
    fn header_damage_is_an_error() {
        assert!(decode_snapshot(&[]).is_err());
        assert!(decode_snapshot(b"JGSPxx").is_err());
        assert!(decode_snapshot(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00").is_err());
        // Version bump: whole file refused with the declared count in
        // the message.
        let mut bytes = encode_snapshot(&[entry(1, 4)]);
        bytes[4] = 99;
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn flipped_body_bit_skips_only_that_entry() {
        let entries = vec![entry(1, 16), entry(3, 16)];
        let mut bytes = encode_snapshot(&entries);
        // Flip a bit inside the first entry's body (past the 12-byte
        // header and 4-byte body length).
        bytes[12 + 4 + 20] ^= 0x10;
        let out = decode_snapshot(&bytes).unwrap();
        assert_eq!(out.skipped, 1);
        assert_eq!(out.entries.len(), 1);
        assert_eq!(
            out.entries[0].coords.len(),
            16,
            "surviving entry must be the undamaged one"
        );
        assert!(!out.file_checksum_ok);
    }

    #[test]
    fn truncation_never_panics_and_counts_skips() {
        let entries = vec![entry(1, 8), entry(3, 8)];
        let bytes = encode_snapshot(&entries);
        for cut in 12..bytes.len() {
            let out = decode_snapshot(&bytes[..cut]).unwrap();
            assert_eq!(out.entries.len() as u64 + out.skipped, 2, "cut={cut}");
            assert!(!out.file_checksum_ok, "cut={cut}");
        }
    }

    #[test]
    fn implausible_fields_are_skipped() {
        let mut e = entry(1, 4);
        e.cfg.n = 1 << 20; // beyond MAX_SNAPSHOT_N
        let out = decode_snapshot(&encode_snapshot(&[e])).unwrap();
        assert_eq!(out.entries.len(), 0);
        assert_eq!(out.skipped, 1);

        let mut e = entry(1, 4);
        e.cfg.sigma = f64::NAN;
        let out = decode_snapshot(&encode_snapshot(&[e])).unwrap();
        assert_eq!(out.skipped, 1);

        // Plan entries must not carry weights.
        let bytes = v1_file(&[body_with(&entry(1, 4), ENTRY_PLAN, &[1.0; 4])]);
        let out = decode_snapshot(&bytes).unwrap();
        assert_eq!((out.entries.len(), out.skipped), (0, 1));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_temp() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("jigsaw-snap-atomic-{}.bin", std::process::id()));
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No stray temp files for this pid remain.
        let tmp = path.with_file_name(format!(
            "jigsaw-snap-atomic-{0}.bin.tmp.{0}",
            std::process::id()
        ));
        assert!(!tmp.exists());
        let _ = std::fs::remove_file(&path);
    }
}
