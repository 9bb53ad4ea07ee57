//! The `jigsaw serve` wire protocol: length-prefixed binary frames.
//!
//! The daemon speaks a std-only, little-endian framing over any byte
//! stream (a local Unix socket, or stdin/stdout in `--stdio` mode). Every
//! frame is:
//!
//! ```text
//! magic "JGSW" (4) · version u8 · kind u8 · payload_len u32 · payload
//! ```
//!
//! Payload layouts (all integers little-endian, all floats IEEE-754
//! `f64` bit patterns):
//!
//! | kind | frame      | payload                                          |
//! |------|------------|--------------------------------------------------|
//! | 1    | `Submit`   | tag u64 · priority u8 · 0 u8 · n u32 · budget_ms u32 · m u32 · m×(kx,ky) f64 · m×(re,im) f64 |
//! | 2    | `Result`   | tag u64 · cache_hit u8 · 0 u8 · n u32 · n²×(re,im) f64 |
//! | 3    | `Error`    | tag u64 · category u8 · 0 u8 · msg_len u32 · msg UTF-8 |
//! | 4    | `Ping`     | (empty)                                          |
//! | 5    | `Pong`     | (empty)                                          |
//! | 6    | `Shutdown` | (empty)                                          |
//! | 7    | `StatsRequest` | (empty)                                      |
//! | 8    | `StatsReply`   | versioned [`StatsSnapshot`] (layout below)   |
//! | 9    | `Overloaded`   | tag u64 · reason u8 · 0 u8 · retry_after_ms u32 · msg_len u32 · msg UTF-8 |
//! | 10   | `Drain`    | (empty)                                          |
//!
//! The `StatsReply` payload (strings are `u32` length + UTF-8 bytes;
//! histograms are `count u64 · sum u64 · nb u32 · nb×(lo u64 · hi u64 ·
//! c u64)`):
//!
//! ```text
//! stats_version u32 · uptime_ns u64 · queue_depth u32 · queue_high u32
//! · cache (hits u64 · misses u64 · evictions u64 · len u32 · capacity u32)
//! · nw u32 · nw×(busy_ns u64 · jobs u64)
//! · nwin u32 · nwin×(name str · window_ns u64 · hist)
//! · nc u32 · nc×(name str · value u64)
//! · ng u32 · ng×(name str · value f64)
//! · nh u32 · nh×(name str · hist)
//! · nf u32 · nf×(ts_ns u64 · kind u8 · request_id u64 · tag u64 · detail str)
//! ```
//!
//! `Submit` and `Result` frames carry their arrays in bulk, and one
//! serializer and one deserializer move them. [`read_frame`] reads the
//! fixed fields and checks the declared length against `m` (or `n`,
//! which must not exceed [`MAX_N`]) before it allocates anything; only
//! then does it convert the arrays straight off the reader, through one
//! 64 KiB staging buffer. [`write_frame`] stages the arrays the same
//! way, and [`encode`] is `write_frame` into an exactly sized `Vec`.
//! Neither side ever holds a payload-sized byte buffer.
//!
//! A frame that violates the grammar (bad magic, unknown version or
//! kind, length out of bounds, payload shorter than its own counts
//! claim) decodes to [`ProtocolError::Malformed`]; the daemon answers
//! with an error frame of category [`ErrorCategory::Protocol`] and
//! closes the connection, since the stream position is no longer
//! trustworthy. Semantic problems inside a well-formed `Submit` (bad
//! `n`, non-finite coordinates, exhausted budget) come back as tagged
//! error frames on a connection that stays open.

use super::stats::{CacheStats, StatsSnapshot, WindowStats, WorkerStats};
use crate::Error;
use jigsaw_num::C64;
use jigsaw_telemetry::{FlightEvent, FlightKind, HistogramSnapshot};
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"JGSW";

/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;

/// Upper bound on a frame payload (bytes). Chosen so an `n = 2048`
/// result image (`n²·16` bytes) fits with headroom while a corrupt
/// length prefix cannot make the daemon allocate unboundedly.
pub const MAX_PAYLOAD: u32 = 1 << 27;

/// Largest image size the serving protocol accepts (`Result` frames for
/// larger `n` would overflow [`MAX_PAYLOAD`]).
pub const MAX_N: u32 = 2048;

/// Job priority class. High-priority jobs are dequeued before any
/// normal-priority job, FIFO within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Default class.
    Normal,
    /// Dequeued ahead of every queued [`Priority::Normal`] job.
    High,
}

impl Priority {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Priority::Normal => 0,
            Priority::High => 1,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(Priority::Normal),
            1 => Some(Priority::High),
            _ => None,
        }
    }
}

/// Failure category carried by an error frame. Mirrors the CLI exit-code
/// taxonomy (2 config · 3 data · 4 execution · 5 budget) plus a
/// serving-only `Protocol` category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// A configuration parameter is outside its supported range.
    Config,
    /// Sample data malformed (non-finite coordinate, length mismatch).
    Data,
    /// A contained execution failure (the job panicked; daemon survives).
    Execution,
    /// The job's `RunBudget` was exhausted before a usable result.
    Budget,
    /// The client's bytes violated the frame grammar.
    Protocol,
    /// The daemon refused the job under load (see [`OverloadFrame`] —
    /// dedicated frame kind 9 carries the structured refusal; this
    /// category exists so clients and the CLI can classify it).
    Overloaded,
}

impl ErrorCategory {
    /// Wire encoding (matches the CLI exit code where one exists).
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCategory::Config => 2,
            ErrorCategory::Data => 3,
            ErrorCategory::Execution => 4,
            ErrorCategory::Budget => 5,
            ErrorCategory::Protocol => 6,
            ErrorCategory::Overloaded => 7,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            2 => Some(ErrorCategory::Config),
            3 => Some(ErrorCategory::Data),
            4 => Some(ErrorCategory::Execution),
            5 => Some(ErrorCategory::Budget),
            6 => Some(ErrorCategory::Protocol),
            7 => Some(ErrorCategory::Overloaded),
            _ => None,
        }
    }

    /// Classify a core error.
    pub fn from_error(e: &Error) -> Self {
        match e {
            Error::Config(_) => ErrorCategory::Config,
            Error::Data(_) => ErrorCategory::Data,
            Error::Execution(_) => ErrorCategory::Execution,
            Error::Budget(_) => ErrorCategory::Budget,
        }
    }
}

/// A reconstruction job submitted by a client: adjoint NuFFT of `m`
/// non-uniform samples onto an `n × n` image (f64, 2-D — the serving
/// layer fixes the scalar type and dimensionality at v1).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen correlation tag, echoed in the response.
    pub tag: u64,
    /// Queue priority class.
    pub priority: Priority,
    /// Image size per dimension (`N`).
    pub n: u32,
    /// Per-job wall-clock budget in milliseconds (0 = daemon default).
    pub budget_ms: u32,
    /// Non-uniform sample coordinates in cycles.
    pub coords: Vec<[f64; 2]>,
    /// Complex sample values, one per coordinate.
    pub values: Vec<C64>,
}

impl JobRequest {
    /// Rough resident cost of holding this job queued: the sample
    /// arrays (32 bytes per sample) plus the `n²` complex image (16
    /// bytes per pixel) an executor will allocate to answer it. Used by
    /// the daemon's `max_queued_bytes` admission ledger. The image term
    /// is capped at [`MAX_N`]`²` pixels: an executor refuses a larger
    /// `n` before it allocates anything, so a hostile `n` can neither
    /// overflow the ledger nor be charged less than a real job.
    pub fn approx_bytes(&self) -> usize {
        let side = self.n.min(MAX_N) as usize;
        self.coords
            .len()
            .max(self.values.len())
            .saturating_mul(32)
            .saturating_add(16 * side * side)
    }
}

/// A completed job: the reconstructed `n × n` image, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The request's correlation tag.
    pub tag: u64,
    /// Whether the plan came from the cache (true) or was built cold.
    pub cache_hit: bool,
    /// Image size per dimension.
    pub n: u32,
    /// Row-major `n²` complex image.
    pub image: Vec<C64>,
}

/// Why an overloaded daemon refused a job without running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue already held `max_queue_depth` normal-priority jobs.
    QueueDepth,
    /// Admitting the job would push queued sample bytes past
    /// `max_queued_bytes`.
    QueueBytes,
    /// The job's deadline had already expired before an executor could
    /// start it (swept from the queue or refused at `pop`).
    DeadlineExpired,
    /// The daemon is draining (graceful shutdown in progress): already
    /// accepted jobs still finish, new submits are refused. Retry
    /// against the restarted daemon.
    Draining,
}

impl ShedReason {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            ShedReason::QueueDepth => 1,
            ShedReason::QueueBytes => 2,
            ShedReason::DeadlineExpired => 3,
            ShedReason::Draining => 4,
        }
    }

    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ShedReason::QueueDepth),
            2 => Some(ShedReason::QueueBytes),
            3 => Some(ShedReason::DeadlineExpired),
            4 => Some(ShedReason::Draining),
            _ => None,
        }
    }

    /// Short lowercase label for counters and dumps.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueDepth => "depth",
            ShedReason::QueueBytes => "bytes",
            ShedReason::DeadlineExpired => "expired",
            ShedReason::Draining => "draining",
        }
    }
}

/// Daemon → client: the job was refused without running because the
/// daemon is overloaded (bounded queue full, or the deadline already
/// expired in queue). `retry_after_ms` is the daemon's estimate of when
/// capacity will free up; a well-behaved client backs off at least that
/// long before resubmitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadFrame {
    /// The request's correlation tag.
    pub tag: u64,
    /// Why the job was shed.
    pub reason: ShedReason,
    /// Suggested client back-off before resubmitting, in milliseconds.
    pub retry_after_ms: u32,
    /// One-line human-readable message.
    pub message: String,
}

/// A structured failure report for one job (or, with `tag = 0` and
/// category [`ErrorCategory::Protocol`], for an unparseable frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request's correlation tag (0 when no request was decoded).
    pub tag: u64,
    /// Failure category.
    pub category: ErrorCategory,
    /// One-line human-readable message.
    pub message: String,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → daemon: run a job.
    Submit(JobRequest),
    /// Daemon → client: job completed.
    Result(JobResult),
    /// Daemon → client: job or frame failed.
    Error(ErrorFrame),
    /// Liveness probe (client → daemon).
    Ping,
    /// Liveness answer, and the acknowledgement of `Shutdown`.
    Pong,
    /// Client → daemon: drain queued jobs, then exit cleanly.
    Shutdown,
    /// Client → daemon: send a live introspection snapshot. Answered on
    /// the connection's reader thread, never queued behind jobs.
    StatsRequest,
    /// Daemon → client: the introspection snapshot (boxed — it is an
    /// order of magnitude larger than every other variant).
    StatsReply(Box<StatsSnapshot>),
    /// Daemon → client: job refused under load; retry after the hint.
    Overloaded(OverloadFrame),
    /// Client → daemon: graceful drain. Acknowledged with [`Frame::Pong`];
    /// the daemon stops admitting (late submits get
    /// [`Frame::Overloaded`] with [`ShedReason::Draining`]), finishes
    /// every already-accepted job, snapshots its plan cache when
    /// configured, and exits 0. Distinct from the hard [`Frame::Shutdown`].
    Drain,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Submit(_) => 1,
            Frame::Result(_) => 2,
            Frame::Error(_) => 3,
            Frame::Ping => 4,
            Frame::Pong => 5,
            Frame::Shutdown => 6,
            Frame::StatsRequest => 7,
            Frame::StatsReply(_) => 8,
            Frame::Overloaded(_) => 9,
            Frame::Drain => 10,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream ended cleanly at a frame boundary.
    Eof,
    /// An I/O failure (including EOF mid-frame).
    Io(String),
    /// The bytes violate the frame grammar. The stream position is no
    /// longer trustworthy; the connection should be closed.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Eof => write!(f, "end of stream"),
            ProtocolError::Io(m) => write!(f, "i/o error: {m}"),
            ProtocolError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Bytes per staged `read`/`write` while the `Submit` and `Result`
/// arrays cross the stream: a 4 MB submit moves in 64 stages, and each
/// stage stays in L2 while it is converted.
const STAGE_BYTES: usize = 1 << 16;

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn push_hist(buf: &mut Vec<u8>, h: &HistogramSnapshot) {
    push_u64(buf, h.count);
    push_u64(buf, h.sum);
    push_u32(buf, h.buckets.len() as u32);
    for &(lo, hi, c) in &h.buckets {
        push_u64(buf, lo);
        push_u64(buf, hi);
        push_u64(buf, c);
    }
}

fn push_stats(buf: &mut Vec<u8>, s: &StatsSnapshot) {
    push_u32(buf, s.stats_version);
    push_u64(buf, s.uptime_ns);
    push_u32(buf, s.queue_depth);
    push_u32(buf, s.queue_high);
    push_u64(buf, s.cache.hits);
    push_u64(buf, s.cache.misses);
    push_u64(buf, s.cache.evictions);
    push_u32(buf, s.cache.len);
    push_u32(buf, s.cache.capacity);
    push_u32(buf, s.workers.len() as u32);
    for w in &s.workers {
        push_u64(buf, w.busy_ns);
        push_u64(buf, w.jobs);
    }
    push_u32(buf, s.windows.len() as u32);
    for w in &s.windows {
        push_str(buf, &w.name);
        push_u64(buf, w.window_ns);
        push_hist(buf, &w.hist);
    }
    push_u32(buf, s.counters.len() as u32);
    for (n, v) in &s.counters {
        push_str(buf, n);
        push_u64(buf, *v);
    }
    push_u32(buf, s.gauges.len() as u32);
    for (n, v) in &s.gauges {
        push_str(buf, n);
        push_f64(buf, *v);
    }
    push_u32(buf, s.histograms.len() as u32);
    for (n, h) in &s.histograms {
        push_str(buf, n);
        push_hist(buf, h);
    }
    push_u32(buf, s.flight.len() as u32);
    for e in &s.flight {
        push_u64(buf, e.ts_ns);
        buf.push(e.kind.as_u8());
        push_u64(buf, e.request_id);
        push_u64(buf, e.tag);
        push_str(buf, &e.detail);
    }
}

/// Bytes of the bulk arrays (`Submit` coordinates and values, `Result`
/// image) that follow a frame's [`head`] on the wire.
fn bulk_len(frame: &Frame) -> usize {
    match frame {
        Frame::Submit(req) => 16 * (req.coords.len() + req.values.len()),
        Frame::Result(res) => 16 * res.image.len(),
        _ => 0,
    }
}

/// The 10-byte header plus every payload byte that is not a bulk
/// array: the fixed fields of `Submit` and `Result`, the whole payload
/// of every other kind. The length field covers the arrays too.
fn head(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.kind());
    push_u32(&mut out, 0);
    match frame {
        Frame::Submit(req) => {
            push_u64(&mut out, req.tag);
            out.push(req.priority.as_u8());
            out.push(0);
            push_u32(&mut out, req.n);
            push_u32(&mut out, req.budget_ms);
            push_u32(&mut out, req.coords.len() as u32);
        }
        Frame::Result(res) => {
            push_u64(&mut out, res.tag);
            out.push(u8::from(res.cache_hit));
            out.push(0);
            push_u32(&mut out, res.n);
        }
        Frame::Error(err) => {
            push_u64(&mut out, err.tag);
            out.push(err.category.as_u8());
            out.push(0);
            push_u32(&mut out, err.message.len() as u32);
            out.extend_from_slice(err.message.as_bytes());
        }
        Frame::StatsReply(s) => push_stats(&mut out, s),
        Frame::Overloaded(o) => {
            push_u64(&mut out, o.tag);
            out.push(o.reason.as_u8());
            out.push(0);
            push_u32(&mut out, o.retry_after_ms);
            push_u32(&mut out, o.message.len() as u32);
            out.extend_from_slice(o.message.as_bytes());
        }
        Frame::Ping | Frame::Pong | Frame::Shutdown | Frame::StatsRequest | Frame::Drain => {}
    }
    let payload_len = (out.len() - 10 + bulk_len(frame)) as u32;
    out[6..10].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Serialize a frame (header + payload) into an exactly sized byte
/// vector: [`write_frame`] into memory.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let head = head(frame);
    let mut out = Vec::with_capacity(head.len() + bulk_len(frame));
    // Writing into a `Vec` cannot fail.
    let _ = write_staged(&mut out, &head, frame);
    out
}

/// Write one frame and flush. The bulk arrays are converted to
/// little-endian bytes one `STAGE_BYTES` (64 KiB) stage at a time, so no
/// payload-sized buffer is ever allocated.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_staged(w, &head(frame), frame)?;
    w.flush()
}

fn write_staged<W: Write + ?Sized>(w: &mut W, head: &[u8], frame: &Frame) -> io::Result<()> {
    let mut stage = Stage::new(w, head.len() + bulk_len(frame));
    stage.put(head)?;
    match frame {
        Frame::Submit(req) => {
            stage.put_pairs(&req.coords, |c| *c)?;
            stage.put_pairs(&req.values, |v| [v.re, v.im])?;
        }
        Frame::Result(res) => stage.put_pairs(&res.image, |z| [z.re, z.im])?,
        _ => {}
    }
    stage.flush()
}

/// A fixed staging buffer between the encoder and the stream: the
/// frame leaves it in writes of at most [`STAGE_BYTES`].
struct Stage<'w, W: Write + ?Sized> {
    w: &'w mut W,
    buf: Vec<u8>,
    filled: usize,
}

impl<'w, W: Write + ?Sized> Stage<'w, W> {
    /// A stage for a frame of `frame_len` bytes.
    fn new(w: &'w mut W, frame_len: usize) -> Self {
        Self {
            w,
            buf: vec![0; frame_len.min(STAGE_BYTES)],
            filled: 0,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf[..self.filled])?;
        self.filled = 0;
        Ok(())
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.filled + bytes.len() > self.buf.len() {
            self.flush()?;
            if bytes.len() > self.buf.len() {
                return self.w.write_all(bytes);
            }
        }
        self.buf[self.filled..self.filled + bytes.len()].copy_from_slice(bytes);
        self.filled += bytes.len();
        Ok(())
    }

    /// Stage `items` as consecutive `f64` pairs.
    fn put_pairs<T>(&mut self, mut items: &[T], pair: impl Fn(&T) -> [f64; 2]) -> io::Result<()> {
        while !items.is_empty() {
            let room = (self.buf.len() - self.filled) / 16;
            if room == 0 {
                self.flush()?;
                continue;
            }
            let (chunk, rest) = items.split_at(room.min(items.len()));
            let len = 16 * chunk.len();
            let (words, _) = self.buf[self.filled..self.filled + len].as_chunks_mut::<8>();
            let (pairs, _) = words.as_chunks_mut::<2>();
            for (d, item) in pairs.iter_mut().zip(chunk) {
                let [a, b] = pair(item);
                *d = [a.to_le_bytes(), b.to_le_bytes()];
            }
            self.filled += len;
            items = rest;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                ProtocolError::Malformed(format!(
                    "payload truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }

    /// A length-prefixed UTF-8 string, capped at [`MAX_STATS_STR`].
    fn str_field(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > MAX_STATS_STR {
            return Err(ProtocolError::Malformed(format!(
                "string field of {len} bytes exceeds maximum {MAX_STATS_STR}"
            )));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ProtocolError::Malformed("string field is not UTF-8".into()))
    }

    /// A list count that must be payable by the remaining bytes at
    /// `min_item_bytes` each — rejects counts that would force a huge
    /// allocation before the bounds check catches the truncation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes) > remaining {
            return Err(ProtocolError::Malformed(format!(
                "list of {n} items cannot fit in {remaining} remaining payload bytes"
            )));
        }
        Ok(n)
    }
}

/// Cap on any single string inside a `StatsReply` payload.
const MAX_STATS_STR: usize = 1 << 12;

fn decode_hist(c: &mut Cursor<'_>) -> Result<HistogramSnapshot, ProtocolError> {
    let count = c.u64()?;
    let sum = c.u64()?;
    let nb = c.count(24)?;
    let mut buckets = Vec::with_capacity(nb);
    let mut total = 0u64;
    for _ in 0..nb {
        let (lo, hi, n) = (c.u64()?, c.u64()?, c.u64()?);
        if lo >= hi {
            return Err(ProtocolError::Malformed(format!(
                "histogram bucket with lo {lo} ≥ hi {hi}"
            )));
        }
        total = total.saturating_add(n);
        buckets.push((lo, hi, n));
    }
    if total > count {
        return Err(ProtocolError::Malformed(format!(
            "histogram buckets hold {total} samples but count claims {count}"
        )));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        buckets,
    })
}

fn decode_stats(c: &mut Cursor<'_>) -> Result<StatsSnapshot, ProtocolError> {
    let stats_version = c.u32()?;
    let uptime_ns = c.u64()?;
    let queue_depth = c.u32()?;
    let queue_high = c.u32()?;
    let cache = CacheStats {
        hits: c.u64()?,
        misses: c.u64()?,
        evictions: c.u64()?,
        len: c.u32()?,
        capacity: c.u32()?,
    };
    let nw = c.count(16)?;
    let mut workers = Vec::with_capacity(nw);
    for _ in 0..nw {
        workers.push(WorkerStats {
            busy_ns: c.u64()?,
            jobs: c.u64()?,
        });
    }
    let nwin = c.count(32)?;
    let mut windows = Vec::with_capacity(nwin);
    for _ in 0..nwin {
        windows.push(WindowStats {
            name: c.str_field()?,
            window_ns: c.u64()?,
            hist: decode_hist(c)?,
        });
    }
    let nc = c.count(12)?;
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        counters.push((c.str_field()?, c.u64()?));
    }
    let ng = c.count(12)?;
    let mut gauges = Vec::with_capacity(ng);
    for _ in 0..ng {
        gauges.push((c.str_field()?, c.f64()?));
    }
    let nh = c.count(24)?;
    let mut histograms = Vec::with_capacity(nh);
    for _ in 0..nh {
        histograms.push((c.str_field()?, decode_hist(c)?));
    }
    let nf = c.count(29)?;
    let mut flight = Vec::with_capacity(nf);
    for _ in 0..nf {
        let ts_ns = c.u64()?;
        let kb = c.u8()?;
        let kind = FlightKind::from_u8(kb)
            .ok_or_else(|| ProtocolError::Malformed(format!("bad flight event kind {kb}")))?;
        flight.push(FlightEvent {
            ts_ns,
            kind,
            request_id: c.u64()?,
            tag: c.u64()?,
            detail: c.str_field()?,
        });
    }
    Ok(StatsSnapshot {
        stats_version,
        uptime_ns,
        queue_depth,
        queue_high,
        cache,
        workers,
        windows,
        counters,
        gauges,
        histograms,
        flight,
    })
}

/// Read one frame. [`ProtocolError::Eof`] means the stream ended cleanly
/// *between* frames; EOF inside a frame is [`ProtocolError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtocolError> {
    // Probe one byte so a clean close between frames is distinguishable
    // from a mid-frame truncation.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(ProtocolError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut header = [0u8; 10];
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    if header[..4] != MAGIC {
        return Err(ProtocolError::Malformed(format!(
            "bad magic {:02x?}",
            &header[..4]
        )));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::Malformed(format!(
            "unsupported protocol version {}",
            header[4]
        )));
    }
    let kind = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Malformed(format!(
            "payload length {len} exceeds maximum {MAX_PAYLOAD}"
        )));
    }
    let len = len as usize;
    match kind {
        1 => read_submit(r, len),
        2 => read_result(r, len),
        _ => {
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload)?;
            decode_payload(kind, &payload)
        }
    }
}

/// Bytes of a `Submit` payload ahead of its arrays.
const SUBMIT_FIXED: usize = 22;

/// Bytes of a `Result` payload ahead of its image.
const RESULT_FIXED: usize = 14;

/// Read the first `N` bytes of a `len`-byte payload. A payload shorter
/// than that is consumed and reported as truncated.
fn read_fixed<const N: usize, R: Read>(r: &mut R, len: usize) -> Result<[u8; N], ProtocolError> {
    let mut fixed = [0u8; N];
    r.read_exact(&mut fixed[..len.min(N)])?;
    if len < N {
        return Err(ProtocolError::Malformed(format!(
            "payload truncated: {len} bytes cannot hold the {N}-byte fixed fields"
        )));
    }
    Ok(fixed)
}

/// Stream a `Submit` payload: the fixed fields first, then — once the
/// declared length matches the sample count — the arrays, straight off
/// the reader.
fn read_submit<R: Read>(r: &mut R, len: usize) -> Result<Frame, ProtocolError> {
    let fixed = read_fixed::<SUBMIT_FIXED, R>(r, len)?;
    let mut c = Cursor::new(&fixed);
    let tag = c.u64()?;
    let pr = c.u8()?;
    let priority = Priority::from_u8(pr)
        .ok_or_else(|| ProtocolError::Malformed(format!("bad priority byte {pr}")))?;
    let _reserved = c.u8()?;
    let n = c.u32()?;
    let budget_ms = c.u32()?;
    let m = c.u32()? as usize;
    // Two f64 per coordinate plus two per value: 32 bytes/sample.
    let expected = SUBMIT_FIXED as u64 + 32 * m as u64;
    if len as u64 != expected {
        return Err(ProtocolError::Malformed(format!(
            "submit frame with m = {m} must carry {expected} payload bytes, got {len}"
        )));
    }
    let mut stage = vec![0u8; (16 * m).min(STAGE_BYTES)];
    let coords = read_pairs(r, m, &mut stage, |a, b| [a, b])?;
    let values = read_pairs(r, m, &mut stage, C64::new)?;
    Ok(Frame::Submit(JobRequest {
        tag,
        priority,
        n,
        budget_ms,
        coords,
        values,
    }))
}

/// Stream a `Result` payload; an `n` above [`MAX_N`] is malformed
/// before any length arithmetic.
fn read_result<R: Read>(r: &mut R, len: usize) -> Result<Frame, ProtocolError> {
    let fixed = read_fixed::<RESULT_FIXED, R>(r, len)?;
    let mut c = Cursor::new(&fixed);
    let tag = c.u64()?;
    let cache_hit = c.u8()? != 0;
    let _reserved = c.u8()?;
    let n = c.u32()?;
    if n > MAX_N {
        return Err(ProtocolError::Malformed(format!(
            "result frame with n = {n} exceeds maximum {MAX_N}"
        )));
    }
    let pixels = n as usize * n as usize;
    let expected = RESULT_FIXED + 16 * pixels;
    if len != expected {
        return Err(ProtocolError::Malformed(format!(
            "result frame with n = {n} must carry {expected} payload bytes, got {len}"
        )));
    }
    let mut stage = vec![0u8; (16 * pixels).min(STAGE_BYTES)];
    let image = read_pairs(r, pixels, &mut stage, C64::new)?;
    Ok(Frame::Result(JobResult {
        tag,
        cache_hit,
        n,
        image,
    }))
}

/// Read `count` little-endian `f64` pairs through `stage`, building one
/// item per pair.
fn read_pairs<R: Read, T>(
    r: &mut R,
    count: usize,
    stage: &mut [u8],
    make: impl Fn(f64, f64) -> T,
) -> Result<Vec<T>, ProtocolError> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = (count - out.len()).min(stage.len() / 16);
        let bytes = &mut stage[..16 * k];
        r.read_exact(bytes)?;
        let (words, _) = bytes.as_chunks::<8>();
        let (pairs, _) = words.as_chunks::<2>();
        out.extend(
            pairs
                .iter()
                .map(|[a, b]| make(f64::from_le_bytes(*a), f64::from_le_bytes(*b))),
        );
    }
    Ok(out)
}

/// Decode the payload of a non-bulk frame kind.
fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    let mut c = Cursor::new(payload);
    match kind {
        3 => {
            let tag = c.u64()?;
            let cat = c.u8()?;
            let category = ErrorCategory::from_u8(cat)
                .ok_or_else(|| ProtocolError::Malformed(format!("bad error category {cat}")))?;
            let _reserved = c.u8()?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8".into()))?;
            c.finish()?;
            Ok(Frame::Error(ErrorFrame {
                tag,
                category,
                message,
            }))
        }
        4..=7 | 10 => {
            c.finish()?;
            Ok(match kind {
                4 => Frame::Ping,
                5 => Frame::Pong,
                6 => Frame::Shutdown,
                7 => Frame::StatsRequest,
                _ => Frame::Drain,
            })
        }
        8 => {
            let stats = decode_stats(&mut c)?;
            c.finish()?;
            Ok(Frame::StatsReply(Box::new(stats)))
        }
        9 => {
            let tag = c.u64()?;
            let rb = c.u8()?;
            let reason = ShedReason::from_u8(rb)
                .ok_or_else(|| ProtocolError::Malformed(format!("bad shed reason {rb}")))?;
            let _reserved = c.u8()?;
            let retry_after_ms = c.u32()?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| ProtocolError::Malformed("overload message is not UTF-8".into()))?;
            c.finish()?;
            Ok(Frame::Overloaded(OverloadFrame {
                tag,
                reason,
                retry_after_ms,
                message,
            }))
        }
        other => Err(ProtocolError::Malformed(format!(
            "unknown frame kind {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &Frame) -> Frame {
        let bytes = encode(f);
        let mut r = io::Cursor::new(bytes);
        let back = read_frame(&mut r).expect("decode");
        // The stream must now be exactly at EOF.
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Eof)));
        back
    }

    #[test]
    fn empty_frames_round_trip() {
        for f in [
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::StatsRequest,
            Frame::Drain,
        ] {
            assert_eq!(round_trip(&f), f);
        }
    }

    #[test]
    fn submit_round_trips_bitwise() {
        let req = JobRequest {
            tag: 0xDEAD_BEEF,
            priority: Priority::High,
            n: 64,
            budget_ms: 250,
            coords: vec![[0.25, -0.5], [f64::MIN_POSITIVE, 31.0]],
            values: vec![C64::new(1.5, -2.5), C64::new(-0.0, 3.25)],
        };
        match round_trip(&Frame::Submit(req.clone())) {
            Frame::Submit(back) => {
                assert_eq!(back.tag, req.tag);
                assert_eq!(back.priority, req.priority);
                assert_eq!(back.n, req.n);
                assert_eq!(back.budget_ms, req.budget_ms);
                // Bitwise, not approximate: the wire carries bit patterns.
                for (a, b) in back.coords.iter().zip(&req.coords) {
                    assert_eq!(a[0].to_bits(), b[0].to_bits());
                    assert_eq!(a[1].to_bits(), b[1].to_bits());
                }
                for (a, b) in back.values.iter().zip(&req.values) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn result_and_error_round_trip() {
        let res = Frame::Result(JobResult {
            tag: 7,
            cache_hit: true,
            n: 2,
            image: vec![C64::new(0.0, 1.0); 4],
        });
        assert_eq!(round_trip(&res), res);
        let err = Frame::Error(ErrorFrame {
            tag: 9,
            category: ErrorCategory::Budget,
            message: "deadline blown ×2 µ".into(),
        });
        assert_eq!(round_trip(&err), err);
    }

    #[test]
    fn overloaded_round_trips_retry_hint_bitwise() {
        for reason in [
            ShedReason::QueueDepth,
            ShedReason::QueueBytes,
            ShedReason::DeadlineExpired,
            ShedReason::Draining,
        ] {
            for retry_after_ms in [0u32, 1, 25, 100, 29_999, u32::MAX] {
                let f = Frame::Overloaded(OverloadFrame {
                    tag: 0x8000_0000_0000_0001,
                    reason,
                    retry_after_ms,
                    message: "queue full: 1024 jobs deep µ".into(),
                });
                match round_trip(&f) {
                    Frame::Overloaded(back) => {
                        assert_eq!(back.reason, reason);
                        // Bitwise: the hint must survive the wire exactly.
                        assert_eq!(
                            back.retry_after_ms.to_le_bytes(),
                            retry_after_ms.to_le_bytes()
                        );
                        assert_eq!(Frame::Overloaded(back), f);
                    }
                    other => panic!("wrong frame {other:?}"),
                }
            }
        }
    }

    #[test]
    fn overloaded_truncation_and_bad_reason_never_panic() {
        let bytes = encode(&Frame::Overloaded(OverloadFrame {
            tag: 42,
            reason: ShedReason::QueueBytes,
            retry_after_ms: 250,
            message: "x".repeat(48),
        }));
        // Cut at every byte boundary: clean error, never a panic.
        for cut in 0..bytes.len() {
            let e = read_frame(&mut io::Cursor::new(bytes[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(
                    e,
                    ProtocolError::Io(_) | ProtocolError::Malformed(_) | ProtocolError::Eof
                ),
                "cut at {cut}: {e:?}"
            );
        }
        // An unknown reason byte is Malformed, not a panic: the decoder
        // stays total as new reasons append.
        let mut bad = bytes.clone();
        bad[10 + 8] = 0xEE;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bad)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn overloaded_fuzz_decode_is_total() {
        let bytes = encode(&Frame::Overloaded(OverloadFrame {
            tag: 7,
            reason: ShedReason::DeadlineExpired,
            retry_after_ms: 1_000,
            message: "deadline expired 12ms before pop".into(),
        }));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for _ in 0..2_000 {
            let mut mutated = bytes.clone();
            let flips = 1 + (next() % 4) as usize;
            for _ in 0..flips {
                let idx = (next() % mutated.len() as u64) as usize;
                mutated[idx] ^= (next() & 0xFF) as u8;
            }
            let _ = read_frame(&mut io::Cursor::new(mutated));
        }
    }

    #[test]
    fn bad_magic_is_malformed() {
        let mut bytes = encode(&Frame::Ping);
        bytes[0] = b'X';
        let e = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
    }

    #[test]
    fn bad_version_kind_and_length_are_malformed() {
        let mut v = encode(&Frame::Ping);
        v[4] = 99;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(v)),
            Err(ProtocolError::Malformed(_))
        ));
        let mut k = encode(&Frame::Ping);
        k[5] = 42;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(k)),
            Err(ProtocolError::Malformed(_))
        ));
        let mut l = encode(&Frame::Ping);
        l[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(l)),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        let bytes = encode(&Frame::Error(ErrorFrame {
            tag: 1,
            category: ErrorCategory::Data,
            message: "x".repeat(64),
        }));
        // Cut mid-frame: an I/O error, not a clean EOF.
        let cut = &bytes[..bytes.len() - 5];
        let e = read_frame(&mut io::Cursor::new(cut.to_vec())).unwrap_err();
        assert!(matches!(e, ProtocolError::Io(_)), "{e:?}");
        // Empty stream: clean EOF.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(Vec::new())),
            Err(ProtocolError::Eof)
        ));
    }

    #[test]
    fn inconsistent_sample_count_is_malformed() {
        let mut bytes = encode(&Frame::Submit(JobRequest {
            tag: 1,
            priority: Priority::Normal,
            n: 8,
            budget_ms: 0,
            coords: vec![[0.0, 0.0]],
            values: vec![C64::new(0.0, 0.0)],
        }));
        // Claim m = 2 without providing the bytes.
        let m_offset = 10 + 8 + 1 + 1 + 4 + 4;
        bytes[m_offset..m_offset + 4].copy_from_slice(&2u32.to_le_bytes());
        let e = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
    }

    #[test]
    fn stats_frames_round_trip() {
        assert_eq!(round_trip(&Frame::StatsRequest), Frame::StatsRequest);
        let reply = Frame::StatsReply(Box::new(super::super::stats::sample_snapshot()));
        assert_eq!(round_trip(&reply), reply);
        // An empty snapshot (all vecs empty) must also survive the wire.
        let empty = Frame::StatsReply(Box::new(StatsSnapshot {
            stats_version: super::super::stats::STATS_VERSION,
            uptime_ns: 0,
            queue_depth: 0,
            queue_high: 0,
            cache: CacheStats::default(),
            workers: Vec::new(),
            windows: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            flight: Vec::new(),
        }));
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn stats_reply_truncation_never_panics() {
        let bytes = encode(&Frame::StatsReply(Box::new(
            super::super::stats::sample_snapshot(),
        )));
        // Cutting the frame at every byte boundary must yield a clean
        // error (short header → Io; short payload → Io; inconsistent
        // interior counts → Malformed), never a panic or a bogus Ok.
        for cut in 0..bytes.len() {
            let e = read_frame(&mut io::Cursor::new(bytes[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(
                    e,
                    ProtocolError::Io(_) | ProtocolError::Malformed(_) | ProtocolError::Eof
                ),
                "cut at {cut}: {e:?}"
            );
        }
    }

    #[test]
    fn stats_reply_fuzz_decode_is_total() {
        let bytes = encode(&Frame::StatsReply(Box::new(
            super::super::stats::sample_snapshot(),
        )));
        // Deterministic LCG-driven byte mutations: decode must return
        // Ok or Err, never panic, and never over-allocate (the count
        // guards bound Vec capacities by remaining payload bytes).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for _ in 0..2_000 {
            let mut mutated = bytes.clone();
            let flips = 1 + (next() % 4) as usize;
            for _ in 0..flips {
                let idx = (next() % mutated.len() as u64) as usize;
                mutated[idx] ^= (next() & 0xFF) as u8;
            }
            let _ = read_frame(&mut io::Cursor::new(mutated));
        }
    }

    /// Values a bitwise codec must carry unchanged: NaNs with payload
    /// bits (quiet, signalling, negative), signed zeros, subnormals,
    /// infinities and the extremes.
    const SPECIALS: [u64; 12] = [
        0x7FF8_0000_0000_0001,
        0x7FF0_0000_0000_0001,
        0xFFF8_DEAD_BEEF_0001,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800F_FFFF_FFFF_FFFF,
        0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000,
        0x7FEF_FFFF_FFFF_FFFF,
        0x0010_0000_0000_0000,
        0x3FD0_0000_0000_0000,
    ];

    /// Special values first, then random bit patterns.
    fn word(rng: &mut jigsaw_testkit::Rng, i: usize) -> f64 {
        f64::from_bits(SPECIALS.get(i).copied().unwrap_or_else(|| rng.u64()))
    }

    fn submit_of(rng: &mut jigsaw_testkit::Rng, m: usize) -> Frame {
        Frame::Submit(JobRequest {
            tag: rng.u64(),
            priority: if rng.bool(0.5) {
                Priority::High
            } else {
                Priority::Normal
            },
            n: rng.u32(),
            budget_ms: rng.u32(),
            coords: (0..m)
                .map(|i| [word(rng, 2 * i), word(rng, 2 * i + 1)])
                .collect(),
            values: (0..m)
                .map(|i| C64::new(word(rng, 2 * i + 1), word(rng, 2 * i)))
                .collect(),
        })
    }

    fn result_of(rng: &mut jigsaw_testkit::Rng, n: u32) -> Frame {
        Frame::Result(JobResult {
            tag: rng.u64(),
            cache_hit: rng.bool(0.5),
            n,
            image: (0..(n * n) as usize)
                .map(|i| C64::new(word(rng, 2 * i), word(rng, 2 * i + 1)))
                .collect(),
        })
    }

    /// Every `f64` of a bulk frame as raw bits, after its fixed fields.
    fn bits(f: &Frame) -> (Vec<u8>, Vec<u64>) {
        match f {
            Frame::Submit(r) => (
                head(f),
                r.coords
                    .as_flattened()
                    .iter()
                    .chain(r.values.iter().flat_map(|v| [&v.re, &v.im]))
                    .map(|x| x.to_bits())
                    .collect(),
            ),
            Frame::Result(r) => (
                head(f),
                r.image
                    .iter()
                    .flat_map(|v| [v.re, v.im])
                    .map(f64::to_bits)
                    .collect(),
            ),
            other => panic!("not a bulk frame: {other:?}"),
        }
    }

    /// A reader that hands out at most `k` bytes per `read` call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        k: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.k).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Encode `f`, check `write_frame` writes the same bytes, and decode
    /// them whole and through readers that return at most 1, 7, 16 and
    /// 65 537 bytes per call: every decode must equal `f` bit for bit.
    fn assert_bulk_round_trip(f: &Frame) {
        let bytes = encode(f);
        assert_eq!(
            bytes.len(),
            bytes.capacity(),
            "encode sizes its Vec exactly"
        );
        let mut written = Vec::new();
        write_frame(&mut written, f).expect("write to Vec");
        assert_eq!(written, bytes, "encode and write_frame must agree");
        let want = bits(f);
        let mut r = io::Cursor::new(&bytes);
        let back = read_frame(&mut r).expect("decode");
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Eof)));
        assert_eq!(bits(&back), want);
        for k in [1, 7, 16, 65_537] {
            let mut t = Trickle { bytes: &bytes, k };
            let back = read_frame(&mut t).expect("trickled decode");
            assert_eq!(bits(&back), want, "reader returning ≤ {k} bytes per call");
            assert!(t.bytes.is_empty());
        }
    }

    #[test]
    fn bulk_frames_round_trip_bitwise_across_stage_boundaries() {
        let mut rng = jigsaw_testkit::Rng::new(0x5EED);
        // One stage holds 4096 pairs; 4094 pairs fill the first write
        // stage behind a Submit's 32 head bytes.
        for m in [0usize, 1, 4093, 4094, 4095, 4096, 4097, 8193] {
            assert_bulk_round_trip(&submit_of(&mut rng, m));
        }
        // 64² = 4096 pixels fills one stage; 63² and 65² straddle it.
        for n in [0u32, 1, 2, 63, 64, 65, 91] {
            assert_bulk_round_trip(&result_of(&mut rng, n));
        }
        jigsaw_testkit::cases!(8, |rng| {
            let m = rng.usize_range(0, 20_000);
            assert_bulk_round_trip(&submit_of(rng, m));
            let n = rng.usize_range(0, 160) as u32;
            assert_bulk_round_trip(&result_of(rng, n));
        });
    }

    /// Little-endian bytes of an `f64` given by its bit pattern.
    fn le(bits: u64) -> [u8; 8] {
        bits.to_le_bytes()
    }

    #[test]
    fn bulk_wire_bytes_follow_the_layout_table() {
        let submit = Frame::Submit(JobRequest {
            tag: 0x0102_0304_0506_0708,
            priority: Priority::High,
            n: 64,
            budget_ms: 250,
            coords: vec![[0.25, -0.5], [f64::from_bits(0x7FF8_0000_0000_0001), -0.0]],
            values: vec![
                C64::new(1.5, f64::INFINITY),
                C64::new(f64::from_bits(1), -2.0),
            ],
        });
        let mut want = vec![b'J', b'G', b'S', b'W', 1, 1, 86, 0, 0, 0];
        want.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]); // tag
        want.extend_from_slice(&[1, 0]); // priority High · reserved
        want.extend_from_slice(&[64, 0, 0, 0]); // n
        want.extend_from_slice(&[250, 0, 0, 0]); // budget_ms
        want.extend_from_slice(&[2, 0, 0, 0]); // m
        for b in [
            0x3FD0_0000_0000_0000, // 0.25
            0xBFE0_0000_0000_0000, // -0.5
            0x7FF8_0000_0000_0001, // NaN with payload
            0x8000_0000_0000_0000, // -0.0
            0x3FF8_0000_0000_0000, // 1.5
            0x7FF0_0000_0000_0000, // +inf
            0x0000_0000_0000_0001, // 5e-324
            0xC000_0000_0000_0000, // -2.0
        ] {
            want.extend_from_slice(&le(b));
        }
        assert_eq!(want.len(), 10 + 86);
        assert_eq!(encode(&submit), want);
        let mut written = Vec::new();
        write_frame(&mut written, &submit).unwrap();
        assert_eq!(written, want);

        let result = Frame::Result(JobResult {
            tag: 0xAB,
            cache_hit: true,
            n: 1,
            image: vec![C64::new(-0.0, 0.25)],
        });
        let mut want = vec![b'J', b'G', b'S', b'W', 1, 2, 30, 0, 0, 0];
        want.extend_from_slice(&[0xAB, 0, 0, 0, 0, 0, 0, 0]); // tag
        want.extend_from_slice(&[1, 0]); // cache_hit · reserved
        want.extend_from_slice(&[1, 0, 0, 0]); // n
        want.extend_from_slice(&le(0x8000_0000_0000_0000));
        want.extend_from_slice(&le(0x3FD0_0000_0000_0000));
        assert_eq!(encode(&result), want);
        let mut written = Vec::new();
        write_frame(&mut written, &result).unwrap();
        assert_eq!(written, want);
    }

    /// Small bulk frames for the truncation and fuzz tests.
    fn small_bulk_frames() -> [Vec<u8>; 2] {
        let mut rng = jigsaw_testkit::Rng::new(0xF022);
        [
            encode(&submit_of(&mut rng, 5)),
            encode(&result_of(&mut rng, 3)),
        ]
    }

    #[test]
    fn bulk_truncation_never_panics() {
        for bytes in small_bulk_frames() {
            for cut in 0..bytes.len() {
                let e = read_frame(&mut io::Cursor::new(&bytes[..cut])).unwrap_err();
                assert!(
                    matches!(
                        e,
                        ProtocolError::Io(_) | ProtocolError::Malformed(_) | ProtocolError::Eof
                    ),
                    "cut at {cut}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_fuzz_decode_is_total() {
        let mut state = 0x51A7_E5EE_D0C0_FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        for bytes in small_bulk_frames() {
            for _ in 0..2_000 {
                let mut mutated = bytes.clone();
                let flips = 1 + (next() % 4) as usize;
                for _ in 0..flips {
                    let idx = (next() % mutated.len() as u64) as usize;
                    mutated[idx] ^= (next() & 0xFF) as u8;
                }
                let _ = read_frame(&mut io::Cursor::new(mutated));
            }
        }
    }

    #[test]
    fn result_with_hostile_n_is_malformed() {
        // payload_len 14 and n = 2^30: `16·n²` wraps to 0 in 64 bits, so
        // only the MAX_N check stands between this frame and a
        // capacity-overflow panic.
        let mut bytes = vec![b'J', b'G', b'S', b'W', VERSION, 2, 14, 0, 0, 0];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert_eq!(bytes.len(), 24);
        let e = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
        // One past the largest served image is malformed too.
        let e = read_frame(&mut io::Cursor::new(encode(&Frame::Result(JobResult {
            tag: 1,
            cache_hit: false,
            n: MAX_N + 1,
            image: Vec::new(),
        }))))
        .unwrap_err();
        assert!(matches!(e, ProtocolError::Malformed(_)), "{e:?}");
    }

    #[test]
    fn approx_bytes_caps_a_hostile_n() {
        let req = |n| JobRequest {
            tag: 1,
            priority: Priority::Normal,
            n,
            budget_ms: 0,
            coords: vec![[0.0; 2]; 3],
            values: vec![C64::new(0.0, 0.0); 3],
        };
        let largest = req(MAX_N).approx_bytes();
        assert_eq!(largest, 32 * 3 + 16 * (MAX_N as usize).pow(2));
        for n in [MAX_N + 1, 1 << 30, u32::MAX] {
            assert_eq!(req(n).approx_bytes(), largest, "n = {n}");
        }
        assert_eq!(req(8).approx_bytes(), 32 * 3 + 16 * 64);
    }

    #[test]
    fn category_and_priority_codes_are_stable() {
        assert_eq!(ErrorCategory::Config.as_u8(), 2);
        assert_eq!(ErrorCategory::Data.as_u8(), 3);
        assert_eq!(ErrorCategory::Execution.as_u8(), 4);
        assert_eq!(ErrorCategory::Budget.as_u8(), 5);
        assert_eq!(ErrorCategory::Protocol.as_u8(), 6);
        assert_eq!(ErrorCategory::Overloaded.as_u8(), 7);
        for b in [2u8, 3, 4, 5, 6, 7] {
            assert_eq!(ErrorCategory::from_u8(b).map(|c| c.as_u8()), Some(b));
        }
        assert_eq!(ErrorCategory::from_u8(8), None);
        for r in [
            ShedReason::QueueDepth,
            ShedReason::QueueBytes,
            ShedReason::DeadlineExpired,
            ShedReason::Draining,
        ] {
            assert_eq!(ShedReason::from_u8(r.as_u8()), Some(r));
            assert!(!r.label().is_empty());
        }
        assert_eq!(ShedReason::from_u8(0), None);
        assert_eq!(ShedReason::from_u8(5), None);
        assert_eq!(Priority::from_u8(0), Some(Priority::Normal));
        assert_eq!(Priority::from_u8(1), Some(Priority::High));
        assert_eq!(Priority::from_u8(2), None);
        assert_eq!(
            ErrorCategory::from_error(&Error::Budget("x".into())),
            ErrorCategory::Budget
        );
    }
}
