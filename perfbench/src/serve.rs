//! `serve_churn`: one closed-loop client driving a real `jigsaw serve`
//! daemon over its Unix socket, every request a plan-cache miss.

use crate::inputs::{self, Trajectory};
use crate::report::median;
use crate::{Layers, Outcome};
use jigsaw_core::budget::RunBudget;
use jigsaw_core::config::NufftConfig;
use jigsaw_core::gridding::DimWindow;
use jigsaw_core::nufft::NufftPlan;
use jigsaw_core::serve::protocol::{encode, read_frame};
use jigsaw_core::serve::{plan_key, Frame, JobRequest, Priority, ServeClient, ServeEngine};
use jigsaw_core::serve::{ProtocolError, StatsSnapshot};
use jigsaw_num::C64;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Image size and spoke count of every served request: radial 256²,
/// M = 256 · 512 = 131 072 samples.
const N: usize = 256;
const SPOKES: usize = 256;
/// The daemon's plan-cache capacity (`--cache-capacity`).
const CACHE_CAPACITY: usize = 4;
/// Distinct trajectories the client cycles over: more than the cache
/// holds, so round-robin through the LRU misses and evicts every time.
const POOL: usize = 6;
/// Setup repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Untimed requests between setup and the timed loop.
const WARMUP_OPS: usize = 2;
/// Pixels checked against the exact NuDFT.
const ORACLE_PIXELS: usize = 32;
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Trajectory of the `k`-th request. Setup primes trajectories
/// `0..CACHE_CAPACITY`; the sequence continues right after them modulo
/// the pool, so it starts on the first unprimed trajectory and never
/// finds its plan cached.
fn index(k: usize) -> usize {
    (CACHE_CAPACITY + k) % POOL
}

/// Everything synthesized from the seed before any timing starts.
struct Inputs {
    trajs: Vec<Trajectory>,
    /// One prebuilt `Submit` frame per trajectory (tag = index + 1).
    frames: Vec<Frame>,
    /// The bitwise reference image per trajectory.
    refs: Vec<Vec<C64>>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Self, String> {
        let trajs = inputs::trajectory_pool(N, SPOKES, POOL, seed)?;
        let frames = trajs
            .iter()
            .enumerate()
            .map(|(i, t)| Frame::Submit(request(i, t)))
            .collect();
        let refs = trajs
            .iter()
            .map(|t| inputs::reference_image(N, t))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            trajs,
            frames,
            refs,
        })
    }

    /// Whether `frame` is the correct answer to trajectory `i`: a cache
    /// miss whose image matches the reference bit for bit.
    fn check(&self, i: usize, frame: &Frame) -> bool {
        matches!(frame, Frame::Result(r)
            if r.tag == i as u64 + 1
                && !r.cache_hit
                && inputs::bitwise_eq(&r.image, &self.refs[i]))
    }

    /// Median relative error of the references against the exact NuDFT.
    fn rel_error(&self) -> f64 {
        let pixels = inputs::pixel_subset(N, ORACLE_PIXELS);
        let errs: Vec<f64> = self
            .trajs
            .iter()
            .zip(&self.refs)
            .map(|(t, r)| inputs::rel_error_at_pixels(r, t, N, &pixels))
            .collect();
        median(&errs)
    }
}

fn request(i: usize, t: &Trajectory) -> JobRequest {
    JobRequest {
        tag: i as u64 + 1,
        priority: Priority::Normal,
        n: N as u32,
        budget_ms: 0,
        coords: t.coords.clone(),
        values: t.values.clone(),
    }
}

/// A spawned `jigsaw serve` process; killed and reaped on drop if it was
/// not shut down cleanly.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, sock: &Path, telemetry: bool) -> Result<Self, String> {
        let _ = std::fs::remove_file(sock);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(sock)
            .args([
                "--cache-capacity",
                &CACHE_CAPACITY.to_string(),
                "--jobs",
                "2",
            ])
            .env("JIGSAW_TELEMETRY", if telemetry { "1" } else { "0" })
            .env_remove("RUST_BACKTRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let d = Self {
            child,
            sock: sock.to_path_buf(),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(mut c) = d.connect() {
                if c.ping().is_ok() {
                    return Ok(d);
                }
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer a ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn connect(&self) -> Result<ServeClient<UnixStream>, String> {
        let c = ServeClient::connect(&self.sock).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(READ_TIMEOUT)
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(c)
    }

    fn stats(&self) -> Result<StatsSnapshot, String> {
        let s = self.connect()?.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(*s)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Send `Shutdown` and wait for the process to exit 0.
    fn shutdown(mut self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if t0.elapsed() > Duration::from_secs(30) => {
                    return Err("daemon did not exit within 30 s of shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Spawn a daemon and prime trajectories `0..CACHE_CAPACITY`, checking
/// each cold answer.
fn start(bin: &Path, sock: &Path, telemetry: bool, inp: &Inputs) -> Result<Daemon, String> {
    let d = Daemon::spawn(bin, sock, telemetry)?;
    let mut c = d.connect()?;
    for i in 0..CACHE_CAPACITY {
        let reply = c
            .send(&inp.frames[i])
            .and_then(|()| c.recv())
            .map_err(|e| format!("priming: {e}"))?;
        if !inp.check(i, &reply) {
            return Err(format!("priming trajectory {i}: wrong or missing image"));
        }
    }
    Ok(d)
}

/// What one closed-loop phase measured.
struct Phase {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

/// Warm up, then run the client closed-loop for `duration`: it sends
/// its next request only after reading the previous reply. Latency is
/// Submit write to Result read, at the client.
fn closed_loop(d: &Daemon, inp: &Inputs, duration: Duration) -> Result<Phase, String> {
    let mut c = d.connect()?;
    let mut roundtrip = |i: usize| -> Result<Frame, ProtocolError> {
        c.send(&inp.frames[i])?;
        c.recv()
    };
    for k in 0..WARMUP_OPS {
        let i = index(k);
        let reply = roundtrip(i).map_err(|e| format!("warmup: {e}"))?;
        if !inp.check(i, &reply) {
            return Err(format!("warmup request on trajectory {i} answered wrongly"));
        }
    }
    let mut p = Phase {
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let t_start = Instant::now();
    for k in WARMUP_OPS.. {
        if t_start.elapsed() >= duration {
            break;
        }
        let i = index(k);
        p.attempted += 1;
        let t0 = Instant::now();
        match roundtrip(i) {
            Ok(reply) if inp.check(i, &reply) => {
                p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3)
            }
            Ok(_) => p.failed += 1,
            Err(e) => {
                // A broken connection fails this op; stop rather than
                // spin on errors.
                eprintln!("perfbench: request on trajectory {i}: {e}");
                p.failed += 1;
                break;
            }
        }
    }
    p.wall_s = t_start.elapsed().as_secs_f64();
    Ok(p)
}

/// The untraced run: the six end-to-end metrics.
pub fn run(bin: &Path, dir: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inp = Inputs::new(seed)?;
    let sock = dir.join(format!("serve-{}.sock", std::process::id()));
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        // Every repetition binds the same socket path: stop the previous
        // daemon before the next one replaces its socket file.
        if let Some(prev) = daemon.take() {
            prev.shutdown()?;
        }
        let t0 = Instant::now();
        daemon = Some(start(bin, &sock, false, &inp)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let d = daemon.expect("at least one setup repetition");
    let phase = closed_loop(&d, &inp, Duration::from_secs_f64(seconds))?;
    let peak_rss = d.peak_rss_mb()?;
    d.shutdown()?;
    Ok(Outcome::end_to_end(
        &phase.latencies_ms,
        phase.attempted,
        phase.failed,
        phase.wall_s,
        median(&setup),
        peak_rss,
        inp.rel_error(),
    ))
}

/// Daemon-side view of one phase: counter deltas between two scrapes.
struct DaemonDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
    resident: u32,
    busy_share: Vec<f64>,
    queue_wait_ms: f64,
}

fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> DaemonDelta {
    let up = (b.uptime_ns - a.uptime_ns).max(1) as f64;
    let busy_share = a
        .workers
        .iter()
        .zip(&b.workers)
        .map(|(x, y)| (y.busy_ns - x.busy_ns) as f64 / up)
        .collect();
    let wait = |s: &StatsSnapshot| {
        s.histograms
            .iter()
            .find(|(n, _)| n == "serve.queue_wait_ns")
            .map_or((0, 0), |(_, h)| (h.sum, h.count))
    };
    let ((s0, c0), (s1, c1)) = (wait(a), wait(b));
    DaemonDelta {
        hits: b.cache.hits - a.cache.hits,
        misses: b.cache.misses - a.cache.misses,
        evictions: b.cache.evictions - a.cache.evictions,
        resident: b.cache.len,
        busy_share,
        queue_wait_ms: if c1 > c0 {
            (s1 - s0) as f64 / (c1 - c0) as f64 / 1e6
        } else {
            0.0
        },
    }
}

/// One wire phase of the traced run: a fresh primed daemon with its own
/// telemetry on or off, scraped before and after the timed loop.
fn wire_phase(
    bin: &Path,
    sock: &Path,
    inp: &Inputs,
    telemetry: bool,
    duration: Duration,
) -> Result<(Phase, DaemonDelta), String> {
    let d = start(bin, sock, telemetry, inp)?;
    let before = d.stats()?;
    let phase = closed_loop(&d, inp, duration)?;
    let after = d.stats()?;
    d.shutdown()?;
    Ok((phase, delta(&before, &after)))
}

/// Per-op samples of each layer, replayed in process.
#[derive(Default)]
struct Replay {
    decode_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    key_ms: Vec<f64>,
    lookup_us: Vec<f64>,
    plan_ms: Vec<f64>,
    scatter_ms: Vec<f64>,
    fft_ms: Vec<f64>,
    apod_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replay the workload's request sequence through each layer's public
/// function, timing every call: the codec both ways, the cache key and
/// lookup, planning on a miss, the planned adjoint's stages, and the
/// whole `ServeEngine::execute`. The in-process engine's cache sees the
/// same sequence as the daemon's, so hits and misses match the wire.
fn replay(inp: &Inputs, duration: Duration) -> Result<Replay, String> {
    let cfg = NufftConfig::with_n(N);
    let engine = ServeEngine::new(CACHE_CAPACITY);
    let budget = RunBudget::unlimited();
    let mut r = Replay::default();
    for frame in &inp.frames[..CACHE_CAPACITY] {
        let Frame::Submit(req) = frame else {
            unreachable!("inputs hold only submit frames")
        };
        engine
            .execute(req, &budget)
            .map_err(|e| format!("replay priming: {}", e.message))?;
    }
    let build = |coords: &[[f64; 2]]| -> Result<_, String> {
        let plan = NufftPlan::<f64, 2>::new(cfg.clone()).map_err(|e| e.to_string())?;
        let traj = plan.plan_trajectory(coords).map_err(|e| e.to_string())?;
        Ok((plan, traj))
    };
    let t_start = Instant::now();
    let mut k = 0;
    while k < POOL || t_start.elapsed() < duration {
        let i = index(k);
        k += 1;
        r.attempted += 1;
        let t0 = Instant::now();
        let bytes = encode(&inp.frames[i]);
        let enc_submit = ms_since(t0);
        let t0 = Instant::now();
        let req = match read_frame(&mut bytes.as_slice()) {
            Ok(Frame::Submit(req)) => req,
            _ => return Err("replayed submit frame did not decode".into()),
        };
        let dec_submit = ms_since(t0);

        let t0 = Instant::now();
        let key = plan_key(&cfg, &req.coords);
        r.key_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let hit = engine.cache().lookup(&key);
        r.lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let out = match hit {
            Some(entry) => entry
                .plan
                .adjoint_batch_planned(&entry.traj, &[&req.values]),
            None => {
                let t0 = Instant::now();
                let (plan, traj) = build(&req.coords)?;
                r.plan_ms.push(ms_since(t0));
                plan.adjoint_batch_planned(&traj, &[&req.values])
            }
        }
        .map_err(|e| e.to_string())?;
        let timings = out[0].timings;
        r.scatter_ms.push(timings.interp_seconds * 1e3);
        r.fft_ms.push(timings.fft_seconds * 1e3);
        r.apod_ms.push(timings.apod_seconds * 1e3);

        let t0 = Instant::now();
        let result = engine.execute(&req, &budget);
        r.execute_ms.push(ms_since(t0));
        let Ok(result) = result else {
            r.failed += 1;
            continue;
        };
        let reply = Frame::Result(result);
        if !inp.check(i, &reply) {
            r.failed += 1;
        }
        let t0 = Instant::now();
        let bytes = encode(&reply);
        let enc_result = ms_since(t0);
        let t0 = Instant::now();
        if !matches!(read_frame(&mut bytes.as_slice()), Ok(Frame::Result(_))) {
            return Err("replayed result frame did not decode".into());
        }
        r.decode_ms.push(dec_submit + ms_since(t0));
        r.encode_ms.push(enc_submit + enc_result);
    }
    Ok(r)
}

/// The traced run: an untraced wire phase, a wire phase with the
/// daemon's telemetry on, and an in-process replay of every layer, each
/// a third of the run.
pub fn trace(bin: &Path, dir: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inp = Inputs::new(seed)?;
    let sock = dir.join(format!("serve-{}.sock", std::process::id()));
    let third = Duration::from_secs_f64(seconds / 3.0);
    let (plain, plain_d) = wire_phase(bin, &sock, &inp, false, third)?;
    let (traced, traced_d) = wire_phase(bin, &sock, &inp, true, third)?;
    let r = replay(&inp, third)?;

    let lookups = (plain_d.hits + plain_d.misses).max(1) as f64;
    let wire_p50 = median(&plain.latencies_ms);
    let window_bytes = std::mem::size_of::<[DimWindow; 2]>() as f64;
    // Per resident plan: the windows plus the mapped and original
    // coordinates (16 B each per sample).
    let plan_bytes = (window_bytes + 32.0) * inp.trajs[0].coords.len() as f64;
    let mut layers = Layers::default();
    layers.on("protocol.decode_ms", median(&r.decode_ms));
    layers.on("protocol.encode_ms", median(&r.encode_ms));
    layers.on("cache.key_ms", median(&r.key_ms));
    layers.on("cache.lookup_us", median(&r.lookup_us));
    layers.on("cache.hit_ratio", plain_d.hits as f64 / lookups);
    layers.on("cache.evictions_per_op", plain_d.evictions as f64 / lookups);
    layers.on("nufft.plan_ms", median(&r.plan_ms));
    layers.on("gridding.scatter_ms", median(&r.scatter_ms));
    layers.on("fft.transform_ms", median(&r.fft_ms));
    layers.on("apod.deapodize_ms", median(&r.apod_ms));
    layers.computed("gridding.window_bytes_per_sample", window_bytes);
    layers.computed(
        "cache.resident_plan_mb",
        plain_d.resident as f64 * plan_bytes / 1e6,
    );
    layers.on("daemon.queue_wait_ms", traced_d.queue_wait_ms);
    layers.busy_shares(&plain_d.busy_share);
    let execute = median(&r.execute_ms);
    layers.on("serve.execute_ms", execute);
    let attributed = median(&r.decode_ms) + median(&r.encode_ms) + traced_d.queue_wait_ms + execute;
    layers.on("serve.unattributed_ms", wire_p50 - attributed);
    layers.on(
        "trace.overhead_ratio",
        median(&traced.latencies_ms) / wire_p50,
    );
    layers.wire_p50_ms = wire_p50;
    layers.attributed_ms = attributed;

    Ok(Outcome::traced(
        &plain.latencies_ms,
        plain.attempted + traced.attempted + r.attempted,
        plain.failed + traced.failed + r.failed,
        layers,
    ))
}
