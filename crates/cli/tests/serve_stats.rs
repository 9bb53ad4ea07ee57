//! Black-box introspection contract of `jigsaw serve`: stats scrapes
//! during a live burst, format surfaces, and request-id tracing.
//!
//! Mirrors `serve_protocol.rs`: the *real* binary is spawned and driven
//! over a Unix socket. The assertions pin the observability guarantees:
//! counters are monotone across scrapes, the wire-reported cache hit
//! rate is consistent with the jobs actually submitted, scraping never
//! perturbs reconstruction bytes, and a `--trace-out` trace carries the
//! request id on job spans.

use jigsaw_core::serve::{Frame, JobRequest, Priority, ServeClient, STATS_VERSION};
use jigsaw_core::traj;
use jigsaw_num::C64;
use std::process::{Command, Stdio};
use std::time::Duration;

mod common;
use common::DaemonGuard;

fn radial_request(tag: u64, n: u32, seed: u64) -> JobRequest {
    let mut coords = traj::radial_2d(8, 2 * n as usize, true);
    traj::shuffle(&mut coords, seed);
    let values: Vec<C64> = coords
        .iter()
        .map(|c| C64::new(c[0].cos(), c[1].sin()))
        .collect();
    JobRequest {
        tag,
        priority: Priority::Normal,
        n,
        budget_ms: 0,
        coords,
        values,
    }
}

fn image_of(frame: Frame) -> Vec<C64> {
    match frame {
        Frame::Result(res) => res.image,
        other => panic!("expected result frame, got {other:?}"),
    }
}

#[test]
fn stats_scrapes_are_monotone_and_hit_rate_matches_submissions() {
    let daemon = DaemonGuard::spawn("burst", &[], &[]);
    let mut jobs = daemon.connect();
    let mut scraper = daemon.connect();

    // One cold job, then three replays of the same trajectory: exactly
    // 1 miss and 3 hits if the wire-reported counters are truthful.
    let cold = image_of(jobs.roundtrip(&radial_request(1, 16, 7)).expect("cold"));
    for tag in 2..=4u64 {
        let hit = image_of(jobs.roundtrip(&radial_request(tag, 16, 7)).expect("hit"));
        assert_eq!(cold, hit, "cache hits must be bitwise identical");
    }

    let s1 = scraper.stats().expect("first scrape");
    assert_eq!(s1.stats_version, STATS_VERSION);
    assert_eq!(s1.cache.misses, 1, "one cold plan");
    assert_eq!(s1.cache.hits, 3, "three replays");
    assert!((s1.cache.hit_rate() - 0.75).abs() < 1e-12);
    assert_eq!(s1.cache.len, 1);
    assert_eq!(s1.counter("serve.jobs"), Some(4));
    assert!(s1.uptime_ns > 0);
    assert!(!s1.workers.is_empty(), "worker pool counters must appear");
    assert!(
        s1.window("serve.job_latency_ns.60s")
            .is_some_and(|w| w.hist.count == 4),
        "windowed latency must cover all four jobs: {:?}",
        s1.windows
    );
    assert!(
        s1.flight.iter().any(|e| e.request_id == 1),
        "flight recorder must name request 1: {:?}",
        s1.flight
    );

    // Burst while scraping: stats answers must stay consistent and the
    // counters monotone, and scraping must not perturb job results.
    let socket = daemon.socket.clone();
    let burst = std::thread::spawn(move || {
        let mut c = ServeClient::connect(&socket).expect("connect");
        c.set_read_timeout(Duration::from_secs(60)).unwrap();
        for tag in 10..26u64 {
            let img = image_of(c.roundtrip(&radial_request(tag, 16, 7)).expect("burst job"));
            assert!(!img.is_empty());
        }
        c
    });
    let mut prev = s1.clone();
    while !burst.is_finished() {
        let s = scraper.stats().expect("mid-burst scrape");
        assert!(s.uptime_ns >= prev.uptime_ns, "uptime must be monotone");
        assert!(s.cache.hits >= prev.cache.hits, "hits must be monotone");
        assert!(
            s.cache.misses >= prev.cache.misses,
            "misses must be monotone"
        );
        assert!(
            s.counter("serve.jobs").unwrap_or(0) >= prev.counter("serve.jobs").unwrap_or(0),
            "job counter must be monotone"
        );
        prev = s;
    }
    let mut jobs2 = burst.join().expect("burst thread");

    let s2 = scraper.stats().expect("final scrape");
    assert_eq!(s2.cache.misses, 1, "burst replays the cached trajectory");
    assert_eq!(s2.cache.hits, 3 + 16);
    assert_eq!(s2.counter("serve.jobs"), Some(20));

    // Scraping active never perturbs reconstruction bytes.
    let post = image_of(jobs2.roundtrip(&radial_request(99, 16, 7)).expect("post"));
    assert_eq!(cold, post);

    jobs.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));
}

#[test]
fn request_stats_cli_formats() {
    let daemon = DaemonGuard::spawn("cli", &[], &[]);
    let mut client = daemon.connect();
    let _ = image_of(client.roundtrip(&radial_request(1, 16, 3)).expect("job"));
    let _ = image_of(client.roundtrip(&radial_request(2, 16, 3)).expect("job"));

    let run = |fmt: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
            .args(["request", "--socket"])
            .arg(&daemon.socket)
            .args(["--stats", "--format", fmt])
            .output()
            .expect("run jigsaw request --stats");
        assert!(
            out.status.success(),
            "--format {fmt} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    let prom = run("prom");
    assert!(prom.contains("serve_cache_hit"), "{prom}");
    assert!(prom.contains("serve_job_latency_ns_bucket"), "{prom}");
    assert!(prom.contains("# TYPE"), "{prom}");

    let json = run("json");
    let doc = jigsaw_telemetry::json::parse(&json).expect("stats JSON parses");
    assert_eq!(
        doc.get("stats_version").and_then(|v| v.as_f64()),
        Some(f64::from(STATS_VERSION))
    );
    let cache = doc.get("cache").expect("cache object");
    assert_eq!(cache.get("hits").and_then(|v| v.as_f64()), Some(1.0));

    let table = run("table");
    assert!(table.contains("hit rate"), "{table}");

    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));
}

#[test]
fn contained_panic_dumps_flight_tail_naming_request_id() {
    // Arm one serve.job fault. The daemon must survive, the client gets
    // a structured error, and stderr carries a flight-recorder dump
    // that names the request that died.
    let stderr_path =
        std::env::temp_dir().join(format!("jigsaw-stats-panic-{}.stderr", std::process::id()));
    let stderr_file = std::fs::File::create(&stderr_path).expect("stderr capture file");
    let daemon = DaemonGuard::spawn_with_stderr(
        "panic",
        &[],
        &[("JIGSAW_FAULTS", "site=serve.job,seed=7,rate=1,fires=1")],
        Stdio::from(stderr_file),
    );

    let mut client = daemon.connect();
    match client.roundtrip(&radial_request(4242, 16, 9)).expect("rt") {
        Frame::Error(e) => assert_eq!(e.tag, 4242),
        other => panic!("expected error frame from faulted job, got {other:?}"),
    }
    // The daemon survived: the next job (fault spent) succeeds.
    let _ = image_of(client.roundtrip(&radial_request(4243, 16, 9)).expect("rt"));
    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));

    let text = std::fs::read_to_string(&stderr_path).expect("captured stderr");
    let _ = std::fs::remove_file(&stderr_path);
    assert!(
        text.contains("contained panic in job request_id=4242"),
        "panic banner must name the request: {text}"
    );
    assert!(
        text.contains("fault_fired") && text.contains("req=4242"),
        "flight dump must carry the fatal request's events: {text}"
    );
}

#[test]
fn trace_out_carries_request_id_on_job_spans() {
    let trace =
        std::env::temp_dir().join(format!("jigsaw-stats-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let daemon = DaemonGuard::spawn("trace", &["--trace-out".as_ref(), trace.as_os_str()], &[]);
    let mut client = daemon.connect();
    let _ = image_of(client.roundtrip(&radial_request(777, 16, 5)).expect("job"));
    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    // Every span below the traced job carries the request id as a
    // `req` arg, so the trace can be filtered to one request.
    assert!(text.contains("\"req\": 777"), "no req arg in trace");
    // The whole path must be filterable to the request — including
    // spans emitted on pooled worker threads (engine.job) and inside
    // the FFT layer, which inherit the id through the dispatch seam.
    for span in [
        "serve.job",
        "nufft.adjoint_batch_planned",
        "engine.dispatch",
        "engine.job",
        "fft.process",
    ] {
        let tagged = text
            .lines()
            .any(|l| l.contains(&format!("\"name\": \"{span}\"")) && l.contains("\"req\": 777"));
        assert!(
            tagged,
            "span {span} is missing or not tagged with the request id"
        );
    }
}
