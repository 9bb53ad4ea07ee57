//! Black-box protocol contract of the `jigsaw serve` daemon.
//!
//! These tests spawn the *real* binary (mirroring `exit_codes.rs`) and
//! drive the wire protocol end to end over a Unix socket and over
//! stdin/stdout framing: submit/response round trips, malformed-frame
//! handling, fault-injected job panics, and clean shutdown with exit 0.

use jigsaw_core::gridding::SerialGridder;
use jigsaw_core::serve::{
    ErrorCategory, Frame, JobRequest, Priority, ProtocolError, ServeClient, ShedReason,
};
use jigsaw_core::{traj, NufftConfig, NufftPlan};
use jigsaw_num::C64;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::DaemonGuard;

fn radial_request(tag: u64, n: u32) -> JobRequest {
    let mut coords = traj::radial_2d(8, 2 * n as usize, true);
    traj::shuffle(&mut coords, 7);
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

#[test]
fn submit_result_framing_and_clean_shutdown() {
    let daemon = DaemonGuard::spawn("roundtrip", &[], &[]);
    let mut client = daemon.connect();
    client.ping().expect("ping");

    let req = radial_request(7, 24);
    // Black-box numeric contract: the daemon's answer is bitwise equal
    // to an in-process cold serial reconstruction.
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(24)).expect("plan");
    let expected = plan
        .adjoint(&req.coords, &req.values, &SerialGridder)
        .expect("reference adjoint");

    match client.roundtrip(&req).expect("roundtrip") {
        Frame::Result(res) => {
            assert_eq!(res.tag, 7);
            assert_eq!(res.n, 24);
            assert!(!res.cache_hit, "first job must be a cold plan");
            assert_eq!(res.image.len(), expected.image.len());
            for (a, b) in res.image.iter().zip(&expected.image) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
        other => panic!("expected result frame, got {other:?}"),
    }

    // Same trajectory again: must be a cache hit with identical bytes.
    match client.roundtrip(&radial_request(8, 24)).expect("roundtrip") {
        Frame::Result(res) => {
            assert_eq!(res.tag, 8);
            assert!(res.cache_hit, "second identical job must hit the cache");
            for (a, b) in res.image.iter().zip(&expected.image) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
            }
        }
        other => panic!("expected result frame, got {other:?}"),
    }

    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0), "clean shutdown must exit 0");
}

#[test]
fn malformed_frame_gets_error_frame_and_daemon_survives() {
    let daemon = DaemonGuard::spawn("malformed", &[], &[]);

    // Write garbage straight to the socket.
    let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(b"GARBAGE-NOT-A-FRAME.............")
        .expect("write garbage");
    let mut client = ServeClient::new(&mut raw);
    match client.recv().expect("error frame") {
        Frame::Error(e) => {
            assert_eq!(e.category, ErrorCategory::Protocol);
            assert_eq!(e.tag, 0);
        }
        other => panic!("expected protocol error frame, got {other:?}"),
    }
    // The daemon closes the poisoned connection...
    let mut rest = Vec::new();
    let n = raw.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection must be closed after a malformed frame");

    // ...but keeps serving fresh connections.
    let mut client = daemon.connect();
    client
        .ping()
        .expect("daemon must survive a malformed frame");
    match client.roundtrip(&radial_request(1, 16)).expect("roundtrip") {
        Frame::Result(res) => assert_eq!(res.tag, 1),
        other => panic!("expected result frame, got {other:?}"),
    }
    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));
}

#[test]
fn semantic_errors_keep_the_connection_open() {
    let daemon = DaemonGuard::spawn("semantic", &[], &[]);
    let mut client = daemon.connect();

    // Non-finite coordinate: a tagged data-category error frame.
    let mut bad = radial_request(31, 16);
    bad.coords[0][0] = f64::INFINITY;
    match client.roundtrip(&bad).expect("roundtrip") {
        Frame::Error(e) => {
            assert_eq!(e.tag, 31);
            assert_eq!(e.category, ErrorCategory::Data);
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // Zero-millisecond budget: refused with a budget error frame.
    let mut starved = radial_request(32, 16);
    starved.budget_ms = 1;
    std::thread::sleep(Duration::from_millis(5));
    // (budget starts at submit; job of this size cannot finish in 1 ms
    // when an artificial queue wait is imposed by the sleep above —
    // accept either outcome but require the tag to round-trip. A job
    // still queued when its budget runs out is shed with the daemon's
    // expired-deadline reply.)
    match client.roundtrip(&starved).expect("roundtrip") {
        Frame::Error(e) => assert_eq!(e.tag, 32),
        Frame::Result(r) => assert_eq!(r.tag, 32),
        Frame::Overloaded(o) => {
            assert_eq!(o.tag, 32);
            assert_eq!(o.reason, ShedReason::DeadlineExpired);
        }
        other => panic!("unexpected frame {other:?}"),
    }

    // Same connection still works.
    match client
        .roundtrip(&radial_request(33, 16))
        .expect("roundtrip")
    {
        Frame::Result(res) => assert_eq!(res.tag, 33),
        other => panic!("expected result frame, got {other:?}"),
    }
    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));
}

#[test]
fn injected_job_fault_returns_error_frame_and_daemon_survives() {
    // Arm exactly one serve.job fire via the environment, as a real
    // chaos run would: the first job comes back as a structured
    // execution-error frame, the second succeeds, the daemon exits 0.
    let daemon = DaemonGuard::spawn(
        "faulted",
        &[],
        &[("JIGSAW_FAULTS", "site=serve.job,seed=7,rate=1,fires=1")],
    );
    let mut client = daemon.connect();

    match client
        .roundtrip(&radial_request(51, 16))
        .expect("roundtrip")
    {
        Frame::Error(e) => {
            assert_eq!(e.tag, 51);
            assert_eq!(e.category, ErrorCategory::Execution);
            assert!(e.message.contains("serve.job"), "{}", e.message);
        }
        other => panic!("expected execution error frame, got {other:?}"),
    }

    match client
        .roundtrip(&radial_request(52, 16))
        .expect("roundtrip")
    {
        Frame::Result(res) => assert_eq!(res.tag, 52),
        other => panic!("daemon must survive the fault, got {other:?}"),
    }
    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));
}

#[test]
fn concurrent_clients_each_get_their_own_tagged_results() {
    let daemon = DaemonGuard::spawn("concurrent", &[], &[]);
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let socket = daemon.socket.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(&socket).expect("connect");
            client.set_read_timeout(Duration::from_secs(60)).unwrap();
            for j in 0..3u64 {
                let tag = 100 * c + j;
                let mut req = radial_request(tag, 16);
                req.priority = if c == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                };
                match client.roundtrip(&req).expect("roundtrip") {
                    Frame::Result(res) => {
                        assert_eq!(res.tag, tag, "responses must stay per-connection");
                        assert_eq!(res.image.len(), 256);
                    }
                    other => panic!("expected result frame, got {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let mut client = daemon.connect();
    client.shutdown().expect("shutdown ack");
    assert_eq!(daemon.wait(), Some(0));
}

#[test]
fn drain_then_restart_serves_first_request_from_warm_cache() {
    let snap = std::env::temp_dir().join(format!(
        "jigsaw-serve-test-restart-{}.snap",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snap);
    let args: &[&std::ffi::OsStr] = &["--snapshot".as_ref(), snap.as_os_str()];

    // Lifetime 1: warm the plan cache, then drain under load — a
    // pipelined burst with the Drain frame in the middle, so the
    // daemon must answer every accepted job exactly once, refuse the
    // late submit with Overloaded{draining}, snapshot, and exit 0.
    let daemon = DaemonGuard::spawn("restart-a", args, &[]);
    let mut client = daemon.connect();
    for tag in 1..=2u64 {
        client.submit(&radial_request(tag, 24)).expect("submit");
    }
    client.send(&Frame::Drain).expect("drain");
    client.submit(&radial_request(9, 24)).expect("late submit");
    let mut results = Vec::new();
    let mut acked = false;
    let mut late_shed = None;
    for _ in 0..4 {
        match client.recv().expect("drain-session reply") {
            Frame::Pong => acked = true,
            Frame::Result(r) => results.push(r.tag),
            Frame::Overloaded(o) => late_shed = Some(o),
            other => panic!("unexpected frame during drain: {other:?}"),
        }
    }
    assert!(acked, "drain must be acked with Pong");
    results.sort_unstable();
    assert_eq!(results, vec![1, 2], "every accepted job exactly one reply");
    let shed = late_shed.expect("late submit must be refused");
    assert_eq!(shed.tag, 9);
    assert_eq!(shed.reason, ShedReason::Draining);
    assert_eq!(daemon.wait(), Some(0), "graceful drain must exit 0");
    assert!(snap.exists(), "drain must persist the snapshot");

    // Lifetime 2: a fresh daemon process restores the snapshot; the
    // very first identical request over the real wire is a cache hit.
    let daemon = DaemonGuard::spawn("restart-b", args, &[]);
    let mut client = daemon.connect();
    match client
        .roundtrip(&radial_request(10, 24))
        .expect("roundtrip")
    {
        Frame::Result(res) => {
            assert_eq!(res.tag, 10);
            assert!(
                res.cache_hit,
                "first post-restart request must hit the restored cache"
            );
        }
        other => panic!("expected result frame, got {other:?}"),
    }
    client.drain().expect("drain ack");
    assert_eq!(daemon.wait(), Some(0));
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn sigterm_drains_gracefully_and_snapshots() {
    let snap = std::env::temp_dir().join(format!(
        "jigsaw-serve-test-sigterm-{}.snap",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snap);
    let args: &[&std::ffi::OsStr] = &["--snapshot".as_ref(), snap.as_os_str()];
    let daemon = DaemonGuard::spawn("sigterm", args, &[]);
    let mut client = daemon.connect();
    match client
        .roundtrip(&radial_request(41, 16))
        .expect("roundtrip")
    {
        Frame::Result(res) => assert_eq!(res.tag, 41),
        other => panic!("expected result frame, got {other:?}"),
    }
    // `kill <pid>`: supervised rotation, not data loss — the daemon
    // must drain, snapshot its warm cache, and exit 0.
    let status = Command::new("kill")
        .arg(daemon.child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    assert_eq!(daemon.wait(), Some(0), "SIGTERM must exit 0, not crash");
    assert!(snap.exists(), "SIGTERM drain must persist the snapshot");
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn corrupted_snapshot_degrades_to_cold_start_and_clean_exit() {
    let snap = std::env::temp_dir().join(format!(
        "jigsaw-serve-test-corrupt-{}.snap",
        std::process::id()
    ));
    std::fs::write(&snap, b"JGSPtorn-mid-write-garbage-bytes").expect("plant corrupt snapshot");
    let args: &[&std::ffi::OsStr] = &["--snapshot".as_ref(), snap.as_os_str()];
    let daemon = DaemonGuard::spawn("corrupt-snap", args, &[]);
    let mut client = daemon.connect();
    match client
        .roundtrip(&radial_request(21, 16))
        .expect("roundtrip")
    {
        Frame::Result(res) => {
            assert_eq!(res.tag, 21);
            assert!(!res.cache_hit, "corrupt snapshot must mean a cold start");
        }
        other => panic!("expected result frame, got {other:?}"),
    }
    client.shutdown().expect("shutdown ack");
    assert_eq!(
        daemon.wait(),
        Some(0),
        "a corrupt snapshot must never wedge or crash the daemon"
    );
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn request_timeout_flag_bounds_a_stalled_daemon() {
    // A fake daemon that accepts and then never replies: the client's
    // --timeout-ms receive deadline must turn the stall into a prompt
    // error instead of hanging the request forever.
    let socket = std::env::temp_dir().join(format!(
        "jigsaw-serve-test-stall-{}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&socket);
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind stall socket");
    let stall = std::thread::spawn(move || {
        // Hold the connection open, read and discard, never write.
        if let Ok((mut conn, _)) = listener.accept() {
            let mut sink = [0u8; 4096];
            while let Ok(n) = conn.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        }
    });
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args(["request", "--socket"])
        .arg(&socket)
        .args(["--timeout-ms", "300", "--ping"])
        .output()
        .expect("run jigsaw request");
    assert!(
        !out.status.success(),
        "a stalled daemon must be an error, got {out:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "--timeout-ms must bound the stall, took {:?}",
        t0.elapsed()
    );
    // A zero deadline is a configuration error (exit 2), not a hang.
    let out = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args(["request", "--socket"])
        .arg(&socket)
        .args(["--timeout-ms", "0", "--ping"])
        .output()
        .expect("run jigsaw request");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    drop(stall); // detached on purpose: the listener thread exits when the socket closes
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn stdio_framing_round_trips_and_exits_zero() {
    // The socket-free fallback: frames on stdin/stdout.
    let mut child = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args(["serve", "--stdio"])
        .env_remove("JIGSAW_FAULTS")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn jigsaw serve --stdio");

    let req = radial_request(61, 16);
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        stdin
            .write_all(&jigsaw_core::serve::protocol::encode(&Frame::Ping))
            .unwrap();
        stdin
            .write_all(&jigsaw_core::serve::protocol::encode(&Frame::Submit(
                req.clone(),
            )))
            .unwrap();
        stdin
            .write_all(&jigsaw_core::serve::protocol::encode(&Frame::Shutdown))
            .unwrap();
        stdin.flush().unwrap();
    }
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(0), "stdio shutdown must exit 0");

    let mut r = std::io::Cursor::new(out.stdout);
    let mut frames = Vec::new();
    loop {
        match jigsaw_core::serve::protocol::read_frame(&mut r) {
            Ok(f) => frames.push(f),
            Err(ProtocolError::Eof) => break,
            Err(e) => panic!("bad frame on stdout: {e}"),
        }
    }
    assert!(frames.contains(&Frame::Pong), "{frames:?}");
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Frame::Result(res) if res.tag == 61 && res.image.len() == 256)),
        "no result frame for the submitted job: {frames:?}"
    );
}
