//! A small synchronous client for the serve protocol, used by the
//! `jigsaw request` CLI command and the black-box test suite.
//!
//! The overload-aware entry points ([`ServeClient::connect_with_retry`],
//! [`ServeClient::roundtrip_with_retry`]) retry refused work with
//! exponential backoff and deterministic seeded jitter, honoring the
//! daemon's `retry_after_ms` hint: the delay before attempt `k` is
//! `max(backoff_ms · 2^k ± 25 % jitter, retry_after_ms)`. An
//! `Overloaded` frame leaves the connection open — the daemon refused
//! the *job*, not the client — so resubmission reuses the stream.

use super::protocol::{read_frame, write_frame, Frame, JobRequest, ProtocolError};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Retry schedule for overload-aware submits: exponential backoff with
/// deterministic seeded jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = give up immediately on the
    /// first `Overloaded` refusal).
    pub retries: u32,
    /// Base backoff before retry `k`: `backoff_ms · 2^k`, jittered.
    pub backoff_ms: u64,
    /// Jitter seed — the same seed replays the same delays, so soak
    /// runs stay reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 0,
            backoff_ms: 50,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (0-based), honoring the
    /// daemon's hint: `max(backoff_ms · 2^attempt ± 25 %,
    /// retry_after_ms)`. Pure — the jitter is a SplitMix64 hash of
    /// `(seed, attempt)` — so schedules are reproducible and testable.
    pub fn delay_ms(&self, attempt: u32, retry_after_ms: u32) -> u64 {
        let base = self.backoff_ms.saturating_mul(1u64 << attempt.min(20));
        // SplitMix64 over (seed, attempt): deterministic ±25 % jitter.
        let mut z = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let quarter = base / 4;
        let jittered = if quarter == 0 {
            base
        } else {
            base - quarter + (z % (2 * quarter + 1))
        };
        jittered.max(u64::from(retry_after_ms))
    }
}

/// A blocking client over any framed byte stream.
#[derive(Debug)]
pub struct ServeClient<S> {
    stream: S,
}

impl ServeClient<UnixStream> {
    /// Connect to a daemon listening on the Unix socket at `path`.
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(UnixStream::connect(path)?))
    }

    /// [`connect`](Self::connect) with retries: a connection refusal
    /// (daemon still binding, restarting, or briefly gone) is retried
    /// on the policy's backoff schedule before giving up with the last
    /// error.
    pub fn connect_with_retry(path: &Path, policy: &RetryPolicy) -> std::io::Result<Self> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) if attempt < policy.retries => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt, 0)));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Bound every receive by `timeout` so a dead daemon cannot hang
    /// the client forever.
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }
}

impl<S: Read + Write> ServeClient<S> {
    /// Wrap an already-connected stream.
    pub fn new(stream: S) -> Self {
        Self { stream }
    }

    /// Send one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ProtocolError> {
        write_frame(&mut self.stream, frame).map_err(ProtocolError::from)
    }

    /// Receive the next frame.
    pub fn recv(&mut self) -> Result<Frame, ProtocolError> {
        read_frame(&mut self.stream)
    }

    /// Liveness probe: `Ping`, expect `Pong`.
    pub fn ping(&mut self) -> Result<(), ProtocolError> {
        self.send(&Frame::Ping)?;
        match self.recv()? {
            Frame::Pong => Ok(()),
            other => Err(ProtocolError::Malformed(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Submit a job without waiting for its result.
    pub fn submit(&mut self, req: &JobRequest) -> Result<(), ProtocolError> {
        self.send(&Frame::Submit(req.clone()))
    }

    /// Submit a job and block for the next response frame (a `Result`,
    /// `Error`, or `Overloaded` frame carrying the request's tag).
    pub fn roundtrip(&mut self, req: &JobRequest) -> Result<Frame, ProtocolError> {
        self.submit(req)?;
        self.recv()
    }

    /// [`roundtrip`](Self::roundtrip), resubmitting on `Overloaded`
    /// refusals: backs off per the policy (never less than the daemon's
    /// `retry_after_ms` hint) and tries again on the same connection.
    /// Returns the final frame — still `Overloaded` if every attempt
    /// was refused, so the caller sees the last refusal's hint.
    pub fn roundtrip_with_retry(
        &mut self,
        req: &JobRequest,
        policy: &RetryPolicy,
    ) -> Result<Frame, ProtocolError> {
        let mut attempt = 0u32;
        loop {
            match self.roundtrip(req)? {
                Frame::Overloaded(o) if attempt < policy.retries => {
                    std::thread::sleep(Duration::from_millis(
                        policy.delay_ms(attempt, o.retry_after_ms),
                    ));
                    attempt += 1;
                }
                frame => return Ok(frame),
            }
        }
    }

    /// Scrape the daemon's live introspection snapshot:
    /// `StatsRequest`, expect `StatsReply`.
    pub fn stats(&mut self) -> Result<Box<super::stats::StatsSnapshot>, ProtocolError> {
        self.send(&Frame::StatsRequest)?;
        match self.recv()? {
            Frame::StatsReply(s) => Ok(s),
            other => Err(ProtocolError::Malformed(format!(
                "expected stats reply, got {other:?}"
            ))),
        }
    }

    /// Ask the daemon to drain and exit; waits for the `Pong` ack.
    pub fn shutdown(&mut self) -> Result<(), ProtocolError> {
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::Pong => Ok(()),
            other => Err(ProtocolError::Malformed(format!(
                "expected shutdown ack, got {other:?}"
            ))),
        }
    }

    /// Ask the daemon to drain *gracefully* — finish accepted jobs,
    /// refuse new ones with `Overloaded{draining}`, snapshot its plan
    /// cache, exit 0 — and wait for the `Pong` ack. The connection
    /// stays usable for reading replies to already-submitted jobs.
    pub fn drain(&mut self) -> Result<(), ProtocolError> {
        self.send(&Frame::Drain)?;
        match self.recv()? {
            Frame::Pong => Ok(()),
            other => Err(ProtocolError::Malformed(format!(
                "expected drain ack, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::protocol::{encode, JobResult, OverloadFrame, Priority, ShedReason};
    use super::*;
    use jigsaw_num::C64;

    #[test]
    fn retry_delays_are_deterministic_exponential_and_jittered() {
        let p = RetryPolicy {
            retries: 5,
            backoff_ms: 100,
            seed: 42,
        };
        let a: Vec<u64> = (0..5).map(|k| p.delay_ms(k, 0)).collect();
        let b: Vec<u64> = (0..5).map(|k| p.delay_ms(k, 0)).collect();
        assert_eq!(a, b, "same seed replays the same schedule");
        for (k, &d) in a.iter().enumerate() {
            let base = 100u64 << k;
            assert!(
                (base - base / 4..=base + base / 4).contains(&d),
                "attempt {k}: delay {d} outside ±25% of {base}"
            );
        }
        let reseeded = RetryPolicy { seed: 43, ..p };
        let c: Vec<u64> = (0..5).map(|k| reseeded.delay_ms(k, 0)).collect();
        assert_ne!(a, c, "different seeds jitter differently");
    }

    #[test]
    fn retry_delay_never_undercuts_the_daemon_hint() {
        let p = RetryPolicy {
            retries: 1,
            backoff_ms: 1,
            seed: 7,
        };
        assert!(p.delay_ms(0, 5_000) >= 5_000);
        // Huge attempt numbers must not overflow the shift.
        let _ = p.delay_ms(u32::MAX, 0);
    }

    /// Pre-scripted daemon: reads come from a canned frame sequence,
    /// writes are discarded.
    struct Scripted(std::io::Cursor<Vec<u8>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn roundtrip_with_retry_resubmits_after_overload() {
        let req = JobRequest {
            tag: 3,
            priority: Priority::Normal,
            n: 4,
            budget_ms: 0,
            coords: vec![[0.0, 0.0]],
            values: vec![C64::new(1.0, 0.0)],
        };
        let mut script = Vec::new();
        script.extend_from_slice(&encode(&Frame::Overloaded(OverloadFrame {
            tag: 3,
            reason: ShedReason::QueueDepth,
            retry_after_ms: 1,
            message: "full".into(),
        })));
        script.extend_from_slice(&encode(&Frame::Result(JobResult {
            tag: 3,
            cache_hit: false,
            n: 1,
            image: vec![C64::new(0.0, 0.0)],
        })));
        let mut client = ServeClient::new(Scripted(std::io::Cursor::new(script)));
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
            seed: 1,
        };
        match client.roundtrip_with_retry(&req, &policy).expect("frame") {
            Frame::Result(r) => assert_eq!(r.tag, 3),
            other => panic!("expected result after one retry, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_surface_the_last_refusal() {
        let req = JobRequest {
            tag: 9,
            priority: Priority::Normal,
            n: 4,
            budget_ms: 0,
            coords: vec![[0.0, 0.0]],
            values: vec![C64::new(1.0, 0.0)],
        };
        let refusal = Frame::Overloaded(OverloadFrame {
            tag: 9,
            reason: ShedReason::QueueBytes,
            retry_after_ms: 1,
            message: "full".into(),
        });
        let mut script = Vec::new();
        for _ in 0..3 {
            script.extend_from_slice(&encode(&refusal));
        }
        let mut client = ServeClient::new(Scripted(std::io::Cursor::new(script)));
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
            seed: 1,
        };
        match client.roundtrip_with_retry(&req, &policy).expect("frame") {
            Frame::Overloaded(o) => assert_eq!(o.reason, ShedReason::QueueBytes),
            other => panic!("expected final refusal, got {other:?}"),
        }
    }
}
