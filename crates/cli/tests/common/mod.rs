//! The daemon harness shared by the black-box `jigsaw serve` suites.

use jigsaw_core::serve::ServeClient;
use std::ffi::OsStr;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `jigsaw serve` child on a Unix socket, killed on drop so a failing
/// test can't leak processes or wedge the suite.
pub struct DaemonGuard {
    pub child: Child,
    pub socket: PathBuf,
}

impl DaemonGuard {
    /// [`Self::spawn_with_stderr`] with the daemon's stderr discarded.
    pub fn spawn(name: &str, args: &[&OsStr], env: &[(&str, &str)]) -> Self {
        Self::spawn_with_stderr(name, args, env, Stdio::null())
    }

    /// Spawn `jigsaw serve --socket <tmp>/jigsaw-serve-test-<name>-<pid>.sock
    /// <args>` with `env` set and stderr on `stderr`, and return once the
    /// daemon answers a ping. `JIGSAW_FAULTS` is not inherited; a test
    /// that arms a fault passes it in `env`.
    ///
    /// The socket file appears at bind(2), before the daemon listens, and
    /// a connect in that gap is refused, so only a `Pong` shows that the
    /// daemon accepts connections. A ping is answered inline on the
    /// connection's reader thread: no counter, cache entry or flight
    /// record sees it.
    #[allow(dead_code)] // only `serve_stats` captures the daemon's stderr
    pub fn spawn_with_stderr(
        name: &str,
        args: &[&OsStr],
        env: &[(&str, &str)],
        stderr: Stdio,
    ) -> Self {
        let socket = std::env::temp_dir().join(format!(
            "jigsaw-serve-test-{name}-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
            .args(["serve", "--socket"])
            .arg(&socket)
            .args(args)
            .env_remove("JIGSAW_FAULTS")
            .envs(env.iter().copied())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .expect("failed to spawn jigsaw serve");
        let mut guard = Self { child, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = guard.child.try_wait() {
                panic!("daemon exited early with {status}");
            }
            if let Ok(mut client) = ServeClient::connect(&guard.socket) {
                let timeout = client.set_read_timeout(Duration::from_secs(30));
                if timeout.is_ok() && client.ping().is_ok() {
                    return guard;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never answered a ping on {}",
                guard.socket.display()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A fresh client with a 60 s read timeout, retrying refused
    /// connects for up to 10 s.
    pub fn connect(&self) -> ServeClient<UnixStream> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match ServeClient::connect(&self.socket) {
                Ok(c) => {
                    c.set_read_timeout(Duration::from_secs(60))
                        .expect("timeout");
                    return c;
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot connect: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Wait for exit and return the status code.
    pub fn wait(mut self) -> Option<i32> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.code();
            }
            assert!(Instant::now() < deadline, "daemon did not exit");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}
