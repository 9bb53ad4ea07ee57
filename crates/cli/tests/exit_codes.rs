//! Black-box exit-code contract of the `jigsaw` binary.
//!
//! The CLI promises stable, category-specific exit codes (see
//! `src/error.rs`): 0 success, 1 usage, 2 configuration, 3 data,
//! 4 execution, 5 budget — each with a one-line `error:` diagnostic on
//! stderr. Scripts and CI branch on these, so they are pinned here by
//! running the real binary.

use std::process::{Command, Output};

fn jigsaw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args(args)
        .env_remove("JIGSAW_FAULTS")
        .output()
        .expect("failed to spawn jigsaw binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn success_is_zero() {
    let out = jigsaw(&["info"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_command_is_one() {
    let out = jigsaw(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn config_error_is_two() {
    // An unknown gridding engine is a configuration problem.
    let out = jigsaw(&["recon", "--n", "16", "--engine", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    let line = err.lines().next().unwrap_or("");
    assert!(
        line.starts_with("error: configuration error:"),
        "first stderr line: {line}"
    );

    // So is a non-numeric flag value.
    let out = jigsaw(&["recon", "--n", "banana"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_flag_is_two_and_starts_no_work() {
    // A flag the subcommand does not read is refused up front, naming the
    // flag, instead of silently running with its default.
    for args in [
        &["recon", "--backend", "scoped"][..],
        &["gridbench", "--backend", "scoped"][..],
    ] {
        let out = jigsaw(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        let line = err.lines().next().unwrap_or("");
        assert!(
            line.starts_with("error: configuration error:") && line.contains("--backend"),
            "{args:?}: first stderr line: {line}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started work");
    }

    // The flags recon reads still run.
    let path = std::env::temp_dir().join(format!("jigsaw-flags-{}.pgm", std::process::id()));
    let out = jigsaw(&[
        "recon",
        "--n",
        "32",
        "--spokes",
        "8",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn data_error_is_three() {
    // An unwritable output path is a data problem.
    let out = jigsaw(&[
        "recon",
        "--n",
        "16",
        "--spokes",
        "4",
        "--out",
        "/proc/definitely/not/writable/recon.pgm",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.lines().any(|l| l.starts_with("error: data error:")),
        "stderr: {err}"
    );
}

#[test]
fn execution_error_is_four() {
    // Inject a fault into the per-coil batch jobs with the serial
    // fallback disabled: the contained panic must surface as an
    // execution error, not a crash (exit 101/134) or a hang.
    let out = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args(["recon", "--n", "16", "--spokes", "4", "--coils", "2"])
        .env("JIGSAW_FAULTS", "site=nufft.coil,seed=7,rate=1,fires=1")
        .env("JIGSAW_FALLBACK", "0")
        .output()
        .expect("failed to spawn jigsaw binary");
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: execution error:")),
        "stderr: {err}"
    );
    assert!(err.contains("nufft.coil"), "stderr: {err}");
}

#[test]
fn strict_gridding_fault_is_four() {
    // A fault in a gridding engine's pooled job obeys the same policy
    // as a coil job: with the fallback disabled it is an execution
    // error, not a silently degraded success.
    let out = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args(["recon", "--n", "16", "--spokes", "4"])
        .env("JIGSAW_FAULTS", "site=gridding.chunk,seed=7,rate=1,fires=1")
        .env("JIGSAW_FALLBACK", "0")
        .output()
        .expect("failed to spawn jigsaw binary");
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: execution error:")),
        "stderr: {err}"
    );
    assert!(err.contains("gridding.chunk"), "stderr: {err}");
}

#[test]
fn budget_error_is_five() {
    // A 1 ms budget exhausts during acquisition/setup, before the first
    // CG iteration completes — no usable iterate exists, so this is a
    // hard budget error rather than a degraded result.
    let out = jigsaw(&["recon", "--n", "64", "--cg", "8", "--time-budget-ms", "1"]);
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: budget exhausted:")),
        "stderr: {err}"
    );
}

#[test]
fn fault_with_fallback_degrades_to_success() {
    // Same injected fault as `execution_error_is_four`, but with the
    // default fallback policy: the run must succeed (exit 0) and count
    // the degradation in the metrics table.
    let out = Command::new(env!("CARGO_BIN_EXE_jigsaw"))
        .args([
            "recon",
            "--n",
            "16",
            "--spokes",
            "4",
            "--coils",
            "2",
            "--metrics",
        ])
        .env("JIGSAW_FAULTS", "site=nufft.coil,seed=7,rate=1,fires=1")
        .env("JIGSAW_TELEMETRY", "1")
        .env_remove("JIGSAW_FALLBACK")
        .output()
        .expect("failed to spawn jigsaw binary");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.contains("engine.fallbacks"))
        .unwrap_or_else(|| panic!("no engine.fallbacks row in metrics:\n{stdout}"));
    let value: u64 = row
        .split_whitespace()
        .find_map(|tok| tok.parse().ok())
        .unwrap_or_else(|| panic!("no numeric value in row: {row}"));
    assert!(value > 0, "engine.fallbacks must be nonzero: {row}");
}
