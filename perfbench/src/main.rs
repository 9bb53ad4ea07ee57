//! The repository benchmark: two closed-loop workloads, six end-to-end
//! metrics each, and a traced run that times every layer.
//!
//! ```text
//! perfbench --jigsaw <path to jigsaw binary> --workload <name>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, then (traced runs) the layer ledger, and
//! ends with one JSON result line. See `README.md` for the workloads.

mod cg;
mod inputs;
mod report;
mod serve;

use report::{median, num, object, percentile, string, Metrics};
use std::path::{Path, PathBuf};

/// Every per-layer metric a traced run reports, with its unit, in
/// ledger order. A layer that is not on a workload's path reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("protocol.decode_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("nufft.plan_ms", "ms"),
    ("gridding.scatter_ms", "ms"),
    ("fft.transform_ms", "ms"),
    ("apod.deapodize_ms", "ms"),
    ("gridding.window_bytes_per_sample", "bytes"),
    ("cache.resident_plan_mb", "MB"),
    ("daemon.queue_wait_ms", "ms"),
    ("engine.worker_busy_share_min", "share"),
    ("engine.worker_busy_share_max", "share"),
    ("serve.execute_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("sense.adjoint_ms", "ms"),
    ("toeplitz.build_ms", "ms"),
    ("toeplitz.apply_batch_ms", "ms"),
    ("recon.other_ms", "ms"),
    ("recon.iterations", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// How a per-layer value was obtained.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    Measured,
    /// Derived from data-structure sizes, not timed.
    Computed,
}

/// Per-layer values of one traced run.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64, Source)>,
    /// Untraced end-to-end p50 the layers should add up to.
    pub wire_p50_ms: f64,
    /// Sum of the timed layers on the blocking path.
    pub attributed_ms: f64,
}

impl Layers {
    pub fn on(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value, Source::Measured));
    }

    pub fn computed(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value, Source::Computed));
    }

    /// `engine.worker_busy_share_min` / `_max` from per-worker shares.
    pub fn busy_shares(&mut self, shares: &[f64]) {
        let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
        let max = shares.iter().copied().fold(0.0, f64::max);
        self.on("engine.worker_busy_share_min", min);
        self.on("engine.worker_busy_share_max", max);
    }

    fn find(&self, name: &str) -> Option<(f64, Source)> {
        self.values.iter().find(|v| v.0 == name).map(|v| (v.1, v.2))
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in LAYERS {
            m.push(name, self.find(name).map_or(0.0, |v| v.0), unit);
        }
        m
    }

    fn ledger(&self, workload: &str) -> String {
        let mut out = format!("layer ledger: {workload} (per-op medians)\n");
        for &(name, unit) in LAYERS {
            let cell = match self.find(name) {
                Some((v, Source::Measured)) => format!("{v:>12.4} {unit}"),
                Some((v, Source::Computed)) => format!("{v:>12.4} {unit} (computed)"),
                None => format!("{:>12} (not on this path)", "-"),
            };
            out += &format!("  {name:<34}{cell}\n");
        }
        out += &format!(
            "  {:<34}{:>12.4} ms\n  {:<34}{:>12.4} ms\n",
            "end-to-end p50 (untraced)",
            self.wire_p50_ms,
            "sum of timed layers",
            self.attributed_ms
        );
        out
    }
}

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub beyond_p90: usize,
    pub metrics: Metrics,
    pub layers: Option<Layers>,
}

impl Outcome {
    /// The six end-to-end metrics of an untraced run.
    pub fn end_to_end(
        latencies_ms: &[f64],
        attempted: u64,
        failed: u64,
        wall_s: f64,
        setup_s: f64,
        peak_rss_mb: f64,
        rel_error: f64,
    ) -> Self {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", median(latencies_ms), "ms");
        m.push("latency_p90_ms", percentile(latencies_ms, 0.9), "ms");
        m.push(
            "throughput_ops_s",
            latencies_ms.len() as f64 / wall_s,
            "1/s",
        );
        m.push("setup_s", setup_s, "s");
        m.push("peak_rss_mb", peak_rss_mb, "MB");
        m.push("rel_error", rel_error, "ratio");
        Self {
            attempted,
            failed,
            samples: latencies_ms.len(),
            beyond_p90: report::beyond_p90(latencies_ms),
            metrics: m,
            layers: None,
        }
    }
}

impl Outcome {
    /// A traced run: `latencies_ms` are its untraced phase's samples.
    pub fn traced(latencies_ms: &[f64], attempted: u64, failed: u64, layers: Layers) -> Self {
        Self {
            attempted,
            failed,
            samples: latencies_ms.len(),
            beyond_p90: report::beyond_p90(latencies_ms),
            metrics: Metrics::default(),
            layers: Some(layers),
        }
    }
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

struct Args {
    jigsaw: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        jigsaw: PathBuf::from(get("--jigsaw")?),
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn run(a: &Args, dir: &Path) -> Result<Outcome, String> {
    let (bin, s, t) = (a.jigsaw.as_path(), a.seed, a.seconds);
    match (a.workload.as_str(), a.trace) {
        ("serve_churn", false) => serve::run(bin, dir, s, t),
        ("serve_churn", true) => serve::trace(bin, dir, s, t),
        ("cg_sense", false) => cg::run(s, t),
        ("cg_sense", true) => cg::trace(s, t),
        (other, _) => Err(format!(
            "unknown workload `{other}` (serve_churn | cg_sense)"
        )),
    }
}

fn main() {
    // The benchmark process itself runs untraced; only the traced phase
    // of `cg_sense` turns the program's telemetry on.
    jigsaw_telemetry::set_enabled(false);
    let result = parse_args().and_then(|a| {
        // Sockets live in a run directory under the working directory
        // (relative, so the 108-byte socket-path limit never bites).
        let dir = PathBuf::from(".bench_build").join("perfbench-run");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        run(&a, &dir).map(|o| (a, o))
    });
    let (a, o) = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let provenance = object(&[
        (
            "git_rev",
            string(&std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "profile",
            string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", string(&a.workload)),
        ("seed", a.seed.to_string()),
        ("seconds", num(a.seconds)),
        ("trace", (a.trace as u8).to_string()),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        ("latency_samples", o.samples.to_string()),
        ("samples_beyond_p90", o.beyond_p90.to_string()),
    ]);
    println!("{}", object(&[("provenance", provenance)]));
    let metrics = match &o.layers {
        Some(layers) => {
            print!("{}", layers.ledger(&a.workload));
            layers.metrics()
        }
        None => o.metrics,
    };
    let correct = o.failed == 0 && o.samples > 0;
    println!(
        "{}",
        report::result_line(correct, o.attempted, o.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_telemetry::json::{parse, Value};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        doc.get(section)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn names_units(m: &Metrics) -> Vec<(String, String)> {
        m.0.iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_declaration() {
        let e2e = Outcome::end_to_end(&[1.0, 2.0], 2, 0, 1.0, 0.5, 10.0, 1e-3);
        assert_eq!(names_units(&e2e.metrics), declared("end_to_end"));
        assert_eq!(
            names_units(&Layers::default().metrics()),
            declared("per_layer")
        );
    }
}
