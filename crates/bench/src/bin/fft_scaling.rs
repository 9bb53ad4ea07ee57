//! Uniform-FFT scaling: serial strided walk vs cache-blocked serial.
//!
//! The paper's point of attack is gridding (99.6 % of NuFFT time on CPU,
//! §I), but once gridding is parallel the uniform FFT becomes a visible
//! share of a single-coil reconstruction. This bench measures the
//! cache-blocked pass against the line-at-a-time walk it replaced and
//! records both in `BENCH_fft_scaling.json`:
//!
//! 1. `serial_naive` — the pre-blocking baseline: per-line strided
//!    gather/scatter with one 1-D FFT call per line (what
//!    `FftNd::process` did before cache-blocked panels).
//! 2. `serial_blocked` — today's `FftNd::process`: gather `PANEL_LINES`
//!    lines at a time into contiguous scratch, batched 1-D FFTs, scatter.
//!
//! Sizes cover every 1-D kernel class: 256² (radix-4), 320² (Bluestein,
//! even), 255² (Bluestein, odd). The naive output is asserted **bitwise
//! identical** to `serial_blocked` before timing is trusted.
//!
//! Run with `cargo run --release -p jigsaw-bench --bin fft_scaling`
//! (append `--quick` for smoke runs).

use jigsaw_bench::harness::{fmt_time, BenchGroup, Stats};
use jigsaw_bench::HarnessArgs;
use jigsaw_fft::{Direction, Fft1d, FftNd};
use jigsaw_num::C64;

/// The pre-PR serial N-D pass: per-line strided gather, one 1-D FFT call
/// per line, strided scatter. Kept here (not in the library) as the
/// honest baseline the blocked path is measured against.
fn naive_nd_process(dims: &[usize], plans: &[Fft1d<f64>], data: &mut [C64], dir: Direction) {
    let rank = dims.len();
    // Same axis order as `FftNd::process` (0 → rank−1) so the per-line
    // transforms see identical inputs and the comparison is bitwise.
    for axis in 0..rank {
        let d = dims[axis];
        let stride: usize = dims[axis + 1..].iter().product();
        let outer: usize = dims[..axis].iter().product();
        let plan = &plans[axis];
        let mut line = vec![C64::zeroed(); d];
        for o in 0..outer {
            let base = o * d * stride;
            for i in 0..stride {
                for (k, slot) in line.iter_mut().enumerate() {
                    *slot = data[base + i + k * stride];
                }
                plan.process(&mut line, dir);
                for (k, &v) in line.iter().enumerate() {
                    data[base + i + k * stride] = v;
                }
            }
        }
    }
}

fn random_grid(len: usize, seed: u64) -> Vec<C64> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s as f64 / u64::MAX as f64 - 0.5
    };
    (0..len).map(|_| C64::new(next(), next())).collect()
}

fn assert_bitwise(a: &[C64], b: &[C64], ctx: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{ctx}: output diverges from serial_blocked at {i}"
        );
    }
}

struct JsonRecord {
    size: usize,
    id: String,
    median_seconds: f64,
    min_seconds: f64,
}

struct SizeSummary {
    size: usize,
    kernel: &'static str,
    naive_median: f64,
    blocked_median: f64,
}

fn bench_size(
    size: usize,
    kernel: &'static str,
    samples: usize,
    records: &mut Vec<JsonRecord>,
) -> SizeSummary {
    let dims = [size, size];
    let plan = FftNd::<f64>::new(&dims);
    let naive_plans: Vec<Fft1d<f64>> = dims.iter().map(|&d| Fft1d::new(d)).collect();
    let input = random_grid(plan.len(), 0x5EED ^ size as u64);

    // Reference output (and the bitwise gate for the naive walk below).
    let mut reference = input.clone();
    plan.process(&mut reference, Direction::Forward);

    let mut group = BenchGroup::new(&format!("fft_scaling {size}x{size} ({kernel})"));
    group
        .sample_size(samples)
        .throughput_elements(plan.len() as u64);

    let push = |records: &mut Vec<JsonRecord>, id: &str, s: Stats| {
        records.push(JsonRecord {
            size,
            id: id.to_string(),
            median_seconds: s.median,
            min_seconds: s.min,
        });
    };

    let mut buf = input.clone();
    let naive = group.bench_function("serial_naive", || {
        buf.copy_from_slice(&input);
        naive_nd_process(&dims, &naive_plans, &mut buf, Direction::Forward);
    });
    assert_bitwise(&buf, &reference, "serial_naive");
    push(records, "serial_naive", naive);

    let blocked = group.bench_function("serial_blocked", || {
        buf.copy_from_slice(&input);
        plan.process(&mut buf, Direction::Forward);
    });
    assert_bitwise(&buf, &reference, "serial_blocked");
    push(records, "serial_blocked", blocked);
    group.finish();

    SizeSummary {
        size,
        kernel,
        naive_median: naive.median,
        blocked_median: blocked.median,
    }
}

fn write_json(
    path: &str,
    records: &[JsonRecord],
    summaries: &[SizeSummary],
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"threads\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    s.push_str("  \"bitwise_identical\": true,\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"size\": {}, \"id\": \"{}\", \"median_seconds\": {:.6e}, \"min_seconds\": {:.6e}}}{}\n",
            r.size,
            r.id,
            r.median_seconds,
            r.min_seconds,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedups\": [\n");
    for (i, m) in summaries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"size\": {}, \"kernel\": \"{}\", \"blocked_over_naive\": {:.4}}}{}\n",
            m.size,
            m.kernel,
            m.naive_median / m.blocked_median,
            if i + 1 == summaries.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

fn main() {
    let args = HarnessArgs::parse();
    let samples = if args.quick_divisor > 1 { 3 } else { 10 };
    if args.quick_divisor > 1 {
        println!("[quick mode: {samples} samples per point]");
    }

    println!("=== Uniform-FFT scaling: line-at-a-time vs cache-blocked ===\n");

    let mut records = Vec::new();
    let mut summaries = Vec::new();
    for (size, kernel) in [
        (256usize, "radix"),
        (320, "bluestein_even"),
        (255, "bluestein_odd"),
    ] {
        summaries.push(bench_size(size, kernel, samples, &mut records));
    }

    for m in &summaries {
        println!(
            "{s}x{s} ({k}): naive {n} | blocked {b} ({bx:.2}x)",
            s = m.size,
            k = m.kernel,
            n = fmt_time(m.naive_median),
            b = fmt_time(m.blocked_median),
            bx = m.naive_median / m.blocked_median,
        );
    }

    let path = "BENCH_fft_scaling.json";
    match write_json(path, &records, &summaries) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
