//! Summary statistics and the result line.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above the p90: the tail a p90 rests on.
pub fn beyond_p90(samples: &[f64]) -> usize {
    let p90 = percentile(samples, 0.9);
    samples.iter().filter(|&&x| x > p90).count()
}

/// An ordered list of named metrics with units.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// A JSON number: Rust's shortest round-trip form keeps every digit;
/// a non-finite value (which JSON cannot carry) becomes `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal (the benchmark only emits plain ASCII names).
pub fn string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' => "\\\"".into(),
            '\\' => "\\\\".into(),
            c if c.is_control() => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

/// `{"k": v, ...}` from already-encoded values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let m: Vec<(&str, String)> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                object(&[("value", num(*value)), ("unit", string(unit))]),
            )
        })
        .collect();
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&m)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_like_numpy() {
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&s), 6.0);
        assert_eq!(percentile(&s, 0.9), 10.0);
        assert_eq!(percentile(&[4.0, 1.0], 0.5), 2.5);
        assert_eq!(beyond_p90(&s), 1);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.234_567_890_123, "ms");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
    }
}
