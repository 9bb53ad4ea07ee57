//! Minimal `--flag value` / `--flag` argument parser (std-only, per the
//! workspace dependency policy).

use std::collections::BTreeMap;

/// Parsed options: `--key value` pairs and bare `--switch` flags.
pub struct Options {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Options {
    /// Parse an argument list. `--key value` stores a pair; a `--key`
    /// followed by another `--…` (or nothing) is a switch.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{a}`"));
            };
            if key.is_empty() {
                return Err("empty flag `--`".into());
            }
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    switches.push(key.to_string());
                    i += 1;
                }
            }
        }
        Ok(Self { values, switches })
    }

    /// Integer option with default.
    pub fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }

    /// Float option with default.
    pub fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    /// String option with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Whether a bare switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Refuse the first flag `cmd` does not read, so a mistyped or
    /// unsupported flag fails instead of silently taking its default.
    pub fn reject_unknown(&self, cmd: &str, accepted: &[&str]) -> Result<(), String> {
        match self
            .values
            .keys()
            .chain(&self.switches)
            .find(|k| !accepted.contains(&k.as_str()))
        {
            Some(k) => Err(format!("`{cmd}` does not accept --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let o = Options::parse(&argv(&["--n", "128", "--sorted", "--out", "x.pgm"])).unwrap();
        assert_eq!(o.usize("n", 0).unwrap(), 128);
        assert!(o.switch("sorted"));
        assert_eq!(o.string("out", ""), "x.pgm");
        assert!(!o.switch("missing"));
        assert_eq!(o.usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn trailing_switch() {
        let o = Options::parse(&argv(&["--cycle-accurate"])).unwrap();
        assert!(o.switch("cycle-accurate"));
    }

    #[test]
    fn rejects_flags_outside_the_accepted_set() {
        let o = Options::parse(&argv(&["--n", "32", "--metrics"])).unwrap();
        assert!(o.reject_unknown("recon", &["n", "metrics"]).is_ok());
        let e = o.reject_unknown("recon", &["n"]).unwrap_err();
        assert!(e.contains("--metrics"), "{e}");
        let e = o.reject_unknown("recon", &["metrics"]).unwrap_err();
        assert!(e.contains("--n"), "{e}");
    }

    #[test]
    fn rejects_positional_and_bad_numbers() {
        assert!(Options::parse(&argv(&["positional"])).is_err());
        let o = Options::parse(&argv(&["--n", "abc"])).unwrap();
        assert!(o.usize("n", 0).is_err());
        assert!(o.f64("n", 0.0).is_err());
    }
}
