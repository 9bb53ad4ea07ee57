//! CLI failure classification and stable process exit codes.
//!
//! Every command failure is classified into one of four categories so
//! scripts and CI can branch on the exit status without parsing stderr:
//!
//! | category   | exit code | meaning                                        |
//! |------------|-----------|------------------------------------------------|
//! | config     | 2         | a flag or parameter is invalid / out of range  |
//! | data       | 3         | input data malformed or an output file failed  |
//! | execution  | 4         | a contained execution failure (job panicked)   |
//! | budget     | 5         | run budget exhausted before any usable result  |
//! | overloaded | 7         | the daemon shed the job; retry after backoff   |
//!
//! Exit code 1 remains the generic "unknown command / no command" shell
//! convention; 0 is success. Code 6 is reserved (it is the wire byte of
//! the serving protocol's `Protocol` error category, which maps to a
//! data error here); 7 matches the `Overloaded` wire category, so a
//! script can treat "daemon busy, try later" differently from a hard
//! failure.

use std::fmt;

/// A classified CLI failure; see the module docs for the exit-code map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag or parameter is invalid or outside its supported range.
    Config(String),
    /// Input data is malformed, or reading/writing a file failed.
    Data(String),
    /// A contained execution failure (a worker-pool job panicked and no
    /// fallback produced a result).
    Execution(String),
    /// A run budget was exhausted before any usable result existed.
    Budget(String),
    /// The serving daemon refused the job under load; retrying after a
    /// backoff is expected to succeed.
    Overloaded(String),
}

impl CliError {
    /// The stable process exit code for this failure category.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Config(_) => 2,
            CliError::Data(_) => 3,
            CliError::Execution(_) => 4,
            CliError::Budget(_) => 5,
            CliError::Overloaded(_) => 7,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Config(m) => write!(f, "configuration error: {m}"),
            CliError::Data(m) => write!(f, "data error: {m}"),
            CliError::Execution(m) => write!(f, "execution error: {m}"),
            CliError::Budget(m) => write!(f, "budget exhausted: {m}"),
            CliError::Overloaded(m) => write!(f, "daemon overloaded: {m}"),
        }
    }
}

impl From<jigsaw_core::Error> for CliError {
    fn from(e: jigsaw_core::Error) -> Self {
        match e {
            jigsaw_core::Error::Config(m) => CliError::Config(m),
            jigsaw_core::Error::Data(m) => CliError::Data(m),
            jigsaw_core::Error::Execution(m) => CliError::Execution(m),
            jigsaw_core::Error::Budget(m) => CliError::Budget(m),
        }
    }
}

impl From<jigsaw_sim::SimError> for CliError {
    fn from(e: jigsaw_sim::SimError) -> Self {
        match e {
            jigsaw_sim::SimError::Config(m) => CliError::Config(m),
            jigsaw_sim::SimError::Data(m) => CliError::Data(m),
        }
    }
}

/// Filesystem failures (output images, traces, RTL) are data errors.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Data(e.to_string())
    }
}

/// Bare-`String` errors come from flag parsing and engine/normal-op name
/// lookup — all configuration problems.
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Config(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(CliError::Config(String::new()).exit_code(), 2);
        assert_eq!(CliError::Data(String::new()).exit_code(), 3);
        assert_eq!(CliError::Execution(String::new()).exit_code(), 4);
        assert_eq!(CliError::Budget(String::new()).exit_code(), 5);
        assert_eq!(CliError::Overloaded(String::new()).exit_code(), 7);
    }

    #[test]
    fn core_errors_map_by_category() {
        let e: CliError = jigsaw_core::Error::Budget("deadline".into()).into();
        assert_eq!(e.exit_code(), 5);
        let e: CliError = jigsaw_core::Error::Execution("job 3 panicked".into()).into();
        assert_eq!(e.exit_code(), 4);
        let e: CliError = jigsaw_core::Error::Data("NaN coordinate".into()).into();
        assert_eq!(e.exit_code(), 3);
        let e: CliError = jigsaw_core::Error::Config("grid too small".into()).into();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn display_is_one_line() {
        let e = CliError::Execution("job 1 panicked on worker 0: boom".into());
        let s = e.to_string();
        assert!(s.starts_with("execution error: "));
        assert!(!s.contains('\n'));
    }
}
