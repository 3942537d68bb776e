//! The harness's one error type: every failure surfaces as a non-zero
//! exit with a message on stderr, never a panic.

use std::fmt;

/// Everything that can sink a benchmark run.
#[derive(Debug)]
pub enum BenchError {
    /// Process or filesystem plumbing failed.
    Io(std::io::Error),
    /// Bad command-line arguments.
    Usage(String),
    /// A product layer returned an error the workload cannot absorb
    /// (set-up failed, the server died, a WAL would not replay).
    Layer(String),
    /// A run file or `BENCHMARK.json` could not be parsed.
    Parse(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "io: {e}"),
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Layer(msg) => write!(f, "layer: {msg}"),
            BenchError::Parse(msg) => write!(f, "parse: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Wrap any displayable product-layer error with the call that hit it.
pub fn layer<E: fmt::Display>(what: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError::Layer(format!("{what}: {e}"))
}

/// The harness-wide result alias.
pub type Result<T> = std::result::Result<T, BenchError>;
