//! # c2-trace — memory access traces for the C²-Bound reproduction
//!
//! This crate is the substrate every other component consumes: a compact
//! representation of a program's dynamic memory-access stream, together
//! with
//!
//! * synthetic trace generators that stand in for the SPLASH-2/PARSEC
//!   traces the paper collected with GEM5 (`synthetic`),
//! * locality statistics — reuse distance, working-set size, access
//!   frequency `f_mem` (`stats`),
//! * SimPoint-style phase detection over interval signatures (`phase`).
//!
//! The paper (§III.D) characterizes an application by measuring `f_mem`,
//! C-AMAT and friends from its access stream; this crate provides the
//! stream and the stream-level statistics, while `c2-camat` provides the
//! timing-level metrics.
//!
//! ## Quick example
//!
//! ```
//! use c2_trace::{TraceGenerator, synthetic::StridedGenerator};
//!
//! let trace = StridedGenerator::new(0x1000, 64, 1024).generate();
//! assert_eq!(trace.len(), 1024);
//! let stats = trace.stats();
//! assert!(stats.unique_lines() <= 1024);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod io;
pub mod locality;
pub mod phase;
pub mod stats;
pub mod synthetic;
pub mod trace;

pub use access::{AccessKind, MemAccess};
pub use locality::{locality, LocalityAnalyzer, LocalityScores};
pub use phase::{PhaseConfig, PhaseDetector, PhaseLabel, Phases};
pub use stats::{ReuseProfile, TraceStats, WorkingSet};
pub use synthetic::TraceGenerator;
pub use trace::{Interval, Trace, TraceBuilder};

/// Errors produced while constructing or analysing traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An access was appended with an instruction index smaller than the
    /// previous access (traces must be in program order).
    NonMonotonicInstruction {
        /// Instruction index of the previous access.
        previous: u64,
        /// Offending instruction index.
        current: u64,
    },
    /// A generator or analysis was configured with an invalid parameter.
    InvalidParameter(&'static str),
    /// Phase detection was asked for more clusters than intervals.
    TooManyClusters {
        /// Requested cluster count.
        requested: usize,
        /// Number of available intervals.
        available: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NonMonotonicInstruction { previous, current } => write!(
                f,
                "non-monotonic instruction index: {current} after {previous}"
            ),
            Error::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            Error::TooManyClusters {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} phase clusters but only {available} intervals exist"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
