//! Trace container and builder.

use crate::{AccessKind, Error, MemAccess, Result};

/// A dynamic memory-access trace in program order.
///
/// Besides the access stream itself the trace records the total dynamic
/// instruction count `IC` of the region it was collected from, which is
/// needed to compute `f_mem = accesses / IC` (paper Eq. 6) and to feed the
/// execution-time objective (paper Eq. 10) with a problem size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    accesses: Vec<MemAccess>,
    instruction_count: u64,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build a trace from a pre-validated access vector.
    ///
    /// `instruction_count` must be at least the last access's `instr + 1`;
    /// it is clamped up to that if smaller, so a caller who only knows the
    /// accesses can pass `0`.
    pub fn from_accesses(accesses: Vec<MemAccess>, instruction_count: u64) -> Result<Self> {
        for pair in accesses.windows(2) {
            if pair[1].instr < pair[0].instr {
                return Err(Error::NonMonotonicInstruction {
                    previous: pair[0].instr,
                    current: pair[1].instr,
                });
            }
        }
        let min_ic = accesses.last().map_or(0, |a| a.instr + 1);
        Ok(Trace {
            accesses,
            instruction_count: instruction_count.max(min_ic),
        })
    }

    /// Number of memory accesses in the trace.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// `true` if the trace holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Total dynamic instruction count of the traced region.
    #[inline]
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// The access stream.
    #[inline]
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Fraction of instructions that are memory accesses (`f_mem`).
    ///
    /// Returns 0 for an empty trace.
    pub fn f_mem(&self) -> f64 {
        if self.instruction_count == 0 {
            0.0
        } else {
            self.accesses.len() as f64 / self.instruction_count as f64
        }
    }

    /// Fraction of accesses that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.accesses.is_empty() {
            return 0.0;
        }
        let reads = self
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .count();
        reads as f64 / self.accesses.len() as f64
    }

    /// Compute the trace statistics (see [`crate::stats::TraceStats`]).
    pub fn stats(&self) -> crate::stats::TraceStats {
        crate::stats::TraceStats::from_trace(self)
    }

    /// Split the trace into fixed-size intervals of `interval_len` accesses.
    ///
    /// The final interval may be shorter. Used by phase detection.
    pub fn intervals(&self, interval_len: usize) -> Vec<Interval<'_>> {
        assert!(interval_len > 0, "interval length must be positive");
        self.accesses
            .chunks(interval_len)
            .enumerate()
            .map(|(index, accesses)| Interval { index, accesses })
            .collect()
    }

    /// Concatenate another trace after this one, renumbering its
    /// instruction indices to continue where this trace ends.
    pub fn extend_with(&mut self, other: &Trace) {
        let base = self.instruction_count;
        for a in other.accesses() {
            self.accesses.push(MemAccess {
                instr: a.instr + base,
                ..*a
            });
        }
        self.instruction_count = base + other.instruction_count;
    }
}

/// A borrowed, fixed-length window of a trace used for phase detection.
#[derive(Debug, Clone, Copy)]
pub struct Interval<'a> {
    /// Zero-based index of this interval in the parent trace.
    pub index: usize,
    /// The accesses falling into the interval.
    pub accesses: &'a [MemAccess],
}

/// Incremental builder that validates program order and tracks the
/// instruction counter.
///
/// ```
/// use c2_trace::{TraceBuilder, AccessKind};
/// let mut b = TraceBuilder::new();
/// b.compute(10);           // 10 non-memory instructions
/// b.access(0x40, AccessKind::Read);
/// b.access(0x48, AccessKind::Read);
/// let t = b.finish();
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.instruction_count(), 12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    accesses: Vec<MemAccess>,
    instr: u64,
}

impl TraceBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Create a builder with reserved access capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuilder {
            accesses: Vec::with_capacity(capacity),
            instr: 0,
        }
    }

    /// Record `n` non-memory (compute) instructions.
    #[inline]
    pub fn compute(&mut self, n: u64) -> &mut Self {
        self.instr += n;
        self
    }

    /// Record one memory access instruction of `kind` at `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> &mut Self {
        self.access_sized(addr, 8, kind)
    }

    /// Record one memory access instruction with an explicit size.
    #[inline]
    pub fn access_sized(&mut self, addr: u64, size: u32, kind: AccessKind) -> &mut Self {
        self.accesses.push(MemAccess {
            instr: self.instr,
            addr,
            size,
            kind,
        });
        self.instr += 1;
        self
    }

    /// Shorthand for a read access.
    #[inline]
    pub fn read(&mut self, addr: u64) -> &mut Self {
        self.access(addr, AccessKind::Read)
    }

    /// Shorthand for a write access.
    #[inline]
    pub fn write(&mut self, addr: u64) -> &mut Self {
        self.access(addr, AccessKind::Write)
    }

    /// Current dynamic instruction index.
    #[inline]
    pub fn instruction_count(&self) -> u64 {
        self.instr
    }

    /// Finish and return the trace.
    pub fn finish(self) -> Trace {
        Trace {
            accesses: self.accesses,
            instruction_count: self.instr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_instructions_and_accesses() {
        let mut b = TraceBuilder::new();
        b.compute(5).read(0x100).compute(3).write(0x200);
        let t = b.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.instruction_count(), 10);
        assert!((t.f_mem() - 0.2).abs() < 1e-12);
        assert!((t.read_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_accesses_rejects_out_of_order() {
        let accesses = vec![MemAccess::read(5, 0), MemAccess::read(3, 8)];
        let err = Trace::from_accesses(accesses, 10).unwrap_err();
        assert_eq!(
            err,
            Error::NonMonotonicInstruction {
                previous: 5,
                current: 3
            }
        );
    }

    #[test]
    fn from_accesses_clamps_instruction_count() {
        let accesses = vec![MemAccess::read(0, 0), MemAccess::read(99, 8)];
        let t = Trace::from_accesses(accesses, 0).unwrap();
        assert_eq!(t.instruction_count(), 100);
    }

    #[test]
    fn intervals_cover_whole_trace() {
        let mut b = TraceBuilder::new();
        for i in 0..10 {
            b.read(i * 8);
        }
        let t = b.finish();
        let ivs = t.intervals(4);
        assert_eq!(ivs.len(), 3);
        assert_eq!(ivs[0].accesses.len(), 4);
        assert_eq!(ivs[2].accesses.len(), 2);
        assert_eq!(ivs[2].index, 2);
    }

    #[test]
    fn extend_with_renumbers() {
        let mut a = TraceBuilder::new();
        a.read(0);
        let mut a = a.finish();
        let mut b = TraceBuilder::new();
        b.compute(2).read(64);
        let b = b.finish();
        a.extend_with(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.accesses()[1].instr, 1 + 2);
        assert_eq!(a.instruction_count(), 1 + 3);
    }

    #[test]
    fn empty_trace_fractions_are_zero() {
        let t = Trace::new();
        assert_eq!(t.f_mem(), 0.0);
        assert_eq!(t.read_fraction(), 0.0);
        assert!(t.is_empty());
    }
}
