//! # c2-workloads — instrumented application kernels (paper Table I, §IV)
//!
//! The paper characterizes applications by their computation/memory
//! complexity (Table I) and evaluates on SPLASH-2/PARSEC. This crate
//! provides the reproduction's workloads: **real Rust kernels** whose
//! numerics are unit-tested, instrumented to emit the memory-access
//! traces the simulator consumes:
//!
//! * [`tmm`] — tiled dense matrix multiplication (`g(N) = N^{3/2}`),
//! * [`spmv`] — banded sparse matrix–vector multiplication (`g(N) = N`),
//! * [`stencil`] — 2-D 5-point Jacobi stencil (`g(N) = N`),
//! * [`fft`] — radix-2 Cooley–Tukey FFT (computation `n·log n`),
//! * [`fluidanimate`] — a synthetic particle-grid workload with a large
//!   working set, standing in for PARSEC's fluidanimate (§IV case study).
//!
//! Each workload produces a [`WorkloadTrace`] with separate *serial* and
//! *parallel* segments, so `f_seq` is measured rather than assumed, and
//! implements [`Workload`] so the DSE can query its `g(N)` derivation.
//! [`characterize`](mod@crate::characterize) runs a trace through the simulator to extract the
//! full C²-Bound parameter set (paper Fig 5 "input" stage).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod characterize;
pub mod fft;
pub mod fluidanimate;
pub mod spmv;
pub mod stencil;
pub mod tmm;
pub mod tracer;

pub use characterize::{characterize, Characterization};
pub use tracer::{TracedVec, Tracer};

use std::sync::{Arc, Mutex, PoisonError};

use c2_speedup::scale::ComplexityPair;
use c2_trace::Trace;

/// A workload's trace split into its non-parallelizable (serial) and
/// parallelizable segments.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// The sequential portion (setup, reductions, I/O-like phases).
    pub serial: Trace,
    /// The parallelizable portion.
    pub parallel: Trace,
}

impl WorkloadTrace {
    /// Measured sequential fraction `f_seq` by instruction count.
    pub fn f_seq(&self) -> f64 {
        let s = self.serial.instruction_count() as f64;
        let p = self.parallel.instruction_count() as f64;
        if s + p == 0.0 {
            0.0
        } else {
            s / (s + p)
        }
    }

    /// Total dynamic instruction count.
    pub fn instruction_count(&self) -> u64 {
        self.serial.instruction_count() + self.parallel.instruction_count()
    }

    /// The full trace, serial followed by parallel.
    pub fn combined(&self) -> Trace {
        let mut t = self.serial.clone();
        t.extend_with(&self.parallel);
        t
    }

    /// Split the parallel segment across `cores` by contiguous chunks of
    /// accesses (each chunk keeps its share of compute instructions);
    /// core 0 additionally executes the serial segment first.
    pub fn per_core_traces(&self, cores: usize) -> Vec<Trace> {
        assert!(cores > 0);
        let accesses = self.parallel.accesses();
        let chunk = accesses.len().div_ceil(cores).max(1);
        let mut out = Vec::with_capacity(cores);
        for c in 0..cores {
            let lo = (c * chunk).min(accesses.len());
            let hi = ((c + 1) * chunk).min(accesses.len());
            let slice = &accesses[lo..hi];
            // The parallel-segment instruction range this chunk covers:
            // compute instructions between accesses stay with the chunk
            // that executes the following access.
            let range_start = if lo == 0 {
                0
            } else {
                accesses[lo - 1].instr + 1
            };
            let range_end = if hi == accesses.len() {
                self.parallel.instruction_count()
            } else {
                accesses[hi].instr
            };
            // Renumber instruction indices to be core-local and dense.
            let mut b = c2_trace::TraceBuilder::new();
            if c == 0 {
                for a in self.serial.accesses() {
                    // Preserve compute spacing from the serial segment.
                    let gap = a.instr.saturating_sub(b.instruction_count());
                    b.compute(gap);
                    b.access_sized(a.addr, a.size, a.kind);
                }
                let tail = self
                    .serial
                    .instruction_count()
                    .saturating_sub(b.instruction_count());
                b.compute(tail);
            }
            let mut cursor = range_start;
            for a in slice {
                b.compute(a.instr - cursor);
                b.access_sized(a.addr, a.size, a.kind);
                cursor = a.instr + 1;
            }
            b.compute(range_end.saturating_sub(cursor));
            out.push(b.finish());
        }
        out
    }
}

/// One workload trace's per-core splits, each computed once.
///
/// A sweep simulates many design points at few core counts. The memo
/// hands every evaluation at a core count the split the first one
/// computed ([`WorkloadTrace::per_core_traces`]), on any thread. A memo
/// belongs to one trace: it must always be asked about the same one.
#[derive(Debug, Default)]
pub struct SplitMemo {
    splits: Mutex<Vec<(usize, Arc<[Trace]>)>>,
}

impl SplitMemo {
    /// `trace.per_core_traces(cores)`, computed on the first call for
    /// `cores` and shared afterwards.
    pub fn split(&self, trace: &WorkloadTrace, cores: usize) -> Arc<[Trace]> {
        // A panic in a split leaves the list as it was: whole entries.
        let mut splits = self.splits.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, split)) = splits.iter().find(|(c, _)| *c == cores) {
            return Arc::clone(split);
        }
        let split: Arc<[Trace]> = trace.per_core_traces(cores).into();
        splits.push((cores, Arc::clone(&split)));
        split
    }
}

impl Clone for SplitMemo {
    fn clone(&self) -> Self {
        let splits = self.splits.lock().unwrap_or_else(PoisonError::into_inner);
        SplitMemo {
            splits: Mutex::new(splits.clone()),
        }
    }
}

/// A characterizable workload.
pub trait Workload {
    /// Human-readable name (Table I row label).
    fn name(&self) -> &'static str;

    /// Computation/memory complexity from which `g(N)` is derived.
    fn complexity(&self) -> ComplexityPair;

    /// Generate the instrumented trace at the workload's configured size.
    fn generate(&self) -> WorkloadTrace;
}

/// Instantiate a workload by name and size, the way the CLI always
/// has: sizes below each kernel's sensible minimum are clamped up, and
/// the FFT size is rounded to the next power of two. Returns `None`
/// for an unknown name.
pub fn workload_from_spec(spec: &c2_config::WorkloadSpec) -> Option<Box<dyn Workload>> {
    let size = usize::try_from(spec.size).ok()?;
    Some(match spec.name.as_str() {
        "tmm" => Box::new(tmm::TiledMatMul::new(size.max(8), 8, 1)),
        "spmv" => Box::new(spmv::BandSpmv::new(size.max(16), 3, 1)),
        "stencil" => Box::new(stencil::Stencil2D::new(size.max(8), size.max(8), 2, 1)),
        "fft" => Box::new(fft::Fft::new(size.max(8).next_power_of_two(), 1)),
        "fluidanimate" => Box::new(fluidanimate::FluidAnimate::new(size.max(100), 12, 1, 1)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_trace::{AccessKind, TraceBuilder};

    fn toy() -> WorkloadTrace {
        let mut s = TraceBuilder::new();
        s.compute(10).read(0);
        let mut p = TraceBuilder::new();
        for i in 0..8 {
            p.compute(1).access(64 * (i + 1), AccessKind::Read);
        }
        WorkloadTrace {
            serial: s.finish(),
            parallel: p.finish(),
        }
    }

    #[test]
    fn f_seq_by_instruction_count() {
        let w = toy();
        // serial 11 instructions, parallel 16.
        assert!((w.f_seq() - 11.0 / 27.0).abs() < 1e-12);
        assert_eq!(w.instruction_count(), 27);
    }

    #[test]
    fn combined_concatenates() {
        let w = toy();
        let c = w.combined();
        assert_eq!(c.len(), 9);
        assert_eq!(c.instruction_count(), 27);
    }

    #[test]
    fn per_core_split_covers_all_parallel_accesses() {
        let w = toy();
        let per = w.per_core_traces(3);
        assert_eq!(per.len(), 3);
        let total: usize = per.iter().map(|t| t.len()).sum();
        // serial (1 access, on core 0) + parallel (8 accesses).
        assert_eq!(total, 9);
        // Core 0 carries the serial prefix.
        assert!(per[0].len() >= per[1].len());
    }

    #[test]
    fn split_memo_computes_each_core_count_once() {
        let w = toy();
        let memo = SplitMemo::default();
        let three = memo.split(&w, 3);
        assert_eq!(&three[..], &w.per_core_traces(3)[..]);
        assert!(Arc::ptr_eq(&three, &memo.split(&w, 3)), "recomputed");
        assert_eq!(&memo.split(&w, 2)[..], &w.per_core_traces(2)[..]);
        assert!(Arc::ptr_eq(&three, &memo.clone().split(&w, 3)));
    }

    #[test]
    fn per_core_split_single_core_is_whole_program() {
        let w = toy();
        let per = w.per_core_traces(1);
        assert_eq!(per[0].len(), 9);
        assert_eq!(per[0].instruction_count(), w.instruction_count());
    }

    #[test]
    fn empty_workload_f_seq_is_zero() {
        let w = WorkloadTrace {
            serial: Trace::new(),
            parallel: Trace::new(),
        };
        assert_eq!(w.f_seq(), 0.0);
    }
}
