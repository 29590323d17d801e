//! Locality statistics: reuse distance, working sets, footprints.
//!
//! The paper's §V bounds the on-chip-memory-bounded problem size by
//! requiring the *working set* (Denning \[28\]) to fit in on-chip cache.
//! This module computes working-set sizes and exact LRU reuse-distance
//! histograms, from which the miss rate of any LRU cache size can be read
//! off directly — the bridge between cache *area* in the model (Eq. 12)
//! and miss-rate behaviour.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::trace::Trace;

/// The distinct lines of an access stream: the one count behind
/// [`TraceStats`]'s footprint and every [`WorkingSet`] size. A line
/// equal to the one added before it is skipped unhashed, since most
/// accesses revisit the line just touched.
#[derive(Debug, Default)]
struct DistinctLines {
    seen: HashSet<u64, BuildHasherDefault<LineHasher>>,
    last: Option<u64>,
}

impl DistinctLines {
    fn add(&mut self, line: u64) {
        if self.last != Some(line) {
            self.last = Some(line);
            self.seen.insert(line);
        }
    }

    fn len(&self) -> usize {
        self.seen.len()
    }

    fn clear(&mut self) {
        self.seen.clear();
        self.last = None;
    }
}

/// Multiplicative (Fibonacci) hashing of a line number: one multiply by
/// 2^64/φ, rotated so that the product's well-mixed high bits pick the
/// bucket. Line numbers are program addresses, not adversarial input.
#[derive(Debug, Default)]
struct LineHasher(u64);

const GOLDEN_RATIO: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(GOLDEN_RATIO);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Summary statistics for a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    accesses: usize,
    instruction_count: u64,
    unique_lines_64: usize,
    min_addr: u64,
    max_addr: u64,
}

impl TraceStats {
    /// Compute statistics from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut lines = DistinctLines::default();
        let mut min_addr = u64::MAX;
        let mut max_addr = 0;
        for a in trace.accesses() {
            lines.add(a.line(64));
            min_addr = min_addr.min(a.addr);
            max_addr = max_addr.max(a.addr);
        }
        if trace.is_empty() {
            min_addr = 0;
        }
        TraceStats {
            accesses: trace.len(),
            instruction_count: trace.instruction_count(),
            unique_lines_64: lines.len(),
            min_addr,
            max_addr,
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Total instructions.
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }

    /// Number of distinct 64-byte lines touched. [`WorkingSet`] counts
    /// lines of other sizes.
    pub fn unique_lines(&self) -> usize {
        self.unique_lines_64
    }

    /// Footprint in bytes assuming 64-byte lines.
    pub fn footprint_bytes(&self) -> u64 {
        self.unique_lines_64 as u64 * 64
    }

    /// Lowest byte address touched.
    pub fn min_addr(&self) -> u64 {
        self.min_addr
    }

    /// Highest byte address touched.
    pub fn max_addr(&self) -> u64 {
        self.max_addr
    }
}

/// Denning working set: the set of distinct lines touched in a trailing
/// window of `theta` accesses.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    line_size: u64,
}

impl WorkingSet {
    /// Create an analyzer for a given cache line size (power of two).
    pub fn new(line_size: u64) -> Self {
        assert!(line_size.is_power_of_two());
        WorkingSet { line_size }
    }

    /// Average working-set size (in lines) over all windows of length
    /// `theta` accesses, sliding by `theta` (non-overlapping windows).
    pub fn average_size(&self, trace: &Trace, theta: usize) -> f64 {
        let (total, windows) = self
            .window_sizes(trace, theta)
            .fold((0usize, 0usize), |(total, windows), size| {
                (total + size, windows + 1)
            });
        if windows == 0 {
            0.0
        } else {
            total as f64 / windows as f64
        }
    }

    /// Peak working-set size (in lines) over non-overlapping windows of
    /// `theta` accesses.
    pub fn peak_size(&self, trace: &Trace, theta: usize) -> usize {
        self.window_sizes(trace, theta).max().unwrap_or(0)
    }

    /// Working set size in bytes of the whole trace (total footprint).
    pub fn footprint_bytes(&self, trace: &Trace) -> u64 {
        let mut seen = DistinctLines::default();
        for a in trace.accesses() {
            seen.add(a.line(self.line_size));
        }
        seen.len() as u64 * self.line_size
    }

    /// The distinct lines of each window of `theta` accesses, sliding
    /// by `theta`.
    fn window_sizes<'a>(
        &'a self,
        trace: &'a Trace,
        theta: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        assert!(theta > 0);
        let mut seen = DistinctLines::default();
        trace.accesses().chunks(theta).map(move |chunk| {
            seen.clear();
            for a in chunk {
                seen.add(a.line(self.line_size));
            }
            seen.len()
        })
    }
}

/// Fenwick (binary indexed) tree over access positions, used by the exact
/// reuse-distance computation.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Add `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based inclusive).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over the half-open 0-based range `lo..hi`.
    fn range(&self, lo: usize, hi: usize) -> u64 {
        if hi == 0 || lo >= hi {
            return 0;
        }
        let upper = self.prefix(hi - 1);
        if lo == 0 {
            upper
        } else {
            upper - self.prefix(lo - 1)
        }
    }
}

/// Exact LRU reuse-distance histogram at cache-line granularity.
///
/// `histogram[d]` counts accesses whose LRU stack distance is exactly `d`
/// distinct lines; cold (first-touch) accesses are counted separately.
/// For a fully-associative LRU cache of `c` lines, the miss count equals
/// `cold + sum(histogram[d] for d >= c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseProfile {
    histogram: Vec<u64>,
    cold_misses: u64,
    total_accesses: u64,
    line_size: u64,
}

impl ReuseProfile {
    /// Compute the exact reuse-distance profile of a trace (O(n log n)).
    pub fn compute(trace: &Trace, line_size: u64) -> Self {
        assert!(line_size.is_power_of_two());
        let n = trace.len();
        let mut fen = Fenwick::new(n);
        let mut last_pos: HashMap<u64, usize> = HashMap::new();
        let mut histogram: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        for (pos, a) in trace.accesses().iter().enumerate() {
            let line = a.line(line_size);
            match last_pos.get(&line).copied() {
                None => cold += 1,
                Some(prev) => {
                    // Distinct lines touched strictly between prev and pos.
                    let d = fen.range(prev + 1, pos) as usize;
                    if histogram.len() <= d {
                        histogram.resize(d + 1, 0);
                    }
                    histogram[d] += 1;
                    fen.add(prev, -1);
                }
            }
            fen.add(pos, 1);
            last_pos.insert(line, pos);
        }
        ReuseProfile {
            histogram,
            cold_misses: cold,
            total_accesses: n as u64,
            line_size,
        }
    }

    /// Histogram of finite reuse distances (`histogram()[d]` = count at
    /// distance `d`).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Count of cold (first-touch) accesses.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Total accesses profiled.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Line size the profile was computed at.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Miss rate of a fully-associative LRU cache holding `lines` lines.
    pub fn miss_rate_for_lines(&self, lines: usize) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        let reuse_misses: u64 = self.histogram.iter().skip(lines).sum();
        (self.cold_misses + reuse_misses) as f64 / self.total_accesses as f64
    }

    /// Miss rate of a fully-associative LRU cache of `bytes` capacity.
    pub fn miss_rate_for_capacity(&self, bytes: u64) -> f64 {
        self.miss_rate_for_lines((bytes / self.line_size) as usize)
    }

    /// The miss-rate curve sampled at the given capacities (bytes).
    pub fn miss_curve(&self, capacities: &[u64]) -> Vec<(u64, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.miss_rate_for_capacity(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn trace_of_lines(lines: &[u64]) -> Trace {
        let mut b = TraceBuilder::new();
        for &l in lines {
            b.read(l * 64);
        }
        b.finish()
    }

    #[test]
    fn fenwick_prefix_and_range() {
        let mut f = Fenwick::new(8);
        for i in 0..8 {
            f.add(i, 1);
        }
        assert_eq!(f.prefix(7), 8);
        assert_eq!(f.range(2, 5), 3);
        f.add(3, -1);
        assert_eq!(f.range(2, 5), 2);
        assert_eq!(f.range(5, 5), 0);
        assert_eq!(f.range(0, 0), 0);
    }

    #[test]
    fn reuse_profile_simple_repeat() {
        // a b a b: both reuses at distance 1.
        let t = trace_of_lines(&[0, 1, 0, 1]);
        let p = ReuseProfile::compute(&t, 64);
        assert_eq!(p.cold_misses(), 2);
        assert_eq!(p.histogram(), &[0, 2]);
        // 2-line cache captures everything beyond cold misses.
        assert!((p.miss_rate_for_lines(2) - 0.5).abs() < 1e-12);
        // 1-line cache misses everything.
        assert!((p.miss_rate_for_lines(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_profile_immediate_reuse_distance_zero() {
        let t = trace_of_lines(&[5, 5, 5]);
        let p = ReuseProfile::compute(&t, 64);
        assert_eq!(p.cold_misses(), 1);
        assert_eq!(p.histogram(), &[2]);
        assert!((p.miss_rate_for_lines(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_monotone_in_capacity() {
        let t = trace_of_lines(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 2, 1, 3]);
        let p = ReuseProfile::compute(&t, 64);
        let mut prev = 1.0f64;
        for lines in 1..=6 {
            let mr = p.miss_rate_for_lines(lines);
            assert!(mr <= prev + 1e-12, "miss rate must not increase");
            prev = mr;
        }
        // A cache holding the full footprint only takes cold misses.
        assert!((p.miss_rate_for_lines(4) - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_average_and_peak() {
        let t = trace_of_lines(&[0, 0, 0, 0, 1, 2, 3, 4]);
        let ws = WorkingSet::new(64);
        // windows of 4: {0} then {1,2,3,4} -> avg 2.5, peak 4
        assert!((ws.average_size(&t, 4) - 2.5).abs() < 1e-12);
        assert_eq!(ws.peak_size(&t, 4), 4);
        assert_eq!(ws.footprint_bytes(&t), 5 * 64);
    }

    #[test]
    fn stats_footprint() {
        let t = trace_of_lines(&[0, 1, 1, 2]);
        let s = t.stats();
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.unique_lines(), 3);
        assert_eq!(s.footprint_bytes(), 192);
        assert_eq!(s.min_addr(), 0);
        assert_eq!(s.max_addr(), 128);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new();
        let s = t.stats();
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.footprint_bytes(), 0);
        let p = ReuseProfile::compute(&t, 64);
        assert_eq!(p.miss_rate_for_lines(4), 0.0);
    }

    proptest::proptest! {
        /// The counter counts what a `HashSet` of every line holds, for
        /// streams with runs of one line and for lines that differ only
        /// in their high bits (a stride of `2^shift` lines), across
        /// clears.
        #[test]
        fn distinct_lines_count_what_a_hash_set_holds(
            runs in proptest::collection::vec((0u64..64, 1usize..4), 0..300),
            shift in 0u32..48,
            clear_at in 0usize..300,
        ) {
            let mut counter = DistinctLines::default();
            let mut reference = std::collections::HashSet::new();
            for (i, &(line, repeats)) in runs.iter().enumerate() {
                if i == clear_at {
                    counter.clear();
                    reference.clear();
                }
                for _ in 0..repeats {
                    counter.add(line << shift);
                    reference.insert(line << shift);
                }
                proptest::prop_assert_eq!(counter.len(), reference.len());
            }
        }
    }
}
