//! Miss Status Holding Registers — the hardware behind non-blocking
//! caches and therefore behind the paper's miss concurrency `C_M`.
//!
//! Each entry tracks one outstanding miss line; secondary misses to the
//! same line *merge* into the existing entry instead of consuming a new
//! one. The number of entries caps the memory-level parallelism a cache
//! can sustain — the knob the C²-Bound ablations turn.

/// Outcome of registering a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated (primary miss).
    Allocated,
    /// Merged into an existing entry for the same line (secondary miss).
    Merged,
    /// The file is full: the requester must stall and retry.
    Full,
}

/// One MSHR entry.
#[derive(Debug, Clone)]
struct Entry {
    /// Line index this entry tracks.
    line: u64,
    /// Request ids waiting on this line (primary first).
    waiters: Vec<u64>,
}

/// A file of MSHR entries keyed by line index.
///
/// Real MSHR files hold a handful of entries (4–32), so the store is a
/// flat `Vec` searched linearly — on a file this small that beats a
/// hash map's hashing and probing, and together with the retired
/// waiter-`Vec` pool it keeps the simulator's per-miss path free of
/// allocator traffic. Completion order of *waiters within an entry* is
/// insertion order (primary first), which the engine relies on.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<Entry>,
    /// Waiter vectors recycled from completed entries; `register`
    /// reuses them so steady-state misses allocate nothing.
    spare: Vec<Vec<u64>>,
    // Statistics
    primary_misses: u64,
    secondary_misses: u64,
    stalls: u64,
    peak_occupancy: usize,
}

impl MshrFile {
    /// A file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        MshrFile::with_storage(capacity, Vec::new(), Vec::new())
    }

    /// Empty the file and give it `capacity` entries: the state
    /// [`MshrFile::new`] builds, keeping the entry and waiter storage.
    pub(crate) fn reset(&mut self, capacity: usize) {
        let entries = std::mem::take(&mut self.entries);
        let spare = std::mem::take(&mut self.spare);
        *self = MshrFile::with_storage(capacity, entries, spare);
    }

    /// An empty file of `capacity` entries, built in (possibly used)
    /// storage: the waiter vectors of `entries` join the `spare` pool.
    fn with_storage(capacity: usize, mut entries: Vec<Entry>, mut spare: Vec<Vec<u64>>) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        spare.extend(entries.drain(..).map(|mut e| {
            e.waiters.clear();
            e.waiters
        }));
        entries.reserve(capacity.min(64));
        MshrFile {
            capacity,
            entries,
            spare,
            primary_misses: 0,
            secondary_misses: 0,
            stalls: 0,
            peak_occupancy: 0,
        }
    }

    fn position(&self, line: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    /// Register a miss on `line` by request `req`.
    pub fn register(&mut self, line: u64, req: u64) -> MshrOutcome {
        if let Some(i) = self.position(line) {
            self.entries[i].waiters.push(req);
            self.secondary_misses += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        let mut waiters = self.spare.pop().unwrap_or_default();
        waiters.push(req);
        self.entries.push(Entry { line, waiters });
        self.primary_misses += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Complete the miss on `line`, returning every waiting request id.
    pub fn complete(&mut self, line: u64) -> Vec<u64> {
        match self.position(line) {
            Some(i) => self.entries.swap_remove(i).waiters,
            None => Vec::new(),
        }
    }

    /// Complete the miss on `line`, draining the waiting request ids
    /// into `out` (cleared first) and recycling the entry's waiter
    /// storage — the allocation-free variant of [`complete`] the
    /// engine's fill path uses.
    ///
    /// [`complete`]: MshrFile::complete
    pub fn complete_into(&mut self, line: u64, out: &mut Vec<u64>) {
        out.clear();
        if let Some(i) = self.position(line) {
            let mut e = self.entries.swap_remove(i);
            out.append(&mut e.waiters);
            self.spare.push(e.waiters);
        }
    }

    /// Whether a miss on `line` is already outstanding.
    pub fn contains(&self, line: u64) -> bool {
        self.position(line).is_some()
    }

    /// Current number of outstanding miss lines.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Outstanding lines (for the MCD detector feed), in no particular
    /// order.
    pub fn outstanding_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.line)
    }

    /// Primary (entry-allocating) misses seen.
    pub fn primary_misses(&self) -> u64 {
        self.primary_misses
    }

    /// Secondary (merged) misses seen.
    pub fn secondary_misses(&self) -> u64 {
        self.secondary_misses
    }

    /// Requests rejected because the file was full.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_complete() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.register(10, 1), MshrOutcome::Allocated);
        assert!(m.contains(10));
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.complete(10), vec![1]);
        assert!(!m.contains(10));
    }

    #[test]
    fn secondary_misses_merge() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.register(7, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(7, 2), MshrOutcome::Merged);
        assert_eq!(m.register(7, 3), MshrOutcome::Merged);
        // Merging does not consume capacity.
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.complete(7), vec![1, 2, 3]);
        assert_eq!(m.primary_misses(), 1);
        assert_eq!(m.secondary_misses(), 2);
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges_existing() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.register(1, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(2, 2), MshrOutcome::Full);
        assert_eq!(m.register(1, 3), MshrOutcome::Merged);
        assert_eq!(m.stalls(), 1);
        assert!(m.is_full());
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrFile::new(4);
        assert!(m.complete(99).is_empty());
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut m = MshrFile::new(4);
        m.register(1, 1);
        m.register(2, 2);
        m.register(3, 3);
        m.complete(1);
        m.complete(2);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.peak_occupancy(), 3);
    }

    #[test]
    fn outstanding_lines_iterates_keys() {
        let mut m = MshrFile::new(4);
        m.register(5, 1);
        m.register(9, 2);
        let mut lines: Vec<u64> = m.outstanding_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![5, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }

    #[test]
    fn reset_file_behaves_like_a_new_one() {
        let mut m = MshrFile::new(1);
        m.register(3, 1);
        m.register(3, 2);
        m.register(4, 3);
        m.reset(2);
        assert_eq!(m.occupancy(), 0);
        assert_eq!((m.primary_misses(), m.secondary_misses()), (0, 0));
        assert_eq!((m.stalls(), m.peak_occupancy()), (0, 0));
        assert_eq!(m.register(4, 5), MshrOutcome::Allocated);
        assert_eq!(m.register(5, 6), MshrOutcome::Allocated);
        assert_eq!(m.complete(4), vec![5], "no waiter survives the reset");
    }

    #[test]
    fn complete_into_matches_complete_and_recycles() {
        let mut a = MshrFile::new(2);
        let mut b = MshrFile::new(2);
        for m in [&mut a, &mut b] {
            m.register(7, 1);
            m.register(7, 2);
            m.register(9, 3);
        }
        let mut out = Vec::new();
        a.complete_into(7, &mut out);
        assert_eq!(out, b.complete(7), "same waiters, same order");
        a.complete_into(42, &mut out);
        assert!(out.is_empty(), "unknown line drains nothing");
        // The recycled waiter vec backs the next allocation.
        assert_eq!(a.register(11, 4), MshrOutcome::Allocated);
        assert_eq!(a.occupancy(), 2);
    }
}
