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

/// A file of MSHR entries keyed by line index.
///
/// Real MSHR files hold a handful of entries (4–32), so an entry's line
/// sits in a flat `Vec` searched linearly, beside a parallel `Vec` of
/// its waiters: on a file this small that beats a hash map's hashing
/// and probing, and the scan reads only lines. Together with the
/// recycled waiter-`Vec` pool this keeps the simulator's per-miss path
/// free of allocator traffic. Completion order of *waiters within an
/// entry* is insertion order (primary first), which the engine relies
/// on.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// The line each entry tracks.
    lines: Vec<u64>,
    /// Each entry's waiting request ids, primary first.
    waiters: Vec<Vec<u64>>,
    /// Waiter vectors recycled from completed entries; `register`
    /// reuses them so steady-state misses allocate nothing.
    spare: Vec<Vec<u64>>,
}

impl MshrFile {
    /// A file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        MshrFile::with_storage(capacity, Vec::new(), Vec::new(), Vec::new())
    }

    /// Empty the file and give it `capacity` entries: the state
    /// [`MshrFile::new`] builds, keeping the entry and waiter storage.
    pub(crate) fn reset(&mut self, capacity: usize) {
        let lines = std::mem::take(&mut self.lines);
        let waiters = std::mem::take(&mut self.waiters);
        let spare = std::mem::take(&mut self.spare);
        *self = MshrFile::with_storage(capacity, lines, waiters, spare);
    }

    /// An empty file of `capacity` entries, built in (possibly used)
    /// storage: the vectors in `waiters` join the `spare` pool.
    fn with_storage(
        capacity: usize,
        mut lines: Vec<u64>,
        mut waiters: Vec<Vec<u64>>,
        mut spare: Vec<Vec<u64>>,
    ) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        lines.clear();
        lines.reserve(capacity.min(64));
        spare.extend(waiters.drain(..).map(|mut w| {
            w.clear();
            w
        }));
        waiters.reserve(capacity.min(64));
        MshrFile {
            capacity,
            lines,
            waiters,
            spare,
        }
    }

    fn position(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Register a miss on `line` by request `req`.
    pub fn register(&mut self, line: u64, req: u64) -> MshrOutcome {
        if let Some(i) = self.position(line) {
            self.waiters[i].push(req);
            return MshrOutcome::Merged;
        }
        if self.lines.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let mut waiters = self.spare.pop().unwrap_or_default();
        waiters.push(req);
        self.lines.push(line);
        self.waiters.push(waiters);
        MshrOutcome::Allocated
    }

    /// Complete the miss on `line`: `out` becomes its waiting request
    /// ids, primary first, or empty if no miss on `line` is outstanding.
    /// The entry takes `out`'s old buffer into the recycled pool, so no
    /// id is copied and nothing is allocated.
    pub fn complete_into(&mut self, line: u64, out: &mut Vec<u64>) {
        out.clear();
        if let Some(i) = self.position(line) {
            self.lines.swap_remove(i);
            let mut waiters = self.waiters.swap_remove(i);
            std::mem::swap(out, &mut waiters);
            self.spare.push(waiters);
        }
    }

    /// Whether a miss on `line` is already outstanding.
    pub fn contains(&self, line: u64) -> bool {
        self.position(line).is_some()
    }

    /// Current number of outstanding miss lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Whether the file is full.
    pub fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The waiters `complete_into` drains for `line`.
    fn complete(m: &mut MshrFile, line: u64) -> Vec<u64> {
        let mut out = vec![99];
        m.complete_into(line, &mut out);
        out
    }

    #[test]
    fn allocate_then_complete() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.register(10, 1), MshrOutcome::Allocated);
        assert!(m.contains(10));
        assert_eq!(m.occupancy(), 1);
        assert_eq!(complete(&mut m, 10), vec![1]);
        assert!(!m.contains(10));
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn secondary_misses_merge() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.register(7, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(7, 2), MshrOutcome::Merged);
        assert_eq!(m.register(7, 3), MshrOutcome::Merged);
        // Merging does not consume capacity.
        assert_eq!(m.occupancy(), 1);
        assert_eq!(complete(&mut m, 7), vec![1, 2, 3]);
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges_existing() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.register(1, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(2, 2), MshrOutcome::Full);
        assert_eq!(m.register(1, 3), MshrOutcome::Merged);
        assert!(m.is_full());
        assert_eq!(
            complete(&mut m, 1),
            vec![1, 3],
            "the rejected miss never joined"
        );
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrFile::new(4);
        assert!(complete(&mut m, 99).is_empty());
    }

    #[test]
    fn completion_frees_the_entry_and_leaves_the_others() {
        let mut m = MshrFile::new(4);
        m.register(1, 1);
        m.register(2, 2);
        m.register(3, 3);
        assert_eq!(complete(&mut m, 1), vec![1]);
        assert_eq!(complete(&mut m, 2), vec![2]);
        assert_eq!(m.occupancy(), 1);
        assert!(m.contains(3) && !m.contains(1) && !m.contains(2));
        assert_eq!(complete(&mut m, 3), vec![3]);
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
        assert!(!m.contains(3));
        assert_eq!(m.register(4, 5), MshrOutcome::Allocated);
        assert_eq!(m.register(5, 6), MshrOutcome::Allocated);
        assert_eq!(complete(&mut m, 4), vec![5], "no waiter survives the reset");
    }

    #[test]
    fn complete_into_swaps_buffers_and_recycles() {
        let mut m = MshrFile::new(2);
        m.register(7, 1);
        m.register(7, 2);
        m.register(9, 3);
        let mut out = Vec::with_capacity(16);
        out.push(42);
        let caller_buffer = out.as_ptr();
        m.complete_into(7, &mut out);
        assert_eq!(out, vec![1, 2], "same waiters, same order");
        assert_ne!(out.as_ptr(), caller_buffer, "the entry's buffer moved out");
        m.complete_into(42, &mut out);
        assert!(out.is_empty(), "unknown line drains nothing");
        // The caller's old buffer, now recycled, backs the next
        // allocation.
        assert_eq!(m.register(11, 4), MshrOutcome::Allocated);
        assert_eq!(m.occupancy(), 2);
        let mut again = Vec::new();
        m.complete_into(11, &mut again);
        assert_eq!(again, vec![4]);
        assert_eq!(
            again.as_ptr(),
            caller_buffer,
            "the recycled buffer came back"
        );
        assert_eq!(complete(&mut m, 9), vec![3]);
    }
}
