//! Miss Status Holding Registers — the hardware behind non-blocking
//! caches and therefore behind the paper's miss concurrency `C_M`.
//!
//! Each entry tracks one outstanding miss line; secondary misses to the
//! same line *merge* into the existing entry instead of consuming a new
//! one. The number of entries caps the memory-level parallelism a cache
//! can sustain — the knob the C²-Bound ablations turn.

use crate::request::Slot;

/// Outcome of registering a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MshrOutcome {
    /// A new entry was allocated (primary miss).
    Allocated,
    /// Merged into the existing entry for the same line (secondary
    /// miss) behind the waiter in slot `after`, which the caller links
    /// to the new one.
    Merged {
        /// The entry's last waiter before this one.
        after: Slot,
    },
    /// The file is full: the requester must stall and retry.
    Full,
}

/// The waiters a completed entry releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiters {
    /// The primary's slot. Each waiter links to the one registered
    /// after it, so the chain from here is registration order.
    pub(crate) first: Slot,
    /// Whether any waiter is a store.
    pub(crate) store: bool,
}

/// One outstanding line's waiters: the ends of their chain and whether
/// any is a store.
#[derive(Debug, Clone, Copy)]
struct Entry {
    first: Slot,
    last: Slot,
    store: bool,
}

/// A file of MSHR entries keyed by line index.
///
/// Real MSHR files hold a handful of entries (4–32), so an entry's line
/// sits in a flat `Vec` searched linearly, beside a parallel `Vec` of
/// the entries: on a file this small that beats a hash map's hashing
/// and probing, and the scan reads only lines. An entry holds no list
/// of its waiters, only the request-arena slots of its first and last.
/// The waiters link to each other through their own request records,
/// so registering a miss writes the entry and, when the miss merges,
/// the caller writes the previous last waiter's link.
#[derive(Debug, Clone)]
pub(crate) struct MshrFile {
    capacity: usize,
    /// The line each entry tracks.
    lines: Vec<u64>,
    /// Each entry's waiters, in the order of `lines`.
    entries: Vec<Entry>,
}

impl MshrFile {
    /// A file with `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        MshrFile::with_storage(capacity, Vec::new(), Vec::new())
    }

    /// Empty the file and give it `capacity` entries: the state
    /// [`MshrFile::new`] builds, keeping the entry storage.
    pub(crate) fn reset(&mut self, capacity: usize) {
        let lines = std::mem::take(&mut self.lines);
        let entries = std::mem::take(&mut self.entries);
        *self = MshrFile::with_storage(capacity, lines, entries);
    }

    /// An empty file of `capacity` entries, built in (possibly used)
    /// storage.
    fn with_storage(capacity: usize, mut lines: Vec<u64>, mut entries: Vec<Entry>) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        lines.clear();
        lines.reserve(capacity.min(64));
        entries.clear();
        entries.reserve(capacity.min(64));
        MshrFile {
            capacity,
            lines,
            entries,
        }
    }

    fn position(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Register a miss on `line` by the request in `slot`, a store if
    /// `store`.
    pub(crate) fn register(&mut self, line: u64, slot: Slot, store: bool) -> MshrOutcome {
        if let Some(i) = self.position(line) {
            let entry = &mut self.entries[i];
            entry.store |= store;
            let after = std::mem::replace(&mut entry.last, slot);
            return MshrOutcome::Merged { after };
        }
        if self.lines.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.lines.push(line);
        self.entries.push(Entry {
            first: slot,
            last: slot,
            store,
        });
        MshrOutcome::Allocated
    }

    /// Complete the miss on `line`, freeing its entry: its waiters, or
    /// `None` if no miss on `line` is outstanding.
    pub(crate) fn complete(&mut self, line: u64) -> Option<Waiters> {
        let i = self.position(line)?;
        self.lines.swap_remove(i);
        let entry = self.entries.swap_remove(i);
        Some(Waiters {
            first: entry.first,
            store: entry.store,
        })
    }

    /// Whether a miss on `line` is already outstanding.
    pub(crate) fn contains(&self, line: u64) -> bool {
        self.position(line).is_some()
    }

    /// Current number of outstanding miss lines.
    pub(crate) fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Whether the file is full.
    pub(crate) fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::NO_SLOT;
    use proptest::prelude::*;

    /// The requests' side of the chains: each slot's store flag and
    /// link to the next waiter, as the engine keeps them in its
    /// request records.
    #[derive(Default)]
    struct Requests {
        store: Vec<bool>,
        next: Vec<Slot>,
    }

    impl Requests {
        /// Register a new request's miss on `line` in `m`, linking it
        /// behind the entry's last waiter when it merges.
        fn register(&mut self, m: &mut MshrFile, line: u64, store: bool) -> MshrOutcome {
            let slot = self.store.len() as Slot;
            self.store.push(store);
            self.next.push(NO_SLOT);
            let outcome = m.register(line, slot, store);
            if let MshrOutcome::Merged { after } = outcome {
                self.next[after as usize] = slot;
            }
            outcome
        }

        /// The waiters `m` releases for `line`, walked down their chain.
        fn complete(&self, m: &mut MshrFile, line: u64) -> Option<(Vec<Slot>, bool)> {
            let waiters = m.complete(line)?;
            let mut chain = Vec::new();
            let mut slot = waiters.first;
            while slot != NO_SLOT {
                chain.push(slot);
                slot = self.next[slot as usize];
            }
            Some((chain, waiters.store))
        }
    }

    /// The file before waiters moved into the request records: each
    /// entry's line beside a vector of its waiters, primary first.
    struct Reference {
        capacity: usize,
        lines: Vec<u64>,
        waiters: Vec<Vec<Slot>>,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Reference {
                capacity,
                lines: Vec::new(),
                waiters: Vec::new(),
            }
        }

        fn register(&mut self, line: u64, slot: Slot) -> MshrOutcome {
            if let Some(i) = self.lines.iter().position(|&l| l == line) {
                let after = *self.waiters[i].last().expect("an entry has a primary");
                self.waiters[i].push(slot);
                return MshrOutcome::Merged { after };
            }
            if self.lines.len() >= self.capacity {
                return MshrOutcome::Full;
            }
            self.lines.push(line);
            self.waiters.push(vec![slot]);
            MshrOutcome::Allocated
        }

        fn complete(&mut self, line: u64) -> Option<Vec<Slot>> {
            let i = self.lines.iter().position(|&l| l == line)?;
            self.lines.swap_remove(i);
            Some(self.waiters.swap_remove(i))
        }
    }

    #[test]
    fn allocate_then_complete() {
        let (mut m, mut r) = (MshrFile::new(2), Requests::default());
        assert_eq!(r.register(&mut m, 10, false), MshrOutcome::Allocated);
        assert!(m.contains(10));
        assert_eq!(m.occupancy(), 1);
        assert_eq!(r.complete(&mut m, 10), Some((vec![0], false)));
        assert!(!m.contains(10));
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn secondary_misses_merge() {
        let (mut m, mut r) = (MshrFile::new(1), Requests::default());
        assert_eq!(r.register(&mut m, 7, false), MshrOutcome::Allocated);
        assert_eq!(
            r.register(&mut m, 7, false),
            MshrOutcome::Merged { after: 0 }
        );
        assert_eq!(
            r.register(&mut m, 7, true),
            MshrOutcome::Merged { after: 1 }
        );
        // Merging does not consume capacity.
        assert_eq!(m.occupancy(), 1);
        assert_eq!(r.complete(&mut m, 7), Some((vec![0, 1, 2], true)));
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges_existing() {
        let (mut m, mut r) = (MshrFile::new(1), Requests::default());
        assert_eq!(r.register(&mut m, 1, false), MshrOutcome::Allocated);
        assert_eq!(r.register(&mut m, 2, true), MshrOutcome::Full);
        assert_eq!(
            r.register(&mut m, 1, false),
            MshrOutcome::Merged { after: 0 }
        );
        assert!(m.is_full());
        assert_eq!(
            r.complete(&mut m, 1),
            Some((vec![0, 2], false)),
            "the rejected store never joined"
        );
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let (mut m, r) = (MshrFile::new(4), Requests::default());
        assert_eq!(r.complete(&mut m, 99), None);
    }

    #[test]
    fn completion_frees_the_entry_and_leaves_the_others() {
        let (mut m, mut r) = (MshrFile::new(4), Requests::default());
        r.register(&mut m, 1, false);
        r.register(&mut m, 2, false);
        r.register(&mut m, 3, false);
        assert_eq!(r.complete(&mut m, 1), Some((vec![0], false)));
        assert_eq!(r.complete(&mut m, 2), Some((vec![1], false)));
        assert_eq!(m.occupancy(), 1);
        assert!(m.contains(3) && !m.contains(1) && !m.contains(2));
        assert_eq!(r.complete(&mut m, 3), Some((vec![2], false)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }

    #[test]
    fn reset_file_behaves_like_a_new_one() {
        let (mut m, mut r) = (MshrFile::new(1), Requests::default());
        r.register(&mut m, 3, true);
        r.register(&mut m, 3, false);
        r.register(&mut m, 4, false);
        m.reset(2);
        assert_eq!(m.occupancy(), 0);
        assert!(!m.contains(3));
        assert_eq!(r.register(&mut m, 4, false), MshrOutcome::Allocated);
        assert_eq!(r.register(&mut m, 5, false), MshrOutcome::Allocated);
        assert_eq!(
            r.complete(&mut m, 4),
            Some((vec![3], false)),
            "no waiter or store survives the reset"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random registrations and completions over a few lines give
        /// the reference's outcomes and waiters, in the same order,
        /// primary first. The store flag is whether any waiter is a
        /// store, and `Full` comes only when the line is absent and
        /// the file is full.
        #[test]
        fn chains_release_what_the_waiter_vectors_did(
            capacity in 1usize..9,
            ops in prop::collection::vec((0u8..3, 0u64..10, 0u8..2), 0..300),
        ) {
            let mut m = MshrFile::new(capacity);
            let mut reference = Reference::new(capacity);
            let mut requests = Requests::default();
            for (op, line, store) in ops {
                if op < 2 {
                    let absent_and_full = !reference.lines.contains(&line)
                        && reference.lines.len() == capacity;
                    let slot = requests.store.len() as Slot;
                    let got = requests.register(&mut m, line, store == 1);
                    prop_assert_eq!(got, reference.register(line, slot));
                    prop_assert_eq!(got == MshrOutcome::Full, absent_and_full);
                } else {
                    let want = reference.complete(line).map(|waiters| {
                        let store = waiters.iter().any(|&w| requests.store[w as usize]);
                        (waiters, store)
                    });
                    prop_assert_eq!(requests.complete(&mut m, line), want);
                }
                prop_assert_eq!(m.occupancy(), reference.lines.len());
                prop_assert_eq!(m.is_full(), reference.lines.len() == capacity);
                prop_assert_eq!(m.contains(line), reference.lines.contains(&line));
            }
        }
    }
}
