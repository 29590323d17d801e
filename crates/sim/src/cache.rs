//! Set-associative cache array with true-LRU replacement and banking.

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
}

/// A set-associative cache array (state only — timing lives in the chip
/// engine).
///
/// It stores only the sets a run fills. `index` holds one word per set:
/// 0 while the set is empty, else 1 + the number of the set's block. A
/// block is `2·ways` words of one compact vector, appended at its set's
/// first install. Each way is the line's tag, then a stamp
/// `last_used << 1 | dirty`. Every access and install first advances
/// the clock, so a resident line's stamp is at least 2 and a zero stamp
/// marks an invalid way: a new block is all zero. A lookup in an empty
/// set misses without reading block memory. `block_sets` names each
/// block's set, so a reset zeroes only those index words and truncates
/// the blocks, and hands a run's successor the empty cache in time
/// proportional to the sets its predecessor filled.
///
/// The line size and the set count are powers of two, so an address
/// becomes a line by a shift, and a line's tag and its set number are its
/// bits above and below `set_bits`.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    /// `log2(sets)`.
    set_bits: u32,
    ways: usize,
    banks: usize,
    /// `log2(line_size)`.
    line_bits: u32,
    /// Per set: 0 if empty, else 1 + the number of its block.
    index: Vec<u32>,
    /// The filled sets' ways, `2·ways` words per block, in fill order.
    blocks: Vec<u64>,
    /// The set each block belongs to.
    block_sets: Vec<usize>,
    clock: u64,
}

/// The dirty bit of a way's stamp word.
const DIRTY: u64 = 1;

impl CacheArray {
    /// Build from a validated configuration.
    pub fn new(config: &CacheConfig) -> Self {
        CacheArray::with_storage(config, vec![0; config.sets()], Vec::new(), Vec::new())
    }

    /// Empty the array and take `config`'s geometry and banking: the
    /// state [`CacheArray::new`] builds. An array of the same set count
    /// zeroes the index words of the sets it filled since its last
    /// reset; any other builds its index anew. The blocks are truncated
    /// either way.
    pub(crate) fn reset(&mut self, config: &CacheConfig) {
        let index = if self.index.len() == config.sets() {
            let mut index = std::mem::take(&mut self.index);
            for &set in &self.block_sets {
                index[set] = 0;
            }
            index
        } else {
            // Free the old index first, so two are never live at once.
            self.index = Vec::new();
            vec![0; config.sets()]
        };
        let mut blocks = std::mem::take(&mut self.blocks);
        let mut block_sets = std::mem::take(&mut self.block_sets);
        blocks.clear();
        block_sets.clear();
        *self = CacheArray::with_storage(config, index, blocks, block_sets);
    }

    /// An array of `config`'s geometry over a zeroed `index` and no
    /// blocks.
    fn with_storage(
        config: &CacheConfig,
        index: Vec<u32>,
        blocks: Vec<u64>,
        block_sets: Vec<usize>,
    ) -> Self {
        let sets = config.sets();
        debug_assert!(sets.is_power_of_two(), "{sets} sets");
        debug_assert!(
            config.line_size.is_power_of_two(),
            "{}-byte lines",
            config.line_size
        );
        CacheArray {
            sets,
            set_bits: sets.trailing_zeros(),
            ways: config.associativity,
            banks: config.banks,
            line_bits: config.line_size.trailing_zeros(),
            index,
            blocks,
            block_sets,
            clock: 0,
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Which bank services this line (line-interleaved).
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        (line as usize) & (self.banks - 1)
    }

    /// The line index of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// The tag `line` is stored under in its set.
    #[inline]
    fn tag_of(&self, line: u64) -> u64 {
        line >> self.set_bits
    }

    /// Offset in `blocks` of the first word of `set`'s block, if the set
    /// holds one.
    #[inline]
    fn block_of(&self, set: usize) -> Option<usize> {
        match self.index[set] {
            0 => None,
            number => Some((number as usize - 1) * 2 * self.ways),
        }
    }

    /// Offset in `blocks` of the way holding `line`, if it is resident.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.block_of(self.set_index(line))?;
        let tag = self.tag_of(line);
        self.blocks[base..base + 2 * self.ways]
            .chunks_exact(2)
            .position(|w| w[0] == tag && w[1] != 0)
            .map(|i| base + 2 * i)
    }

    /// Stamp the way at `way` as used now, setting its dirty bit if
    /// `dirty`.
    #[inline]
    fn touch(&mut self, way: usize, dirty: bool) {
        let stamp = &mut self.blocks[way + 1];
        *stamp = self.clock << 1 | (*stamp & DIRTY) | dirty as u64;
    }

    /// Append an empty block for `set` and return its offset.
    fn add_block(&mut self, set: usize) -> usize {
        debug_assert!(self.block_sets.len() < self.sets, "a set holds two blocks");
        let base = self.blocks.len();
        self.blocks.resize(base + 2 * self.ways, 0);
        self.block_sets.push(set);
        self.index[set] = u32::try_from(self.block_sets.len()).expect("fewer than 2^32 sets");
        base
    }

    /// Probe without updating replacement state.
    pub fn probe(&self, line: u64) -> LookupResult {
        match self.find(line) {
            Some(_) => LookupResult::Hit,
            None => LookupResult::Miss,
        }
    }

    /// Access (lookup + LRU update). `write` marks the line dirty on a
    /// hit.
    pub fn access(&mut self, line: u64, write: bool) -> LookupResult {
        self.clock += 1;
        match self.find(line) {
            Some(way) => {
                self.touch(way, write);
                LookupResult::Hit
            }
            None => LookupResult::Miss,
        }
    }

    /// Install a line (after a fill), evicting the LRU way if needed.
    ///
    /// Returns `Some((victim_line, was_dirty))` if a valid line was
    /// evicted.
    pub fn install(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        // Already present (e.g. two merged fills): refresh.
        if let Some(way) = self.find(line) {
            self.touch(way, dirty);
            return None;
        }
        // An invalid way's `last_used` reads as 0, so the first way with
        // the smallest one is the first invalid way if there is one, else
        // the least recently used.
        let set = self.set_index(line);
        let base = self.block_of(set).unwrap_or_else(|| self.add_block(set));
        let victim = (base..base + 2 * self.ways)
            .step_by(2)
            .min_by_key(|&w| self.blocks[w + 1] >> 1)
            .unwrap_or(base);
        let old_stamp = self.blocks[victim + 1];
        let evicted = (old_stamp != 0).then(|| {
            let victim_line = (self.blocks[victim] << self.set_bits) | set as u64;
            (victim_line, old_stamp & DIRTY != 0)
        });
        self.blocks[victim] = self.tag_of(line);
        self.blocks[victim + 1] = self.clock << 1 | dirty as u64;
        evicted
    }

    /// Mark a resident line dirty (writeback absorption from an upper
    /// level). Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let Some(way) = self.find(line) else {
            return false;
        };
        self.blocks[way + 1] |= DIRTY;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use proptest::prelude::*;

    /// The dense array-of-structs layout `CacheArray` used before its
    /// two-word blocks of filled sets, kept as the reference model for
    /// the proptest.
    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        valid: bool,
        dirty: bool,
        tag: u64,
        last_used: u64,
    }

    struct Reference {
        sets: usize,
        ways: usize,
        data: Vec<Way>,
        clock: u64,
    }

    impl Reference {
        fn new(config: &CacheConfig) -> Self {
            Reference {
                sets: config.sets(),
                ways: config.associativity,
                data: vec![Way::default(); config.sets() * config.associativity],
                clock: 0,
            }
        }

        fn set(&mut self, line: u64) -> (usize, u64) {
            let set = (line as usize) & (self.sets - 1);
            (set * self.ways, line / self.sets as u64)
        }

        fn find(&mut self, line: u64) -> Option<&mut Way> {
            let (base, tag) = self.set(line);
            self.data[base..base + self.ways]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)
        }

        fn probe(&mut self, line: u64) -> LookupResult {
            match self.find(line) {
                Some(_) => LookupResult::Hit,
                None => LookupResult::Miss,
            }
        }

        fn access(&mut self, line: u64, write: bool) -> LookupResult {
            self.clock += 1;
            let clock = self.clock;
            if let Some(w) = self.find(line) {
                w.last_used = clock;
                w.dirty |= write;
                return LookupResult::Hit;
            }
            LookupResult::Miss
        }

        fn install(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
            self.clock += 1;
            let clock = self.clock;
            if let Some(w) = self.find(line) {
                w.last_used = clock;
                w.dirty |= dirty;
                return None;
            }
            let (base, tag) = self.set(line);
            let mut victim = base;
            let mut victim_used = u64::MAX;
            for (i, w) in self.data[base..base + self.ways].iter().enumerate() {
                if !w.valid {
                    victim = base + i;
                    break;
                }
                if w.last_used < victim_used {
                    victim_used = w.last_used;
                    victim = base + i;
                }
            }
            let old = self.data[victim];
            let evicted = old.valid.then(|| {
                let set = (victim / self.ways) as u64;
                (old.tag * self.sets as u64 + set, old.dirty)
            });
            self.data[victim] = Way {
                valid: true,
                dirty,
                tag,
                last_used: clock,
            };
            evicted
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            self.find(line).map(|w| w.dirty = true).is_some()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn filled_set_blocks_match_the_way_struct_reference(
            ways in 1usize..9,
            set_bits in 0u32..7,
            ops in prop::collection::vec((0u8..8, 0u64..1 << 20, 0u8..2), 0..600),
        ) {
            let sets = 1usize << set_bits;
            let config = CacheConfig {
                size_bytes: (sets * ways) as u64 * 64,
                line_size: 64,
                associativity: ways,
                hit_latency: 1,
                mshr_entries: 4,
                ports: 1,
                banks: 1,
                next_line_prefetch: false,
            };
            config.validate().unwrap();
            let mut cache = CacheArray::new(&config);
            let mut reference = Reference::new(&config);
            // Three times the capacity in distinct lines: every set sees
            // hits, conflicts and evictions.
            let span = 3 * (sets * ways) as u64;
            for (op, raw, flag) in ops {
                let (line, flag) = (raw % span, flag == 1);
                match op {
                    0 | 1 => prop_assert_eq!(cache.access(line, flag), reference.access(line, flag)),
                    2..=4 => prop_assert_eq!(cache.install(line, flag), reference.install(line, flag)),
                    5 => prop_assert_eq!(cache.probe(line), reference.probe(line)),
                    6 => prop_assert_eq!(cache.mark_dirty(line), reference.mark_dirty(line)),
                    // Zeroes the index words of the sets filled since the
                    // last reset and drops their blocks: the empty cache.
                    _ => {
                        cache.reset(&config);
                        reference = Reference::new(&config);
                        prop_assert!(cache.index.iter().all(|&number| number == 0));
                        prop_assert!(cache.blocks.is_empty() && cache.block_sets.is_empty());
                    }
                }
            }
            // Every line of the span is resident in both or in neither.
            for line in 0..span {
                prop_assert_eq!(cache.probe(line), reference.probe(line), "line {}", line);
            }
        }
    }

    fn tiny_cache(ways: usize, lines: u64) -> CacheArray {
        let config = CacheConfig {
            size_bytes: lines * 64,
            line_size: 64,
            associativity: ways,
            hit_latency: 1,
            mshr_entries: 4,
            ports: 1,
            banks: 1,
            next_line_prefetch: false,
        };
        config.validate().unwrap();
        CacheArray::new(&config)
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = tiny_cache(2, 8);
        assert_eq!(c.access(5, false), LookupResult::Miss);
        c.install(5, false);
        assert_eq!(c.access(5, false), LookupResult::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 4 sets: lines 0, 4, 8 all map to set 0.
        let mut c = tiny_cache(2, 8);
        c.install(0, false);
        c.install(4, false);
        // Touch 0 so 4 becomes LRU.
        assert_eq!(c.access(0, false), LookupResult::Hit);
        let evicted = c.install(8, false);
        assert_eq!(evicted, Some((4, false)));
        assert_eq!(c.probe(0), LookupResult::Hit);
        assert_eq!(c.probe(4), LookupResult::Miss);
        assert_eq!(c.probe(8), LookupResult::Hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny_cache(1, 4);
        c.install(0, true);
        let evicted = c.install(4, false); // same set (4 sets, 1 way)
        assert_eq!(evicted, Some((0, true)));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny_cache(1, 4);
        c.install(1, false);
        c.access(1, true);
        let evicted = c.install(5, false);
        assert_eq!(evicted, Some((1, true)));
    }

    #[test]
    fn install_existing_line_is_refresh_not_eviction() {
        let mut c = tiny_cache(2, 8);
        c.install(3, false);
        assert_eq!(c.install(3, true), None);
        // The refresh made it dirty.
        let mut evicted = None;
        // Fill the set (lines 3, 7 map to set 3) then evict.
        c.install(7, false);
        c.access(7, false); // 3 becomes LRU
        evicted = c.install(11, false).or(evicted);
        assert_eq!(evicted, Some((3, true)));
    }

    #[test]
    fn capacity_behaviour_matches_size() {
        // A 16-line fully-indexed cache holds a 16-line working set.
        let mut c = tiny_cache(2, 16);
        for line in 0..16u64 {
            assert_eq!(c.access(line, false), LookupResult::Miss);
            assert_eq!(c.install(line, false), None);
        }
        // Second pass: all hits.
        for line in 0..16u64 {
            assert_eq!(c.access(line, false), LookupResult::Hit);
        }
    }

    #[test]
    fn bank_mapping_is_line_interleaved() {
        let config = CacheConfig {
            banks: 4,
            ..CacheConfig::default_l1()
        };
        let c = CacheArray::new(&config);
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(1), 1);
        assert_eq!(c.bank_of(5), 1);
        assert_eq!(c.bank_of(7), 3);
        assert_eq!(c.line_of(256), 4);
    }
}
