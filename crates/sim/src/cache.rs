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
/// Each way is two words of one flat vector, set-major: the line's tag,
/// then a stamp `last_used << 1 | dirty`. Every access and install first
/// advances the clock, so a resident line's stamp is at least 2 and a
/// zero stamp marks an invalid way. The all-zero vector is therefore the
/// empty cache: [`CacheArray::new`] takes zeroed memory, which the
/// allocator hands out for large arrays as untouched pages, so building
/// a 64 MiB shared L2 costs the sets a run touches rather than its
/// capacity.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    banks: usize,
    line_size: u64,
    data: Vec<u64>,
    clock: u64,
    // Statistics
    hits: u64,
    misses: u64,
    evictions: u64,
    dirty_evictions: u64,
}

/// The dirty bit of a way's stamp word.
const DIRTY: u64 = 1;

impl CacheArray {
    /// Build from a validated configuration.
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        CacheArray {
            sets,
            ways: config.associativity,
            banks: config.banks,
            line_size: config.line_size,
            data: vec![0; 2 * sets * config.associativity],
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            dirty_evictions: 0,
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
        addr / self.line_size
    }

    /// Global index of the way holding `line`, if it is resident.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_index(line) * self.ways;
        let tag = line / self.sets as u64;
        self.data[2 * base..2 * (base + self.ways)]
            .chunks_exact(2)
            .position(|w| w[0] == tag && w[1] != 0)
            .map(|i| base + i)
    }

    /// Stamp `way` as used now, setting its dirty bit if `dirty`.
    #[inline]
    fn touch(&mut self, way: usize, dirty: bool) {
        let stamp = &mut self.data[2 * way + 1];
        *stamp = self.clock << 1 | (*stamp & DIRTY) | dirty as u64;
    }

    /// Probe without updating replacement state or statistics.
    pub fn probe(&self, line: u64) -> LookupResult {
        match self.find(line) {
            Some(_) => LookupResult::Hit,
            None => LookupResult::Miss,
        }
    }

    /// Access (lookup + LRU update + stats). `write` marks the line dirty
    /// on a hit.
    pub fn access(&mut self, line: u64, write: bool) -> LookupResult {
        self.clock += 1;
        match self.find(line) {
            Some(way) => {
                self.touch(way, write);
                self.hits += 1;
                LookupResult::Hit
            }
            None => {
                self.misses += 1;
                LookupResult::Miss
            }
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
        let base = set * self.ways;
        let victim = (base..base + self.ways)
            .min_by_key(|&w| self.data[2 * w + 1] >> 1)
            .unwrap_or(base);
        let old_stamp = self.data[2 * victim + 1];
        let evicted = (old_stamp != 0).then(|| {
            let victim_line = self.data[2 * victim] * self.sets as u64 + set as u64;
            (victim_line, old_stamp & DIRTY != 0)
        });
        self.data[2 * victim] = line / self.sets as u64;
        self.data[2 * victim + 1] = self.clock << 1 | dirty as u64;
        if let Some((_, d)) = evicted {
            self.evictions += 1;
            if d {
                self.dirty_evictions += 1;
            }
        }
        evicted
    }

    /// Mark a resident line dirty (writeback absorption from an upper
    /// level). Returns `false` if the line is not resident.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let Some(way) = self.find(line) else {
            return false;
        };
        self.data[2 * way + 1] |= DIRTY;
        true
    }

    /// Invalidate a line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let way = self.find(line)?;
        let stamp = std::mem::take(&mut self.data[2 * way + 1]);
        Some(stamp & DIRTY != 0)
    }

    /// Hits recorded by [`CacheArray::access`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`CacheArray::access`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total evictions of valid lines.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions of dirty lines (writebacks generated).
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.data.chunks_exact(2).filter(|w| w[1] != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use proptest::prelude::*;

    /// The array-of-structs layout `CacheArray` used before its zeroed
    /// two-word layout, kept as the reference model for the proptest.
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
        hits: u64,
        misses: u64,
        evictions: u64,
        dirty_evictions: u64,
    }

    impl Reference {
        fn new(config: &CacheConfig) -> Self {
            Reference {
                sets: config.sets(),
                ways: config.associativity,
                data: vec![Way::default(); config.sets() * config.associativity],
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                dirty_evictions: 0,
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
                self.hits += 1;
                return LookupResult::Hit;
            }
            self.misses += 1;
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
            if let Some((_, d)) = evicted {
                self.evictions += 1;
                self.dirty_evictions += d as u64;
            }
            evicted
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            self.find(line).map(|w| w.dirty = true).is_some()
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            self.find(line).map(|w| {
                w.valid = false;
                w.dirty
            })
        }

        fn resident_lines(&self) -> usize {
            self.data.iter().filter(|w| w.valid).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn zeroed_layout_matches_the_way_struct_reference(
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
                    _ => prop_assert_eq!(cache.invalidate(line), reference.invalidate(line)),
                }
            }
            prop_assert_eq!(cache.hits(), reference.hits);
            prop_assert_eq!(cache.misses(), reference.misses);
            prop_assert_eq!(cache.evictions(), reference.evictions);
            prop_assert_eq!(cache.dirty_evictions(), reference.dirty_evictions);
            prop_assert_eq!(cache.resident_lines(), reference.resident_lines());
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
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
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
        assert_eq!(c.dirty_evictions(), 1);
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
        assert_eq!(c.evictions(), 0);
        // The refresh made it dirty.
        let mut evicted = None;
        // Fill the set (lines 3, 7 map to set 3) then evict.
        c.install(7, false);
        c.access(7, false); // 3 becomes LRU
        evicted = c.install(11, false).or(evicted);
        assert_eq!(evicted, Some((3, true)));
    }

    #[test]
    fn invalidate() {
        let mut c = tiny_cache(2, 8);
        c.install(2, true);
        assert_eq!(c.invalidate(2), Some(true));
        assert_eq!(c.probe(2), LookupResult::Miss);
        assert_eq!(c.invalidate(2), None);
    }

    #[test]
    fn capacity_behaviour_matches_size() {
        // A 16-line fully-indexed cache holds a 16-line working set.
        let mut c = tiny_cache(2, 16);
        for line in 0..16u64 {
            c.access(line, false);
            c.install(line, false);
        }
        assert_eq!(c.resident_lines(), 16);
        // Second pass: all hits.
        for line in 0..16u64 {
            assert_eq!(c.access(line, false), LookupResult::Hit);
        }
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
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
