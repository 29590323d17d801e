//! The C-AMAT analyzer of the paper's Fig 4: an online HCD/MCD detector.
//!
//! The paper proposes a hardware detection system composed of a **Hit
//! Concurrency Detector (HCD)** — which counts total hit cycles, records
//! hit phases, and tells the miss side whether the current cycle has any
//! hit activity — and a **Miss Concurrency Detector (MCD)** — which,
//! combining the HCD's signal with the outstanding-miss information held
//! in the MSHRs, accumulates pure-miss cycles per outstanding miss.
//!
//! [`CamatDetector`] is that structure in software, with the same O(1)
//! per-cycle cost the hardware would have: the MCD keeps one cumulative
//! *pure-epoch* counter; each miss records the epoch when it becomes
//! outstanding, and its pure-miss cycle count is the epoch delta at
//! retirement (a miss is outstanding continuously, and every pure cycle
//! in that window counts for every outstanding miss).
//!
//! Two driving styles:
//!
//! * **counts API** (the fast path used by `c2-sim`):
//!   [`CamatDetector::observe_cycle_counts`] (or its k-cycle form
//!   [`CamatDetector::observe_cycles`]). The caller keeps each miss's
//!   start epoch: it reads [`CamatDetector::pure_epoch`] when the miss
//!   becomes outstanding and hands it back to
//!   [`CamatDetector::retire_access`], so no per-miss table is touched;
//! * **slice API** ([`CamatDetector::observe_cycle`]) taking the explicit
//!   outstanding-miss id list each cycle — used by the test-oracle
//!   replay of timelines, where a miss's outstanding window is inferred
//!   from its appearances. The detector keeps the start epochs, keyed by
//!   id, and [`CamatDetector::take_miss_epoch`] looks one up at
//!   retirement.

use std::collections::HashMap;

use crate::timeline::{CamatMeasurement, Timeline};

/// Opaque identifier for an in-flight miss (e.g. its MSHR slot or a
/// monotonically increasing access id).
pub type MissId = u64;

/// Online HCD/MCD detector (paper Fig 4).
#[derive(Debug, Clone, Default)]
pub struct CamatDetector {
    // HCD state
    hit_active_cycles: u64,
    hit_access_cycles: u64,
    // MCD state
    pure_miss_cycles: u64,
    pure_miss_access_cycles: u64,
    /// Cumulative pure-miss cycle count (the epoch counter).
    pure_epoch: u64,
    /// Epoch at which each outstanding miss began (slice-API only).
    start_epoch: HashMap<MissId, u64>,
    /// Pure-cycle counts of misses whose outstanding window closed
    /// before retirement (slice-API only).
    closed: HashMap<MissId, u64>,
    /// Previous cycle's outstanding set (slice-API only).
    prev_ids: Vec<MissId>,
    completed_pure_misses: u64,
    completed_pure_cycle_total: u64,
    // Access bookkeeping
    accesses: u64,
    misses: u64,
    hit_time_total: u64,
    miss_penalty_total: u64,
    memory_active_cycles: u64,
    cycles_seen: u64,
}

/// Final report from the detector; convertible into a
/// [`CamatMeasurement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorReport {
    /// The measured parameters.
    pub measurement: CamatMeasurement,
    /// Total cycles the detector observed (active or not).
    pub cycles_observed: u64,
}

impl CamatDetector {
    /// New, empty detector.
    pub fn new() -> Self {
        CamatDetector::default()
    }

    /// The pure-miss epoch: pure-miss cycles observed so far. A miss
    /// that becomes outstanding now starts at this epoch; its pure-miss
    /// cycles at retirement are the epoch's growth since (counts API).
    #[inline]
    pub fn pure_epoch(&self) -> u64 {
        self.pure_epoch
    }

    /// Feed one cycle of observation by aggregate counts (fast path):
    ///
    /// * `hits_in_flight` — accesses currently in their hit phase;
    /// * `outstanding_misses` — number of misses currently outstanding.
    #[inline]
    pub fn observe_cycle_counts(&mut self, hits_in_flight: u32, outstanding_misses: u32) {
        self.observe_cycles(hits_in_flight, outstanding_misses, 1);
    }

    /// Feed `cycles` consecutive cycles that all have the same counts:
    /// the O(1) equivalent of `cycles` calls of
    /// [`CamatDetector::observe_cycle_counts`], for a driver that only
    /// reports a core when its counts change.
    #[inline]
    pub fn observe_cycles(&mut self, hits_in_flight: u32, outstanding_misses: u32, cycles: u64) {
        self.cycles_seen += cycles;
        let has_hit = hits_in_flight > 0;
        let has_miss = outstanding_misses > 0;
        if has_hit {
            self.hit_active_cycles += cycles;
            self.hit_access_cycles += hits_in_flight as u64 * cycles;
        }
        if has_miss && !has_hit {
            // Pure-miss cycles: every outstanding miss accrues one pure
            // cycle each (MCD = HCD's "no hit" signal + MSHR occupancy).
            self.pure_miss_cycles += cycles;
            self.pure_miss_access_cycles += outstanding_misses as u64 * cycles;
            self.pure_epoch += cycles;
        }
        if has_hit || has_miss {
            self.memory_active_cycles += cycles;
        }
    }

    /// Feed one cycle of observation with the explicit outstanding-miss
    /// id list (slice API). Ids appearing for the first time begin their
    /// outstanding window; ids that vanish close theirs.
    pub fn observe_cycle(&mut self, hits_in_flight: u32, outstanding_misses: &[MissId]) {
        // Close windows of ids that disappeared.
        if !self.prev_ids.is_empty() {
            for i in 0..self.prev_ids.len() {
                let id = self.prev_ids[i];
                if !outstanding_misses.contains(&id) {
                    if let Some(start) = self.start_epoch.remove(&id) {
                        self.closed.insert(id, self.pure_epoch - start);
                    }
                }
            }
        }
        for &id in outstanding_misses {
            self.start_epoch.entry(id).or_insert(self.pure_epoch);
        }
        self.observe_cycle_counts(hits_in_flight, outstanding_misses.len() as u32);
        self.prev_ids.clear();
        self.prev_ids.extend_from_slice(outstanding_misses);
    }

    /// The start epoch of miss `id` as [`CamatDetector::observe_cycle`]
    /// tracked it, for [`CamatDetector::retire_access`] (slice API), and
    /// the end of that tracking. A window that closed before retirement
    /// reads as an epoch its pure-cycle count back from now, and an id
    /// never seen outstanding reads as now (no pure cycles).
    pub fn take_miss_epoch(&mut self, id: MissId) -> u64 {
        match self.closed.remove(&id) {
            Some(pure) => self.pure_epoch - pure,
            None => self.start_epoch.remove(&id).unwrap_or(self.pure_epoch),
        }
    }

    /// Record the retirement of an access.
    ///
    /// * `hit_cycles` — cycles the access spent in its hit phase;
    /// * `miss` — `Some((start_epoch, penalty_cycles))` if the access
    ///   missed, where `start_epoch` is [`CamatDetector::pure_epoch`]
    ///   when the miss became outstanding (or
    ///   [`CamatDetector::take_miss_epoch`] under the slice API). A miss
    ///   with a pure-miss cycle since then is a pure miss.
    pub fn retire_access(&mut self, hit_cycles: u32, miss: Option<(u64, u32)>) {
        self.accesses += 1;
        self.hit_time_total += hit_cycles as u64;
        if let Some((start_epoch, penalty)) = miss {
            self.misses += 1;
            self.miss_penalty_total += penalty as u64;
            let pure = self.pure_epoch - start_epoch;
            if pure > 0 {
                self.completed_pure_misses += 1;
                self.completed_pure_cycle_total += pure;
            }
        }
    }

    /// Cycles observed so far.
    pub fn cycles_observed(&self) -> u64 {
        self.cycles_seen
    }

    /// Accesses retired so far.
    pub fn accesses_retired(&self) -> u64 {
        self.accesses
    }

    /// Return to the empty state of [`CamatDetector::new`], keeping the
    /// miss tables' storage for the next run.
    pub fn reset(&mut self) {
        let mut start_epoch = std::mem::take(&mut self.start_epoch);
        let mut closed = std::mem::take(&mut self.closed);
        let mut prev_ids = std::mem::take(&mut self.prev_ids);
        start_epoch.clear();
        closed.clear();
        prev_ids.clear();
        *self = CamatDetector {
            start_epoch,
            closed,
            prev_ids,
            ..CamatDetector::default()
        };
    }

    /// Produce the final report. Misses the slice API still tracks are
    /// folded in as if they retired now; a counts-API miss counts once
    /// its caller retires it.
    pub fn finish(mut self) -> DetectorReport {
        self.report()
    }

    /// [`CamatDetector::finish`] in place: the report, with the misses
    /// the slice API still tracks folded in as if they retired now. Call
    /// [`CamatDetector::reset`] before observing another run.
    pub fn report(&mut self) -> DetectorReport {
        // Drain unretired misses so their pure cycles are not lost.
        for (_, start) in self.start_epoch.drain() {
            let pure = self.pure_epoch - start;
            if pure > 0 {
                self.completed_pure_misses += 1;
                self.completed_pure_cycle_total += pure;
            }
        }
        for (_, pure) in self.closed.drain() {
            if pure > 0 {
                self.completed_pure_misses += 1;
                self.completed_pure_cycle_total += pure;
            }
        }
        let n = self.accesses;
        let measurement = CamatMeasurement {
            accesses: n,
            misses: self.misses,
            pure_misses: self.completed_pure_misses,
            hit_time: if n == 0 {
                0.0
            } else {
                self.hit_time_total as f64 / n as f64
            },
            hit_concurrency: if self.hit_active_cycles == 0 {
                1.0
            } else {
                self.hit_access_cycles as f64 / self.hit_active_cycles as f64
            },
            pure_miss_concurrency: if self.pure_miss_cycles == 0 {
                1.0
            } else {
                self.pure_miss_access_cycles as f64 / self.pure_miss_cycles as f64
            },
            avg_miss_penalty: if self.misses == 0 {
                0.0
            } else {
                self.miss_penalty_total as f64 / self.misses as f64
            },
            pure_avg_miss_penalty: if self.completed_pure_misses == 0 {
                0.0
            } else {
                self.completed_pure_cycle_total as f64 / self.completed_pure_misses as f64
            },
            memory_active_cycles: self.memory_active_cycles,
            hit_active_cycles: self.hit_active_cycles,
            pure_miss_cycles: self.pure_miss_cycles,
        };
        DetectorReport {
            measurement,
            cycles_observed: self.cycles_seen,
        }
    }

    /// Replay a [`Timeline`] through the detector cycle by cycle —
    /// convenience used to validate the online path against the offline
    /// measurement.
    pub fn replay(timeline: &Timeline) -> DetectorReport {
        let mut det = CamatDetector::new();
        if timeline.is_empty() {
            return det.finish();
        }
        let accesses = timeline.accesses();
        let first = accesses
            .iter()
            .map(|a| {
                a.hit_start.min(if a.miss_len > 0 {
                    a.miss_start
                } else {
                    a.hit_start
                })
            })
            .min()
            .unwrap();
        let last = accesses.iter().map(|a| a.end()).max().unwrap();
        let mut outstanding: Vec<MissId> = Vec::new();
        for cycle in first..last {
            let mut hits = 0u32;
            outstanding.clear();
            for (i, a) in accesses.iter().enumerate() {
                if cycle >= a.hit_start && cycle < a.hit_start + a.hit_len as u64 {
                    hits += 1;
                }
                if a.miss_len > 0
                    && cycle >= a.miss_start
                    && cycle < a.miss_start + a.miss_len as u64
                {
                    outstanding.push(i as MissId);
                }
            }
            det.observe_cycle(hits, &outstanding);
            // Retire accesses whose last active cycle is this one.
            for (i, a) in accesses.iter().enumerate() {
                if a.end() == cycle + 1 {
                    let miss = if a.miss_len > 0 {
                        Some((det.take_miss_epoch(i as MissId), a.miss_len))
                    } else {
                        None
                    };
                    det.retire_access(a.hit_len, miss);
                }
            }
        }
        det.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{AccessTiming, Timeline};
    use proptest::prelude::*;

    /// Retire slice-API miss `id` with `penalty` cycles.
    fn retire_miss(det: &mut CamatDetector, hit_cycles: u32, id: MissId, penalty: u32) {
        let epoch = det.take_miss_epoch(id);
        det.retire_access(hit_cycles, Some((epoch, penalty)));
    }

    #[test]
    fn detector_matches_offline_on_fig1() {
        let tl = Timeline::paper_fig1();
        let offline = tl.measure();
        let online = CamatDetector::replay(&tl).measurement;
        assert_eq!(online.accesses, offline.accesses);
        assert_eq!(online.misses, offline.misses);
        assert_eq!(online.pure_misses, offline.pure_misses);
        assert!((online.camat() - offline.camat()).abs() < 1e-12);
        assert!((online.amat() - offline.amat()).abs() < 1e-12);
        assert!((online.hit_concurrency - offline.hit_concurrency).abs() < 1e-12);
        assert!((online.pure_miss_concurrency - offline.pure_miss_concurrency).abs() < 1e-12);
    }

    #[test]
    fn detector_matches_offline_on_random_timelines() {
        let mut state = 777u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..30 {
            let mut tl = Timeline::new();
            let n = 2 + (next() % 15) as usize;
            for _ in 0..n {
                let start = next() % 30;
                let h = 1 + (next() % 3) as u32;
                if next() % 2 == 0 {
                    let pen = 1 + (next() % 6) as u32;
                    tl.push(AccessTiming::miss(start, h, start + h as u64, pen));
                } else {
                    tl.push(AccessTiming::hit(start, h));
                }
            }
            let offline = tl.measure();
            let online = CamatDetector::replay(&tl).measurement;
            assert!(
                (online.camat() - offline.camat()).abs() < 1e-9,
                "round {round}: online {} offline {}",
                online.camat(),
                offline.camat()
            );
            assert_eq!(online.pure_misses, offline.pure_misses, "round {round}");
            assert_eq!(
                online.memory_active_cycles, offline.memory_active_cycles,
                "round {round}"
            );
        }
    }

    #[test]
    fn manual_feed_pure_miss_accounting() {
        let mut det = CamatDetector::new();
        // Cycle 0: one hit in flight, miss id 7 outstanding -> not pure.
        det.observe_cycle(1, &[7]);
        // Cycle 1-2: only miss 7 -> 2 pure cycles.
        det.observe_cycle(0, &[7]);
        det.observe_cycle(0, &[7]);
        det.retire_access(1, None); // the hit
        retire_miss(&mut det, 1, 7, 3);
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 1);
        assert!((r.measurement.pure_avg_miss_penalty - 2.0).abs() < 1e-12);
        assert_eq!(r.measurement.memory_active_cycles, 3);
        assert_eq!(r.cycles_observed, 3);
    }

    #[test]
    fn counts_api_matches_slice_api() {
        // Drive the same scenario through both APIs. Miss 1 vanishes
        // from the slice world's list at cycle 3, closing its window
        // before it retires.
        let mut slice = CamatDetector::new();
        slice.observe_cycle(2, &[]);
        slice.observe_cycle(0, &[1, 2]);
        slice.observe_cycle(0, &[1, 2]);
        slice.observe_cycle(1, &[2]);
        retire_miss(&mut slice, 1, 1, 3);
        retire_miss(&mut slice, 1, 2, 4);
        slice.retire_access(1, None);
        let a = slice.finish();

        // The counts world keeps each miss's start epoch itself.
        let mut counts = CamatDetector::new();
        counts.observe_cycle_counts(2, 0);
        let (epoch1, epoch2) = (counts.pure_epoch(), counts.pure_epoch());
        counts.observe_cycle_counts(0, 2);
        counts.observe_cycle_counts(0, 2);
        assert_eq!(counts.pure_epoch(), 2);
        // Miss 1 retires before cycle 3 in the counts world.
        counts.retire_access(1, Some((epoch1, 3)));
        counts.observe_cycle_counts(1, 1);
        counts.retire_access(1, Some((epoch2, 4)));
        counts.retire_access(1, None);
        let b = counts.finish();

        assert_eq!(a.measurement.pure_misses, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn miss_window_closes_when_id_disappears() {
        let mut det = CamatDetector::new();
        det.observe_cycle(0, &[9]); // pure cycle for 9
        det.observe_cycle(0, &[]); // 9 vanished; later pure cycles are not its
        det.observe_cycle(0, &[11]); // pure cycle for 11 only
        retire_miss(&mut det, 1, 9, 1);
        retire_miss(&mut det, 1, 11, 1);
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 2);
        // Each earned exactly 1 pure cycle.
        assert!((r.measurement.pure_avg_miss_penalty - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unretired_misses_are_drained_at_finish() {
        let mut det = CamatDetector::new();
        det.observe_cycle(0, &[1]);
        det.observe_cycle(0, &[1]);
        // Never retired — finish() must still count its pure cycles.
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 1);
        assert!((r.measurement.pure_avg_miss_penalty - 2.0).abs() < 1e-12);
    }

    #[test]
    fn idle_cycles_do_not_count_as_active() {
        let mut det = CamatDetector::new();
        det.observe_cycle(0, &[]);
        det.observe_cycle(0, &[]);
        det.observe_cycle(2, &[]);
        det.retire_access(1, None);
        det.retire_access(1, None);
        let r = det.finish();
        assert_eq!(r.measurement.memory_active_cycles, 1);
        assert_eq!(r.cycles_observed, 3);
        assert!((r.measurement.hit_concurrency - 2.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// One random run fed three ways: by bulk counts, by per-cycle
        /// counts (both keeping each miss's start epoch) and by the
        /// explicit outstanding-miss lists of the slice API.
        #[test]
        fn bulk_cycles_equal_per_cycle_accounting(
            ops in prop::collection::vec(
                (0u8..4, 0u32..4, 0u32..5, 0u64..40),
                0..120,
            ),
        ) {
            let mut bulk = CamatDetector::new();
            let mut stepped = CamatDetector::new();
            let mut slice = CamatDetector::new();
            // Outstanding misses: (id, bulk epoch, stepped epoch).
            let mut outstanding: Vec<(MissId, u64, u64)> = Vec::new();
            let mut ids: Vec<MissId> = Vec::new();
            let mut next_id: MissId = 0;
            let retire = |bulk: &mut CamatDetector,
                          stepped: &mut CamatDetector,
                          slice: &mut CamatDetector,
                          (id, bulk_epoch, stepped_epoch): (MissId, u64, u64),
                          hit_cycles: u32,
                          penalty: u32| {
                bulk.retire_access(hit_cycles, Some((bulk_epoch, penalty)));
                stepped.retire_access(hit_cycles, Some((stepped_epoch, penalty)));
                retire_miss(slice, hit_cycles, id, penalty);
            };
            for (op, a, b, cycles) in ops {
                match op {
                    0 | 1 => {
                        let misses = outstanding.len() as u32;
                        bulk.observe_cycles(a, misses, cycles);
                        ids.clear();
                        ids.extend(outstanding.iter().map(|m| m.0));
                        for _ in 0..cycles {
                            stepped.observe_cycle_counts(a, misses);
                            slice.observe_cycle(a, &ids);
                        }
                    }
                    2 => {
                        prop_assert_eq!(bulk.pure_epoch(), stepped.pure_epoch());
                        outstanding.push((next_id, bulk.pure_epoch(), stepped.pure_epoch()));
                        next_id += 1;
                    }
                    _ if b % 2 == 1 || outstanding.is_empty() => {
                        for det in [&mut bulk, &mut stepped, &mut slice] {
                            det.retire_access(a + 1, None);
                        }
                    }
                    _ => {
                        let miss = outstanding.remove(b as usize % outstanding.len());
                        retire(&mut bulk, &mut stepped, &mut slice, miss, a + 1, b + 1);
                    }
                }
                prop_assert_eq!(bulk.cycles_observed(), stepped.cycles_observed());
                prop_assert_eq!(bulk.cycles_observed(), slice.cycles_observed());
            }
            // A counts-API miss counts once retired: retire the rest.
            for miss in outstanding.drain(..) {
                retire(&mut bulk, &mut stepped, &mut slice, miss, 1, 1);
            }
            let report = bulk.finish();
            prop_assert_eq!(report, stepped.finish());
            prop_assert_eq!(report, slice.finish());
        }
    }

    #[test]
    fn reset_detector_reports_like_a_new_one() {
        let feed = |det: &mut CamatDetector| {
            det.observe_cycle(1, &[3]);
            det.observe_cycle(0, &[3, 4]);
            retire_miss(det, 1, 3, 2);
            det.observe_cycle(2, &[4]);
            retire_miss(det, 1, 4, 3);
        };
        let mut used = CamatDetector::new();
        feed(&mut used);
        // Leave a closed window, an open one and a previous-cycle list.
        used.observe_cycle(0, &[5]);
        used.observe_cycle(0, &[6]);
        assert_eq!(used.report(), used.clone().finish(), "report is idempotent");
        used.reset();
        feed(&mut used);
        let mut fresh = CamatDetector::new();
        feed(&mut fresh);
        assert_eq!(used.report(), fresh.finish());
    }

    #[test]
    fn empty_detector_reports_zero() {
        let r = CamatDetector::new().finish();
        assert_eq!(r.measurement.accesses, 0);
        assert_eq!(r.cycles_observed, 0);
    }
}
