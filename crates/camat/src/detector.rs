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
//! The detector is driven by aggregate counts:
//! [`CamatDetector::observe_cycle_counts`] (or its k-cycle form
//! [`CamatDetector::observe_cycles`]). The caller keeps each miss's
//! start epoch: it reads [`CamatDetector::pure_epoch`] when the miss
//! becomes outstanding and hands it back to
//! [`CamatDetector::retire_access`], so no per-miss table is touched.
//! `c2-sim` drives it this way, and so does [`CamatDetector::replay`].

use crate::timeline::{CamatMeasurement, Timeline};

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
    /// cycles at retirement are the epoch's growth since.
    #[inline]
    pub fn pure_epoch(&self) -> u64 {
        self.pure_epoch
    }

    /// Feed one cycle of observation by aggregate counts:
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

    /// Record the retirement of an access.
    ///
    /// * `hit_cycles` — cycles the access spent in its hit phase;
    /// * `miss` — `Some((start_epoch, penalty_cycles))` if the access
    ///   missed, where `start_epoch` is [`CamatDetector::pure_epoch`]
    ///   when the miss became outstanding. A miss with a pure-miss cycle
    ///   since then is a pure miss.
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

    /// Return to the empty state of [`CamatDetector::new`].
    pub fn reset(&mut self) {
        *self = CamatDetector::default();
    }

    /// Produce the final report. A miss counts once its caller retires
    /// it.
    pub fn finish(self) -> DetectorReport {
        self.report()
    }

    /// [`CamatDetector::finish`] in place. Call
    /// [`CamatDetector::reset`] before observing another run.
    pub fn report(&self) -> DetectorReport {
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
    /// measurement. Each access's miss reads its start epoch when its
    /// miss phase begins; a miss phase that ends before its access
    /// retires keeps the pure cycles it earned by then, so later pure
    /// cycles are not charged to it.
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
        // Per access: the epoch its miss phase began at, and its
        // pure-cycle count once that phase ended.
        let mut start_epoch = vec![0u64; accesses.len()];
        let mut ended_pure: Vec<Option<u64>> = vec![None; accesses.len()];
        for cycle in first..last {
            let mut hits = 0u32;
            let mut misses = 0u32;
            for (i, a) in accesses.iter().enumerate() {
                if cycle >= a.hit_start && cycle < a.hit_start + a.hit_len as u64 {
                    hits += 1;
                }
                if a.miss_len > 0 {
                    let miss_end = a.miss_start + a.miss_len as u64;
                    if cycle == a.miss_start {
                        start_epoch[i] = det.pure_epoch();
                    }
                    if cycle == miss_end {
                        ended_pure[i] = Some(det.pure_epoch() - start_epoch[i]);
                    }
                    if cycle >= a.miss_start && cycle < miss_end {
                        misses += 1;
                    }
                }
            }
            det.observe_cycle_counts(hits, misses);
            // Retire accesses whose last active cycle is this one.
            for (i, a) in accesses.iter().enumerate() {
                if a.end() == cycle + 1 {
                    let miss = (a.miss_len > 0).then(|| {
                        let epoch = match ended_pure[i] {
                            Some(pure) => det.pure_epoch() - pure,
                            None => start_epoch[i],
                        };
                        (epoch, a.miss_len)
                    });
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
        // Cycle 0: one hit in flight, a miss outstanding -> not pure.
        let epoch = det.pure_epoch();
        det.observe_cycle_counts(1, 1);
        // Cycle 1-2: only the miss -> 2 pure cycles.
        det.observe_cycle_counts(0, 1);
        det.observe_cycle_counts(0, 1);
        det.retire_access(1, None); // the hit
        det.retire_access(1, Some((epoch, 3)));
        let r = det.finish();
        assert_eq!(r.measurement.pure_misses, 1);
        assert!((r.measurement.pure_avg_miss_penalty - 2.0).abs() < 1e-12);
        assert_eq!(r.measurement.memory_active_cycles, 3);
        assert_eq!(r.cycles_observed, 3);
    }

    #[test]
    fn unretired_misses_do_not_count() {
        let mut det = CamatDetector::new();
        det.observe_cycle_counts(0, 1);
        det.observe_cycle_counts(0, 1);
        // Never retired: its pure cycles are observed, but it is not
        // yet a pure miss.
        let r = det.finish();
        assert_eq!(r.measurement.pure_miss_cycles, 2);
        assert_eq!(r.measurement.pure_misses, 0);
    }

    #[test]
    fn idle_cycles_do_not_count_as_active() {
        let mut det = CamatDetector::new();
        det.observe_cycle_counts(0, 0);
        det.observe_cycle_counts(0, 0);
        det.observe_cycle_counts(2, 0);
        det.retire_access(1, None);
        det.retire_access(1, None);
        let r = det.finish();
        assert_eq!(r.measurement.memory_active_cycles, 1);
        assert_eq!(r.cycles_observed, 3);
        assert!((r.measurement.hit_concurrency - 2.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// One random run fed two ways, by bulk counts and by per-cycle
        /// counts, each keeping each miss's start epoch.
        #[test]
        fn bulk_cycles_equal_per_cycle_accounting(
            ops in prop::collection::vec(
                (0u8..4, 0u32..4, 0u32..5, 0u64..40),
                0..120,
            ),
        ) {
            let mut bulk = CamatDetector::new();
            let mut stepped = CamatDetector::new();
            // Outstanding misses: (bulk epoch, stepped epoch).
            let mut outstanding: Vec<(u64, u64)> = Vec::new();
            for (op, a, b, cycles) in ops {
                match op {
                    0 | 1 => {
                        let misses = outstanding.len() as u32;
                        bulk.observe_cycles(a, misses, cycles);
                        for _ in 0..cycles {
                            stepped.observe_cycle_counts(a, misses);
                        }
                    }
                    2 => {
                        prop_assert_eq!(bulk.pure_epoch(), stepped.pure_epoch());
                        outstanding.push((bulk.pure_epoch(), stepped.pure_epoch()));
                    }
                    _ if b % 2 == 1 || outstanding.is_empty() => {
                        bulk.retire_access(a + 1, None);
                        stepped.retire_access(a + 1, None);
                    }
                    _ => {
                        let (bulk_epoch, stepped_epoch) =
                            outstanding.remove(b as usize % outstanding.len());
                        bulk.retire_access(a + 1, Some((bulk_epoch, b + 1)));
                        stepped.retire_access(a + 1, Some((stepped_epoch, b + 1)));
                    }
                }
                prop_assert_eq!(bulk.cycles_observed(), stepped.cycles_observed());
            }
            // A miss counts once retired: retire the rest.
            for (bulk_epoch, stepped_epoch) in outstanding.drain(..) {
                bulk.retire_access(1, Some((bulk_epoch, 1)));
                stepped.retire_access(1, Some((stepped_epoch, 1)));
            }
            prop_assert_eq!(bulk.finish(), stepped.finish());
        }
    }

    #[test]
    fn reset_detector_reports_like_a_new_one() {
        let feed = |det: &mut CamatDetector| {
            let first = det.pure_epoch();
            det.observe_cycle_counts(1, 1);
            let second = det.pure_epoch();
            det.observe_cycle_counts(0, 2);
            det.retire_access(1, Some((first, 2)));
            det.observe_cycle_counts(2, 1);
            det.retire_access(1, Some((second, 3)));
        };
        let mut used = CamatDetector::new();
        feed(&mut used);
        // Leave pure cycles and an unretired miss behind.
        used.observe_cycle_counts(0, 1);
        used.observe_cycle_counts(0, 1);
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
