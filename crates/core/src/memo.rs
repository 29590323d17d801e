//! One simulation per design point the simulator can tell apart.
//!
//! A CPU price is the weighted sum of one or more simulator runs' cycle
//! counts: one run of the whole workload in full mode, each phase's
//! window and warmup in phase mode (DESIGN.md §13). Two points that
//! differ only in ROB sizes at or above [`c2_sim::rob_saturation`] of
//! every run behind the price give the same `SimResult`, run for run.
//! [`PointMemo`] keys its entries by the *effective* point, the ROB
//! clamped to that bound, so a DSE simulates each such point's runs
//! once, whichever engine threads ask for it, and every price keeps
//! its bits.

use std::collections::hash_map::{Entry as Slot, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::{rob_saturation, ChipConfig, SimResult, Simulator};
use c2_trace::Trace;
use c2_workloads::{SplitMemo, WorkloadTrace};

use crate::dse::{chip_config_for, DesignPoint};
use crate::Result;

/// One simulator run behind a price: a standalone workload, its
/// per-core splits, and the weight its cycle count carries in the
/// price.
#[derive(Debug, Clone)]
pub struct SimRun {
    trace: WorkloadTrace,
    splits: SplitMemo,
    weight: f64,
}

impl SimRun {
    /// A run of `trace` whose cycles count `weight` times.
    pub fn new(trace: WorkloadTrace, weight: f64) -> Self {
        SimRun {
            trace,
            splits: SplitMemo::default(),
            weight,
        }
    }

    /// The workload the run simulates.
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// The weight of the run's cycles in the price.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The workload split across `cores` cores, computed once per core
    /// count.
    pub fn split(&self, cores: usize) -> Arc<[Trace]> {
        self.splits.split(&self.trace, cores)
    }

    /// Simulate the run on `config`, one split trace per core.
    pub fn simulate(&self, config: &ChipConfig) -> Result<SimResult> {
        let traces = self.split(config.cores);
        Ok(Simulator::new(config.clone()).run(&traces)?)
    }
}

/// A per-DSE memo of the simulator runs behind each CPU price, keyed by
/// effective design point and shared by every engine thread.
#[derive(Debug, Default)]
pub struct PointMemo {
    entries: Mutex<HashMap<[u64; 6], Arc<Entry>>>,
    hits: AtomicU64,
}

#[derive(Debug)]
struct Entry {
    /// The evaluation key of the call that created the entry.
    creator: u64,
    cells: Cells,
}

impl PointMemo {
    /// `Σ weight · total_cycles` over `runs` at `point`, in run order:
    /// the price [`PhasePlan::estimate`] sums, or one run's cycles.
    /// `key` identifies the evaluation, as [`Oracle::evaluate`] gets
    /// it. Each run is simulated once per effective point: the call
    /// that creates an entry runs its cells first to last, and a call
    /// that finds the entry in flight runs the cells nobody has started
    /// last to first before it waits. A failed run yields the first
    /// error in run order, whichever call hit it.
    ///
    /// [`PhasePlan::estimate`]: crate::PhasePlan::estimate
    /// [`Oracle::evaluate`]: crate::Oracle::evaluate
    pub fn price(
        &self,
        key: u64,
        point: &DesignPoint,
        runs: &[SimRun],
        area: &AreaModel,
        budget: &SiliconBudget,
    ) -> Result<f64> {
        let config = chip_config_for(point, area, budget)?;
        let saturation = runs
            .iter()
            .map(|run| rob_saturation(&run.split(config.cores)))
            .max()
            .unwrap_or(1);
        let address = [
            point.a0.to_bits(),
            point.a1.to_bits(),
            point.a2.to_bits(),
            point.n as u64,
            point.issue_width as u64,
            point.rob_size.min(saturation) as u64,
        ];
        let (entry, joined) = {
            // One insert per update: a poisoned map holds whole entries.
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            match entries.entry(address) {
                Slot::Occupied(slot) => (Arc::clone(slot.get()), true),
                Slot::Vacant(slot) => {
                    let entry = Arc::new(Entry {
                        creator: key,
                        cells: Cells::new(runs.len()),
                    });
                    (Arc::clone(slot.insert(entry)), false)
                }
            }
        };
        if joined && entry.creator != key {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        entry.cells.resolve(
            joined,
            |i| Ok(runs[i].simulate(&config)?.total_cycles),
            runs.iter().map(SimRun::weight),
        )
    }

    /// Evaluations answered by an entry another evaluation created.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// One run's place in an entry.
#[derive(Debug)]
enum Cell {
    /// Nobody has started the run.
    Open,
    /// A thread is simulating it.
    Running,
    /// Its cycle count, or why it failed.
    Done(Result<u64>),
}

/// An entry's runs, one cell each, filled by whichever threads price
/// the entry's point.
#[derive(Debug)]
struct Cells {
    cells: Mutex<Vec<Cell>>,
    filled: Condvar,
}

impl Cells {
    fn new(runs: usize) -> Self {
        Cells {
            cells: Mutex::new((0..runs).map(|_| Cell::Open).collect()),
            filled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Cell>> {
        // Runs happen outside the lock and every update under it is one
        // assignment, so a poisoned lock still holds whole cells.
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fill the open cells with `run`, first to last or, `backward`,
    /// last to first, then wait for the cells other threads are
    /// running, and fold the cycles in run order. Only the cells up to
    /// the first failed run decide the price, so no thread runs or
    /// waits for a cell past it.
    fn resolve(
        &self,
        backward: bool,
        run: impl Fn(usize) -> Result<u64>,
        weights: impl Iterator<Item = f64>,
    ) -> Result<f64> {
        let mut cells = self.lock();
        loop {
            let needed = cells
                .iter()
                .position(|cell| matches!(cell, Cell::Done(Err(_))))
                .map_or(cells.len(), |i| i + 1);
            let open = |i: &usize| matches!(cells[*i], Cell::Open);
            let next = if backward {
                (0..needed).rev().find(open)
            } else {
                (0..needed).find(open)
            };
            match next {
                Some(i) => {
                    cells[i] = Cell::Running;
                    drop(cells);
                    let claim = Claim { cells: self, i };
                    let done = run(i);
                    cells = self.lock();
                    cells[i] = Cell::Done(done);
                    drop(claim);
                    self.filled.notify_all();
                }
                None if cells[..needed]
                    .iter()
                    .all(|cell| matches!(cell, Cell::Done(_))) =>
                {
                    return fold(&cells[..needed], weights);
                }
                None => {
                    cells = self
                        .filled
                        .wait(cells)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// `Σ weight · cycles` in run order, as `PhaseEstimate` sums
/// `total_cycles`; the first failed run's error if one failed.
fn fold(cells: &[Cell], weights: impl Iterator<Item = f64>) -> Result<f64> {
    let mut total = 0.0;
    for (cell, weight) in cells.iter().zip(weights) {
        match cell {
            Cell::Done(Ok(cycles)) => total += weight * *cycles as f64,
            Cell::Done(Err(e)) => return Err(e.clone()),
            Cell::Open | Cell::Running => unreachable!("folded an unfilled cell"),
        }
    }
    Ok(total)
}

/// A running cell's claim: if its run unwinds, the cell reopens, so a
/// waiting thread runs it instead of waiting for ever.
struct Claim<'a> {
    cells: &'a Cells,
    i: usize,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cells.lock()[self.i] = Cell::Open;
            self.cells.filled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhasePlan;
    use crate::Error;
    use c2_trace::PhaseConfig;
    use c2_workloads::{stencil::Stencil2D, Workload};

    /// Fill fresh cells forward, backward, and by two threads at once:
    /// the creator holds the first cell until the joiner, finding it in
    /// flight, has run every other cell it needs down to the second.
    fn three_ways(
        runs: usize,
        run: impl Fn(usize) -> Result<u64> + Sync,
        weights: &[f64],
    ) -> [Result<f64>; 4] {
        assert!(runs >= 2);
        let resolve = |cells: &Cells, backward, run: &(dyn Fn(usize) -> Result<u64> + Sync)| {
            cells.resolve(backward, run, weights.iter().copied())
        };
        let forward = resolve(&Cells::new(runs), false, &run);
        let backward = resolve(&Cells::new(runs), true, &run);
        let shared = Cells::new(runs);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let creator = s.spawn(|| {
                let held = |i| {
                    if i == 0 {
                        barrier.wait(); // the first cell is in flight
                        barrier.wait(); // the joiner reached the second
                    }
                    run(i)
                };
                resolve(&shared, false, &held)
            });
            let joiner = s.spawn(|| {
                barrier.wait();
                let reached = |i| {
                    if i == 1 {
                        barrier.wait();
                    }
                    run(i)
                };
                resolve(&shared, true, &reached)
            });
            (creator.join().unwrap(), joiner.join().unwrap())
        });
        [forward, backward, a, b]
    }

    /// The phase-mode benchmark's plan (stencil 64) priced at N = 512:
    /// every fill order folds to the bits `estimate` sums.
    #[test]
    fn every_fill_order_prices_the_estimates_bits() {
        let workload = Stencil2D::new(64, 64, 2, 1).generate();
        let config = PhaseConfig {
            interval_len: 1000,
            clusters: 4,
            seed: 24301,
            ..PhaseConfig::default()
        };
        let plan = PhasePlan::detect(&workload, &config).unwrap();
        let (area, budget) = (
            AreaModel::default(),
            SiliconBudget::new(400.0, 40.0).unwrap(),
        );
        let point = DesignPoint {
            a0: 0.5,
            a1: 0.05,
            a2: 0.1,
            n: 512,
            issue_width: 4,
            rob_size: 64,
        };
        let expected = plan.estimate(&point, &area, &budget).unwrap().total_cycles;
        let runs = plan.runs();
        assert_eq!(runs.len(), 8, "four phases, each with a warmup");
        let chip = chip_config_for(&point, &area, &budget).unwrap();
        let weights: Vec<f64> = runs.iter().map(SimRun::weight).collect();
        let priced = three_ways(
            runs.len(),
            |i| Ok(runs[i].simulate(&chip)?.total_cycles),
            &weights,
        );
        for price in priced {
            assert_eq!(price.unwrap().to_bits(), expected.to_bits());
        }
        let memo = PointMemo::default();
        let priced = memo.price(7, &point, runs, &area, &budget).unwrap();
        assert_eq!(priced.to_bits(), expected.to_bits());
    }

    /// Floating-point sums depend on their order: these weights sum to
    /// 0 first to last and to 1 last to first.
    #[test]
    fn the_fold_sums_in_run_order() {
        for price in three_ways(3, |_| Ok(1), &[1.0, 1e16, -1e16]) {
            assert_eq!(price, Ok(0.0));
        }
    }

    #[test]
    fn a_failed_run_yields_the_first_error_in_run_order() {
        let run = |i: usize| match i {
            2 | 5 => Err(Error::Simulation(format!("run {i}"))),
            _ => Ok(i as u64 * 100),
        };
        for price in three_ways(7, run, &[1.0; 7]) {
            assert_eq!(price, Err(Error::Simulation("run 2".into())));
        }
        // Only the last run fails: every cell before it is needed.
        let last = |i: usize| match i {
            6 => Err(Error::Simulation("last".into())),
            _ => Ok(1),
        };
        for price in three_ways(7, last, &[1.0; 7]) {
            assert_eq!(price, Err(Error::Simulation("last".into())));
        }
    }

    /// A run that unwinds reopens its cell: the next call runs it.
    #[test]
    fn an_unwound_run_reopens_its_cell() {
        let cells = Cells::new(2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cells.resolve(false, |_| panic!("injected"), [1.0, 1.0].into_iter())
        }));
        assert!(panicked.is_err());
        let price = cells.resolve(true, |i| Ok(i as u64 + 1), [1.0, 2.0].into_iter());
        assert_eq!(price, Ok(5.0));
    }

    /// ROB sizes past every run's longest trace share one entry; the
    /// key of the evaluation that made it never counts as a hit.
    #[test]
    fn saturated_rob_sizes_share_an_entry() {
        let workload = Stencil2D::new(16, 16, 1, 1).generate();
        let runs = [SimRun::new(workload, 1.0)];
        let (area, budget) = (
            AreaModel::default(),
            SiliconBudget::new(400.0, 40.0).unwrap(),
        );
        let at = |rob_size| DesignPoint {
            a0: 0.5,
            a1: 0.05,
            a2: 0.1,
            n: 64,
            issue_width: 4,
            rob_size,
        };
        let bound = rob_saturation(&runs[0].split(64));
        let memo = PointMemo::default();
        let price = |key, rob_size| memo.price(key, &at(rob_size), &runs, &area, &budget);
        let first = price(0, bound).unwrap();
        assert_eq!(price(0, bound), Ok(first), "a retry of the same evaluation");
        assert_eq!(memo.hits(), 0);
        assert_eq!(price(1, bound + 100), Ok(first));
        assert_eq!(price(2, 4 * bound), Ok(first));
        assert_eq!(memo.hits(), 2);
        price(3, bound - 1).unwrap();
        assert_eq!(memo.hits(), 2, "a ROB below the bound is its own point");
        assert_eq!(memo.entries.lock().unwrap().len(), 2);
    }
}
