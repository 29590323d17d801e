//! DRAM model: per-bank row-buffer state machines with DDR-style timing.
//!
//! This is the DRAMSim2 stand-in: each bank tracks its open row; a
//! request to the open row costs `tCAS`, a closed-row access costs
//! `tRCD + tCAS`, and a row conflict costs `tRP + tRCD + tCAS`. Lines
//! are returned over a shared data bus that serializes transfers
//! (`tBUS` per line), which is what makes DRAM bandwidth — not just
//! latency — a first-class constraint, exactly the property the paper's
//! Fig 13 APC gap depends on.

use crate::config::DramConfig;
use crate::fault::DramSpike;

/// A request queued at the DRAM controller, with its bank and row
/// computed once at enqueue rather than on every scan of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DramRequest {
    id: u64,
    bank: usize,
    row: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The DRAM controller + banks.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// Cache lines per row: `row_size / line_size`, at least 1.
    lines_per_row: u64,
    banks: Vec<Bank>,
    queue: Vec<DramRequest>,
    bus_free_at: u64,
    /// Injected latency spike (fault-injection hook; `None` normally).
    spike: Option<DramSpike>,
    /// Completions ready to be collected: (cycle_done, request id).
    completed: Vec<(u64, u64)>,
    // Statistics
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
}

impl Dram {
    /// Build from a validated configuration, behind caches of
    /// `line_size`-byte lines (`ChipConfig::validate` checks that a row
    /// holds at least one).
    pub fn new(config: DramConfig, line_size: u64) -> Self {
        Dram::with_storage(config, line_size, Vec::new(), Vec::new(), Vec::new())
    }

    /// Return to the idle controller [`Dram::new`] builds for `config`
    /// and `line_size`, with no spike armed, keeping the bank, queue and
    /// completion storage.
    pub(crate) fn reset(&mut self, config: DramConfig, line_size: u64) {
        let banks = std::mem::take(&mut self.banks);
        let queue = std::mem::take(&mut self.queue);
        let completed = std::mem::take(&mut self.completed);
        *self = Dram::with_storage(config, line_size, banks, queue, completed);
    }

    /// An idle controller for `config`, built in (possibly used) storage.
    fn with_storage(
        config: DramConfig,
        line_size: u64,
        mut banks: Vec<Bank>,
        mut queue: Vec<DramRequest>,
        mut completed: Vec<(u64, u64)>,
    ) -> Self {
        banks.clear();
        banks.resize(config.banks, Bank::default());
        queue.clear();
        queue.reserve(config.queue_depth);
        completed.clear();
        Dram {
            config,
            lines_per_row: config.row_size / line_size,
            banks,
            queue,
            bus_free_at: 0,
            spike: None,
            completed,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
        }
    }

    /// Arm (or clear) an injected latency spike. Accesses dispatched
    /// while the spike window is active complete `extra` cycles late.
    pub fn set_spike(&mut self, spike: Option<DramSpike>) {
        self.spike = spike;
    }

    /// Whether the controller queue can accept another request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.config.queue_depth
    }

    /// Enqueue a line request, a read or a writeback. Returns `false`
    /// if the queue is full.
    pub fn enqueue(&mut self, id: u64, line: u64) -> bool {
        if !self.can_accept() {
            return false;
        }
        let (bank, row) = self.bank_and_row(line);
        self.queue.push(DramRequest { id, bank, row });
        true
    }

    #[inline]
    fn bank_and_row(&self, line: u64) -> (usize, u64) {
        let row = line / self.lines_per_row;
        let bank = (row as usize) & (self.config.banks - 1);
        (bank, row)
    }

    /// Advance to cycle `now`: dispatch queued requests to free banks
    /// (FR-FCFS-lite: oldest row-hit first, then oldest).
    pub fn tick(&mut self, now: u64) {
        // Dispatch as many requests as have free banks this cycle.
        loop {
            // Find the best dispatchable request.
            let mut best: Option<(usize, bool)> = None; // (queue idx, row hit)
            for (qi, r) in self.queue.iter().enumerate() {
                let bank = &self.banks[r.bank];
                if bank.busy_until > now {
                    continue;
                }
                let row_hit = bank.open_row == Some(r.row);
                match best {
                    None => best = Some((qi, row_hit)),
                    Some((_, best_hit)) if row_hit && !best_hit => best = Some((qi, row_hit)),
                    _ => {}
                }
            }
            let Some((qi, _)) = best else { break };
            let r = self.queue.remove(qi);
            let row = r.row;
            let bank = &mut self.banks[r.bank];
            let access_latency = match bank.open_row {
                Some(open) if open == row => {
                    self.row_hits += 1;
                    self.config.t_cas
                }
                Some(_) => {
                    self.row_conflicts += 1;
                    self.config.t_rp + self.config.t_rcd + self.config.t_cas
                }
                None => {
                    self.row_misses += 1;
                    self.config.t_rcd + self.config.t_cas
                }
            } as u64;
            bank.open_row = Some(row);
            // Injected latency spike: accesses dispatched inside the
            // window see a slower device across the board.
            let spike_extra = match &self.spike {
                Some(s) if s.window.contains(now) => s.extra,
                _ => 0,
            };
            let column_done = now + access_latency + spike_extra;
            // The data transfer serializes on the shared bus.
            let bus_start = self.bus_free_at.max(column_done);
            let done = bus_start + self.config.t_bus as u64;
            self.bus_free_at = done;
            bank.busy_until = column_done;
            // A write completes at the controller too: the engine
            // drops its completion.
            self.completed.push((done, r.id));
        }
    }

    /// Collect completions with `done_cycle <= now`.
    pub fn drain_completed(&mut self, now: u64, out: &mut Vec<u64>) {
        let mut i = 0;
        while i < self.completed.len() {
            if self.completed[i].0 <= now {
                out.push(self.completed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
    }

    /// Whether any request is queued, in service, or awaiting completion.
    pub fn is_active(&self, now: u64) -> bool {
        !self.queue.is_empty()
            || !self.completed.is_empty()
            || self.banks.iter().any(|b| b.busy_until > now)
            || self.bus_free_at > now
    }

    /// Row-buffer hits.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Accesses to closed rows.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Row conflicts (precharge needed).
    pub fn row_conflicts(&self) -> u64 {
        self.row_conflicts
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            banks: 2,
            row_size: 1024, // 16 lines per row
            t_rcd: 10,
            t_cas: 10,
            t_rp: 10,
            t_bus: 4,
            queue_depth: 8,
        }
    }

    #[test]
    fn closed_row_access_takes_rcd_plus_cas_plus_bus() {
        let mut d = Dram::new(cfg(), 64);
        assert!(d.enqueue(1, 0));
        d.tick(0);
        let mut out = Vec::new();
        d.drain_completed(23, &mut out);
        assert!(out.is_empty());
        d.drain_completed(24, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(d.row_misses(), 1);
    }

    #[test]
    fn open_row_access_is_faster() {
        let mut d = Dram::new(cfg(), 64);
        d.enqueue(1, 0);
        d.tick(0);
        let mut out = Vec::new();
        d.drain_completed(100, &mut out);
        // Same row, bank now open: tCAS + tBUS = 14.
        d.enqueue(2, 1);
        d.tick(100);
        out.clear();
        d.drain_completed(113, &mut out);
        assert!(out.is_empty());
        d.drain_completed(114, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(d.row_hits(), 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = Dram::new(cfg(), 64);
        d.enqueue(1, 0); // row 0, bank 0
        d.tick(0);
        let mut out = Vec::new();
        d.drain_completed(1000, &mut out);
        // Row 2 maps to bank 0 (row % 2 == 0): conflict.
        d.enqueue(2, 32);
        d.tick(1000);
        out.clear();
        // tRP + tRCD + tCAS + tBUS = 34.
        d.drain_completed(1033, &mut out);
        assert!(out.is_empty());
        d.drain_completed(1034, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(d.row_conflicts(), 1);
    }

    #[test]
    fn bus_serializes_parallel_banks() {
        let mut d = Dram::new(cfg(), 64);
        // Rows 0 (bank 0) and 1 (bank 1): bank-parallel activates, but
        // the two transfers share the bus.
        d.enqueue(1, 0);
        d.enqueue(2, 16);
        d.tick(0);
        let mut out = Vec::new();
        // First done at 24; second column done at 20 but bus busy until
        // 24, so done at 28.
        d.drain_completed(24, &mut out);
        assert_eq!(out.len(), 1);
        d.drain_completed(28, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn queue_depth_enforced() {
        let mut d = Dram::new(
            DramConfig {
                queue_depth: 2,
                ..cfg()
            },
            64,
        );
        assert!(d.enqueue(1, 0));
        assert!(d.enqueue(2, 100));
        assert!(!d.enqueue(3, 200));
        assert!(!d.can_accept());
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut d = Dram::new(cfg(), 64);
        d.enqueue(1, 0); // row 0 -> bank 0, opens row 0
        d.tick(0);
        let mut out = Vec::new();
        d.drain_completed(1000, &mut out);
        // Queue a conflicting row-2 access first, then a row-0 hit; both
        // target bank 0. The row hit should be served first.
        d.enqueue(2, 32); // row 2, conflict
        d.enqueue(3, 1); // row 0, hit
        d.tick(1000);
        out.clear();
        d.drain_completed(1014, &mut out); // hit: tCAS + tBUS
        assert_eq!(out, vec![3]);
    }

    /// A row holds `row_size / line_size` lines: at 128-byte lines the
    /// 1 KiB rows hold 8, so line 7 hits row 0's open buffer and line 8
    /// opens row 1, in the other bank.
    #[test]
    fn rows_hold_row_size_over_line_size_lines() {
        let mut d = Dram::new(cfg(), 128);
        let mut out = Vec::new();
        for (id, line) in [(1, 0), (2, 7), (3, 8)] {
            d.enqueue(id, line);
            d.tick(1000 * id);
            d.drain_completed(1000 * id + 999, &mut out);
        }
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!((d.row_hits(), d.row_misses()), (1, 2));
        assert_eq!(d.row_conflicts(), 0, "row 1 is in bank 1");
    }

    #[test]
    fn injected_spike_delays_completions_inside_its_window() {
        use crate::fault::{CycleWindow, DramSpike};
        let mut d = Dram::new(cfg(), 64);
        d.set_spike(Some(DramSpike {
            window: CycleWindow::new(0, 50),
            extra: 100,
        }));
        d.enqueue(1, 0);
        d.tick(0);
        let mut out = Vec::new();
        // Normally done at 24 (tRCD + tCAS + tBUS); the spike adds 100.
        d.drain_completed(123, &mut out);
        assert!(out.is_empty());
        d.drain_completed(124, &mut out);
        assert_eq!(out, vec![1]);

        // Outside the window the device is back to nominal speed.
        d.enqueue(2, 1);
        d.tick(1000);
        out.clear();
        d.drain_completed(1014, &mut out); // row hit: tCAS + tBUS
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn reset_controller_times_like_a_new_one() {
        let mut d = Dram::new(cfg(), 64);
        d.set_spike(Some(crate::fault::DramSpike {
            window: crate::fault::CycleWindow::new(0, 1_000),
            extra: 100,
        }));
        d.enqueue(1, 0);
        d.enqueue(2, 32);
        d.tick(0);
        d.enqueue(3, 64);
        d.reset(cfg(), 64);
        assert!(!d.is_active(0));
        assert_eq!((d.row_hits(), d.row_misses(), d.row_conflicts()), (0, 0, 0));
        // Closed rows, no spike: tRCD + tCAS + tBUS = 24, as when new.
        d.enqueue(4, 0);
        d.tick(0);
        let mut out = Vec::new();
        d.drain_completed(24, &mut out);
        assert_eq!(out, vec![4]);
        assert_eq!(d.row_misses(), 1);
    }

    #[test]
    fn activity_tracking() {
        let mut d = Dram::new(cfg(), 64);
        assert!(!d.is_active(0));
        d.enqueue(1, 0);
        assert!(d.is_active(0));
        d.tick(0);
        assert!(d.is_active(10));
        let mut out = Vec::new();
        d.drain_completed(1000, &mut out);
        assert!(!d.is_active(1000));
    }
}
