//! The chip engine: cores + private L1s + shared banked L2 + DRAM,
//! advanced one cycle at a time.
//!
//! The organization follows the paper's Fig 3: NoC-connected cores with
//! private L1s and a shared, banked L2 in front of the memory
//! controllers. Every L1 miss is a request that walks an explicit state
//! machine ([`crate::request::ReqState`]); an L1 hit is only a ROB entry
//! and a lookup in flight. The Fig 4 HCD/MCD detector accounts
//! every cycle of each core's L1, so the reported C-AMAT parameters are
//! *measured* by the same machinery the paper proposes in hardware.
//!
//! # Scheduling
//!
//! The memory system advances every cycle, but a cycle steps only the
//! *awake* cores, in ascending index (the order in which request ids and
//! the fault plan's request count are handed out), so host time follows
//! simulated events rather than cycles × cores. Results are the same,
//! bit for bit, as stepping and observing every core every cycle:
//!
//! * **Sleep.** After its step, an unfinished core sleeps if it cannot
//!   issue (ROB full or trace exhausted) and its ROB head is an L1 miss
//!   whose data has not returned. Until that data arrives, every step
//!   would retire nothing, issue nothing, and note one ROB-full stall if
//!   the ROB is full. A compute or L1-hit head keeps a core awake (its
//!   entry holds the cycle it may retire from); a finished core leaves
//!   for good.
//! * **Wake.** Completing the request at a sleeper's ROB head wakes it.
//!   Completions all happen before cores step, so it steps in that same
//!   cycle, and it is charged the ROB-full stalls of the cycles it sat
//!   out.
//! * **Lazy accounting.** Core `c`'s detector and memory-active count
//!   have seen cycles `0..observed[c]`. Every change to the core's
//!   hit-phase or outstanding-miss count, every read of its pure-miss
//!   epoch and every `retire_access` first folds the cycles since then
//!   in with one `observe_cycles` call. That is exact because the counts
//!   cannot have changed in between. A core that advanced is accounted
//!   through the current cycle right after its step, the only case that
//!   adds an Eq. 7 overlap cycle, and `finish` accounts every core
//!   through the last cycle.
//! * **Timed transitions.** A `Calendar` of per-cycle slots holds
//!   them. Each cycle's pass hands out the ids due in it in ascending
//!   order, and an id a handler schedules for the cycle being processed
//!   (a NoC hop of 0 cycles) joins the pass in order. That is the
//!   `(cycle, id)` order of the min-heap the calendar replaced. Nothing
//!   is scheduled for a cycle already processed: hit latencies are at
//!   least 1, and NoC hops are scheduled before or during the pass.
//! * **L1 hits.** A hit's ROB entry holds the cycle its lookup resolves,
//!   and a FIFO of `(resolve cycle, core)` in issue order, which is
//!   resolve order, ends its hit phase before the cycle's pass. Only
//!   misses and prefetches are requests. A hit still draws an issue
//!   sequence number, so every miss and prefetch keeps the number, and
//!   with it its place in the calendar's order, that it had when hits
//!   were requests.
//!
//! # Per-event cost
//!
//! Each event's bookkeeping takes constant time. An L1 hit is a ROB
//! entry and a lookup-FIFO entry, and only misses are requests and
//! calendar events. Scheduling is a push onto a slot, and a pass sorts
//! only its own cycle's ids. The L2 queue
//! is a ring buffer that dispatch removes from near its front. A
//! request carries its ROB index, which completion marks done, and its
//! miss's start epoch, which retirement hands back to the detector, so
//! nothing is looked up by id. A miss writes only its own request
//! record, and the record of the waiter it queues behind: an MSHR entry
//! keeps the arena slots of its first and last waiter, the waiters link
//! to each other through their records, and a fill walks that chain.
//! The request arena reuses the slot freed last, and an id packs the
//! issue sequence number above the slot, so ids sort in issue order.
//! Every id the calendar, a retry list, the L2 queue or the DRAM hands
//! back names a live request in the state that place implies, so no
//! handler checks for a stale one (debug builds assert it). DRAM
//! retries wait while the controller queue is full, where each would
//! fail, and a queued DRAM request carries its bank and row. Memory
//! follows what a run touches: each [`CacheArray`] stores only the sets
//! it filled, a ROB entry is one word, a core reserves no more ROB than
//! its trace can fill, and an MSHR scan reads only its entries' lines.
//! DESIGN.md §16 says why each keeps results exact.

use std::cell::Cell;
use std::collections::VecDeque;

use c2_camat::detector::CamatDetector;
use c2_camat::{LayerApc, MemoryLayer};
use c2_trace::Trace;

use crate::cache::{CacheArray, LookupResult};
use crate::config::ChipConfig;
use crate::core::{Core, NextOp};
use crate::dram::Dram;
use crate::metrics::{LayerStats, PerCoreStats};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::request::{MemRequest, ReqId, ReqState, RequestArena, Slot, NO_SLOT, WRITEBACK};
use crate::{Error, Result};

/// Outcome of a full simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Cycles until the last core retired its last instruction and the
    /// memory system drained.
    pub total_cycles: u64,
    /// Per-core statistics, including each core's L1 C-AMAT measurement.
    pub cores: Vec<PerCoreStats>,
    /// A copy of `cores`: each private L1's counters are its core's, and
    /// nothing is aggregated across L1s (`l1_layer` is the chip-wide
    /// layer). Dropping the field changes every result's `Debug` form.
    pub l1: Vec<PerCoreStats>,
    /// L1 layer activity (any private L1 busy).
    pub l1_layer: LayerStats,
    /// Shared L2 layer counters.
    pub l2_layer: LayerStats,
    /// DRAM layer counters.
    pub dram_layer: LayerStats,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Writebacks sent to DRAM.
    pub writebacks: u64,
    /// Next-line prefetches issued (0 unless enabled in the L1 config).
    pub prefetches: u64,
}

impl SimResult {
    /// Aggregate instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate IPC over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / self.total_cycles as f64
        }
    }

    /// The per-layer APC readings (the paper's Fig 13 series).
    pub fn layer_apc(&self) -> LayerApc {
        let mut l = LayerApc::new();
        l.set(MemoryLayer::L1, self.l1_layer.apc());
        l.set(MemoryLayer::Llc, self.l2_layer.apc());
        l.set(MemoryLayer::Dram, self.dram_layer.apc());
        l
    }

    /// Chip-wide C-AMAT at L1: access-weighted combination of the
    /// per-core measurements (memory-active cycles / accesses).
    pub fn chip_camat(&self) -> f64 {
        let accesses: u64 = self.cores.iter().map(|c| c.camat.accesses).sum();
        let active: u64 = self
            .cores
            .iter()
            .map(|c| c.camat.memory_active_cycles)
            .sum();
        if accesses == 0 {
            0.0
        } else {
            active as f64 / accesses as f64
        }
    }
}

/// The trace-driven chip simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: ChipConfig,
}

impl Simulator {
    /// Build a simulator for a chip configuration.
    pub fn new(config: ChipConfig) -> Self {
        Simulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Run one trace per core to completion.
    ///
    /// The run resets the engine the calling thread's previous run left
    /// behind rather than building one, so consecutive runs of the same
    /// core count and cache geometry reuse its allocations. The result
    /// is the same either way: a reset engine is a fresh one.
    pub fn run(&self, traces: &[Trace]) -> Result<SimResult> {
        self.config.validate()?;
        if traces.len() != self.config.cores {
            return Err(Error::TraceCountMismatch {
                cores: self.config.cores,
                traces: traces.len(),
            });
        }
        let mut engine = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_else(|| Engine::empty(&self.config));
        engine.reset(&self.config, traces);
        let result = engine.run(traces);
        // A run that unwinds never gets here, so its thread keeps no
        // spare and the next run there builds afresh.
        let _ = SPARE.try_with(|spare| spare.set(Some(engine)));
        result
    }
}

thread_local! {
    /// The engine of this thread's last run, waiting to be reset by its
    /// next one. It is freed when the thread exits.
    static SPARE: Cell<Option<Engine>> = const { Cell::new(None) };
}

struct Engine {
    config: ChipConfig,
    cores: Vec<Core>,
    l1s: Vec<CacheArray>,
    l1_mshrs: Vec<MshrFile>,
    detectors: Vec<CamatDetector>,
    l2: CacheArray,
    l2_mshr: MshrFile,
    /// FIFO of requests waiting for an L2 bank. Dispatch scans it from
    /// the front and removes near there: constant time in a ring buffer.
    l2_queue: VecDeque<ReqId>,
    /// Cycle until which each L2 bank's input is busy (pipelined: +1).
    l2_bank_busy: Vec<u64>,
    dram: Dram,
    requests: RequestArena,
    /// The issue sequence number of the next access or prefetch.
    next_seq: u64,
    /// Pending DRAM writebacks (line indices) awaiting queue space.
    wb_pending: Vec<u64>,
    /// Timed state transitions, handed out in (due cycle, id) order.
    calendar: Calendar,
    /// `(resolve cycle, core)` of every L1 hit still in its lookup, in
    /// issue order, which is resolve order: every lookup takes the L1
    /// hit latency.
    hit_lookups: VecDeque<(u64, usize)>,
    /// Per-core FIFOs of requests waiting for a free L1 MSHR entry
    /// (woken when a fill releases one — never polled per cycle).
    retry_l1: Vec<VecDeque<ReqId>>,
    /// Requests waiting for a free L2 MSHR entry (woken on DRAM fills).
    retry_l2: VecDeque<ReqId>,
    /// Requests waiting for DRAM queue space (small: bounded by the L2
    /// MSHR file; polled per cycle).
    retry_dram: Vec<ReqId>,
    /// Per-core accesses currently in their L1 hit (lookup) phase.
    hits_in_flight: Vec<u32>,
    /// Per-core outstanding misses (past lookup, data not yet returned).
    outstanding: Vec<u32>,
    /// Cores with at least one access in its hit phase (L1 layer busy).
    cores_with_hits: usize,
    /// Cycles `0..observed[c]` are accounted in core `c`'s detector and
    /// memory-active count; see [`Engine::account`].
    observed: Vec<u64>,
    /// One bit per core that may retire or issue: the cores
    /// [`Engine::core_cycle`] steps.
    awake: Vec<u64>,
    /// For each sleeping core, the first cycle it was not stepped.
    asleep: Vec<Option<u64>>,
    /// Cores that have not retired their whole trace.
    unfinished: usize,
    /// Requests currently resident at the L2 (queued or in lookup).
    l2_resident: u64,
    // Statistics. Each core's accesses, misses and memory-active cycles
    // are its detector's.
    l1_layer: LayerStats,
    l2_layer: LayerStats,
    dram_layer: LayerStats,
    writebacks: u64,
    prefetches: u64,
    per_core_overlap: Vec<u64>,
}

impl Engine {
    /// An engine that has run nothing, for [`Engine::reset`] to size:
    /// the empty engine plus a reset is a fresh build.
    fn empty(config: &ChipConfig) -> Self {
        Engine {
            config: config.clone(),
            cores: Vec::new(),
            l1s: Vec::new(),
            l1_mshrs: Vec::new(),
            detectors: Vec::new(),
            l2: CacheArray::new(&config.l2),
            l2_mshr: MshrFile::new(config.l2.mshr_entries),
            l2_queue: VecDeque::new(),
            l2_bank_busy: Vec::new(),
            dram: Dram::new(config.dram, config.l1.line_size),
            requests: RequestArena::new(),
            next_seq: 0,
            wb_pending: Vec::new(),
            calendar: Calendar::default(),
            hit_lookups: VecDeque::new(),
            retry_l1: Vec::new(),
            retry_l2: VecDeque::new(),
            retry_dram: Vec::new(),
            hits_in_flight: Vec::new(),
            outstanding: Vec::new(),
            cores_with_hits: 0,
            observed: Vec::new(),
            awake: Vec::new(),
            asleep: Vec::new(),
            unfinished: 0,
            l2_resident: 0,
            l1_layer: LayerStats::default(),
            l2_layer: LayerStats::default(),
            dram_layer: LayerStats::default(),
            writebacks: 0,
            prefetches: 0,
            per_core_overlap: Vec::new(),
        }
    }

    /// Put the engine in the state in which a run of `traces` on
    /// `config` starts, keeping every allocation whose shape still fits.
    /// This is the one definition of that state: the pattern names every
    /// field, so a new one does not compile until it is set here.
    fn reset(&mut self, config: &ChipConfig, traces: &[Trace]) {
        let Engine {
            config: own_config,
            cores,
            l1s,
            l1_mshrs,
            detectors,
            l2,
            l2_mshr,
            l2_queue,
            l2_bank_busy,
            dram,
            requests,
            next_seq,
            wb_pending,
            calendar,
            hit_lookups,
            retry_l1,
            retry_l2,
            retry_dram,
            hits_in_flight,
            outstanding,
            cores_with_hits,
            observed,
            awake,
            asleep,
            unfinished,
            l2_resident,
            l1_layer,
            l2_layer,
            dram_layer,
            writebacks,
            prefetches,
            per_core_overlap,
        } = self;
        let n = traces.len();
        own_config.clone_from(config);
        refit(
            cores,
            n,
            |core, i| core.reset(config.core, &traces[i]),
            |i| Core::new(config.core, &traces[i]),
        );
        refit(
            l1s,
            n,
            |c, _| c.reset(&config.l1),
            |_| CacheArray::new(&config.l1),
        );
        let l1_entries = config.l1.mshr_entries;
        refit(
            l1_mshrs,
            n,
            |m, _| m.reset(l1_entries),
            |_| MshrFile::new(l1_entries),
        );
        refit(detectors, n, |d, _| d.reset(), |_| CamatDetector::new());
        refit(retry_l1, n, |q, _| q.clear(), |_| VecDeque::new());
        l2.reset(&config.l2);
        l2_mshr.reset(config.l2.mshr_entries);
        l2_queue.clear();
        defaults(l2_bank_busy, config.l2.banks);
        dram.reset(config.dram, config.l1.line_size);
        dram.set_spike(config.fault.dram_spike);
        requests.clear();
        *next_seq = 0;
        wb_pending.clear();
        calendar.reset(
            config
                .l1
                .hit_latency
                .max(config.l2.hit_latency)
                .max(config.noc.l1_l2_latency)
                .max(config.noc.l2_mem_latency),
        );
        hit_lookups.clear();
        retry_l2.clear();
        retry_dram.clear();
        defaults(hits_in_flight, n);
        defaults(outstanding, n);
        *cores_with_hits = 0;
        defaults(observed, n);
        defaults(per_core_overlap, n);
        defaults(awake, n.div_ceil(64));
        *unfinished = 0;
        for (i, core) in cores.iter().enumerate() {
            if !core.finished() {
                awake[i / 64] |= 1 << (i % 64);
                *unfinished += 1;
            }
        }
        defaults(asleep, n);
        *l2_resident = 0;
        for stats in [l1_layer, l2_layer, dram_layer] {
            *stats = LayerStats::default();
        }
        *writebacks = 0;
        *prefetches = 0;
    }

    /// Run the traces [`Engine::reset`] set the engine up for; the
    /// cores read their accesses from them in place.
    fn run(&mut self, traces: &[Trace]) -> Result<SimResult> {
        debug_assert_eq!(traces.len(), self.cores.len());
        let mut now: u64 = 0;
        let mut dram_done: Vec<ReqId> = Vec::new();
        loop {
            // 1. DRAM advances and returns fills.
            self.dram.tick(now);
            dram_done.clear();
            self.dram.drain_completed(now, &mut dram_done);
            dram_done.sort_unstable(); // determinism
            for id in dram_done.drain(..) {
                if id != WRITEBACK {
                    self.handle_dram_fill(id, now);
                }
            }

            // 2. Timed request-state transitions (event-driven).
            self.process_events(now)?;

            // 3. Requests blocked on a full structure retry.
            self.process_retries();

            // 4. L2 bank dispatch.
            self.dispatch_l2(now);

            // 5. Drain pending writebacks into the DRAM queue.
            self.flush_writebacks();

            // 6. Awake cores retire and issue.
            self.core_cycle(now, traces)?;

            // 7. Layer activity observation. Nothing changes the DRAM
            // between here and the termination test.
            let dram_active = self.dram.is_active(now);
            self.observe(dram_active);

            // 8. Termination. A core retires an L1 hit no earlier than
            // the cycle its lookup resolves, so finished cores leave no
            // lookup behind, and a writeback in flight keeps the DRAM
            // active.
            let cores_done = self.unfinished == 0;
            let mem_drained =
                self.requests.is_empty() && self.wb_pending.is_empty() && !dram_active;
            if cores_done && mem_drained {
                debug_assert!(self.hit_lookups.is_empty());
                break;
            }
            now += 1;
            if now > self.config.max_cycles {
                return Err(Error::CycleBudgetExceeded {
                    budget: self.config.max_cycles,
                });
            }
        }
        self.finish(now)
    }

    /// A DRAM read fill arrived: install in L2 and release L2 waiters.
    fn handle_dram_fill(&mut self, id: ReqId, now: u64) {
        let r = self.requests.at(self.requests.slot(id));
        debug_assert_eq!(r.state, ReqState::DramInFlight);
        let line = r.line;
        if let Some((victim, dirty)) = self.l2.install(line, false) {
            if dirty {
                self.wb_pending.push(victim);
                self.writebacks += 1;
            }
        }
        if let Some(waiters) = self.l2_mshr.complete(line) {
            let arrive = now + self.config.noc.l1_l2_latency as u64;
            let mut w = waiters.first;
            while w != NO_SLOT {
                let r = self.requests.at_mut(w);
                r.state = ReqState::FillToL1;
                let next = r.next_l2;
                self.calendar.push(arrive, self.requests.id_at(w));
                w = next;
            }
        }
        // An L2 MSHR entry just freed: wake blocked L2 misses.
        self.drain_l2_retries(now);
    }

    /// Retire the L1 hits whose lookups resolve at `now`, then handle
    /// every transition due at `now`, in ascending request id, including
    /// those the handlers schedule for `now` itself. The calendar hands
    /// an id out only in its due cycle, and only while its request is in
    /// the timed state it was scheduled in.
    ///
    /// Hits go first, out of id order, without changing a result: a
    /// hit's retirement touches only its own core's counts and
    /// detector, and every handler accounts a core through `now` before
    /// it changes that core's counts.
    fn process_events(&mut self, now: u64) -> Result<()> {
        while let Some(&(done_at, core)) = self.hit_lookups.front() {
            if done_at > now {
                break;
            }
            debug_assert_eq!(done_at, now, "a hit lookup outlived its cycle");
            self.hit_lookups.pop_front();
            self.end_lookup(core, now);
            self.detectors[core].retire_access(self.config.l1.hit_latency, None);
        }
        self.calendar.begin(now);
        while let Some(id) = self.calendar.pop() {
            let slot = self.requests.slot(id);
            let r = self.requests.at(slot);
            let (state, core, line) = (r.state, r.core as usize, r.line);
            match state {
                ReqState::L1Lookup => {
                    self.end_lookup(core, now);
                    self.outstanding[core] += 1;
                    let epoch = self.detectors[core].pure_epoch();
                    self.requests.at_mut(slot).miss_epoch = epoch;
                    self.l1_miss_to_mshr(id, now);
                    if self.config.l1.next_line_prefetch {
                        self.maybe_prefetch(core, line + 1, now)?;
                    }
                }
                ReqState::ToL2 => {
                    self.requests.at_mut(slot).state = ReqState::L2Queue;
                    self.l2_queue.push_back(id);
                    self.l2_resident += 1;
                }
                ReqState::L2Lookup { hit } => {
                    self.l2_resident -= 1;
                    if hit {
                        self.requests.at_mut(slot).state = ReqState::FillToL1;
                        self.calendar
                            .push(now + self.config.noc.l1_l2_latency as u64, id);
                    } else {
                        self.l2_miss_to_mshr(id, now);
                    }
                }
                ReqState::ToDram => {
                    self.try_dram_enqueue(id);
                }
                ReqState::FillToL1 => self.handle_l1_fill(id, now),
                // Requests in the other states wait in a retry list, an
                // MSHR chain, the L2 queue or the DRAM.
                _ => unreachable!("request {id:#x} left the calendar in state {state:?}"),
            }
        }
        Ok(())
    }

    /// An access of `core` left its L1 lookup (its hit phase) at `now`.
    fn end_lookup(&mut self, core: usize, now: u64) {
        self.account(core, now);
        self.hits_in_flight[core] -= 1;
        if self.hits_in_flight[core] == 0 {
            self.cores_with_hits -= 1;
        }
    }

    /// Retry requests blocked on the DRAM queue (the MSHR retry lists
    /// are wake-driven instead — see `drain_l1_retries` /
    /// `drain_l2_retries` — because they can grow to the full in-flight
    /// window and must not be polled every cycle). While the controller
    /// queue is full every retry would fail and change nothing, so none
    /// is made.
    fn process_retries(&mut self) {
        if self.retry_dram.is_empty() || !self.dram.can_accept() {
            return;
        }
        let mut dq = std::mem::take(&mut self.retry_dram);
        dq.retain(|&id| !self.try_dram_enqueue(id));
        debug_assert!(self.retry_dram.is_empty());
        self.retry_dram = dq;
    }

    /// Wake L1-MSHR-blocked requests of `core` now that capacity freed.
    fn drain_l1_retries(&mut self, core: usize, now: u64) {
        while !self.l1_mshr_blocked(core, now) {
            let Some(id) = self.retry_l1[core].pop_front() else {
                break;
            };
            let slot = self.requests.slot(id);
            let r = self.requests.at(slot);
            debug_assert_eq!(r.state, ReqState::L1MshrRetry);
            // The wanted line may have been filled while waiting (by a
            // merged demand or a prefetch): complete straight away.
            if matches!(self.l1s[core].probe(r.line), LookupResult::Hit) {
                self.complete_request(slot, now);
                continue;
            }
            self.l1_miss_to_mshr(id, now);
        }
    }

    /// Wake L2-MSHR-blocked requests now that capacity freed.
    fn drain_l2_retries(&mut self, now: u64) {
        while !self.l2_mshr.is_full() {
            let Some(id) = self.retry_l2.pop_front() else {
                break;
            };
            debug_assert_eq!(
                self.requests.at(self.requests.slot(id)).state,
                ReqState::L2MshrRetry
            );
            self.l2_miss_to_mshr(id, now);
        }
    }

    /// Issue a next-line prefetch: a request that enters the MSHR/L2
    /// path directly (no core lookup phase) and notifies nobody on
    /// completion. Dropped silently when useless (line resident or
    /// already outstanding) or when no MSHR entry is free — prefetches
    /// never steal a demand slot via retry. Otherwise the line is
    /// absent from a file with room, so the prefetch allocates.
    fn maybe_prefetch(&mut self, core: usize, line: u64, now: u64) -> Result<()> {
        if self.l1_mshrs[core].contains(line)
            || self.l1_mshr_blocked(core, now)
            || matches!(self.l1s[core].probe(line), LookupResult::Hit)
        {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.requests.insert(
            seq,
            MemRequest {
                core: core as u32,
                line,
                is_write: false,
                lookup_done_at: now,
                rob_index: 0,
                miss_epoch: 0,
                state: ReqState::ToL2,
                is_prefetch: true,
                next_l1: NO_SLOT,
                next_l2: NO_SLOT,
            },
        )?;
        self.prefetches += 1;
        let outcome = self.l1_mshrs[core].register(line, self.requests.slot(id), false);
        debug_assert_eq!(outcome, MshrOutcome::Allocated);
        self.calendar
            .push(now + self.config.noc.l1_l2_latency as u64, id);
        Ok(())
    }

    /// Route an L1 miss into the MSHR file; on success schedule the NoC
    /// hop, on merge wait for the primary, on full join the retry list.
    fn l1_miss_to_mshr(&mut self, id: ReqId, now: u64) {
        let slot = self.requests.slot(id);
        let r = self.requests.at(slot);
        let (core, line, store, prev_state) = (r.core as usize, r.line, r.is_write, r.state);
        // Starvation fault: a new line may not allocate while the file is
        // non-empty, but merges into in-flight lines are still free.
        let outcome = if self.l1_mshr_blocked(core, now) && !self.l1_mshrs[core].contains(line) {
            MshrOutcome::Full
        } else {
            self.l1_mshrs[core].register(line, slot, store)
        };
        match outcome {
            MshrOutcome::Allocated => {
                self.requests.at_mut(slot).state = ReqState::ToL2;
                self.calendar
                    .push(now + self.config.noc.l1_l2_latency as u64, id);
            }
            MshrOutcome::Merged { after } => {
                self.requests.at_mut(after).next_l1 = slot;
                self.requests.at_mut(slot).state = ReqState::WaitL1Fill;
            }
            MshrOutcome::Full => {
                // The retry drain stops while the file is blocked, so
                // only a lookup finds it full.
                debug_assert_eq!(prev_state, ReqState::L1Lookup);
                self.requests.at_mut(slot).state = ReqState::L1MshrRetry;
                self.retry_l1[core].push_back(id);
            }
        }
    }

    fn l2_miss_to_mshr(&mut self, id: ReqId, now: u64) {
        let slot = self.requests.slot(id);
        let r = self.requests.at(slot);
        let (line, store, prev_state) = (r.line, r.is_write, r.state);
        match self.l2_mshr.register(line, slot, store) {
            MshrOutcome::Allocated => {
                self.requests.at_mut(slot).state = ReqState::ToDram;
                self.calendar
                    .push(now + self.config.noc.l2_mem_latency as u64, id);
            }
            MshrOutcome::Merged { after } => {
                self.requests.at_mut(after).next_l2 = slot;
                self.requests.at_mut(slot).state = ReqState::WaitL2Fill;
            }
            MshrOutcome::Full => {
                // The retry drain stops while the file is full, so only a
                // lookup finds it full.
                debug_assert_eq!(prev_state, ReqState::L2Lookup { hit: false });
                self.requests.at_mut(slot).state = ReqState::L2MshrRetry;
                self.retry_l2.push_back(id);
            }
        }
    }

    /// Offer request `id`'s line to the DRAM queue, or put the request
    /// on the DRAM retry list if the queue is full. Whether the queue
    /// took it.
    fn try_dram_enqueue(&mut self, id: ReqId) -> bool {
        let slot = self.requests.slot(id);
        let r = self.requests.at(slot);
        let (line, prev_state) = (r.line, r.state);
        debug_assert!(matches!(
            prev_state,
            ReqState::ToDram | ReqState::DramQueueRetry
        ));
        if self.dram.enqueue(id, line) {
            self.requests.at_mut(slot).state = ReqState::DramInFlight;
            self.dram_layer.accesses += 1;
            return true;
        }
        self.requests.at_mut(slot).state = ReqState::DramQueueRetry;
        if prev_state != ReqState::DramQueueRetry {
            self.retry_dram.push(id);
        }
        false
    }

    /// A fill reached a private L1: install, release MSHR waiters,
    /// complete every waiting access.
    fn handle_l1_fill(&mut self, id: ReqId, now: u64) {
        let slot = self.requests.slot(id);
        let r = self.requests.at(slot);
        let (core, line) = (r.core as usize, r.line);
        let waiters = self.l1_mshrs[core]
            .complete(line)
            .expect("a filling primary holds its line's MSHR entry");
        debug_assert_eq!(
            waiters.first, slot,
            "the filling primary must head its MSHR entry's waiters"
        );
        // The line becomes dirty if any waiting access was a store
        // (write-allocate policy).
        if let Some((victim, victim_dirty)) = self.l1s[core].install(line, waiters.store) {
            if victim_dirty {
                // Write back into L2 if present, else straight to DRAM.
                if !self.l2.mark_dirty(victim) {
                    self.wb_pending.push(victim);
                    self.writebacks += 1;
                }
            }
        }
        let mut w = waiters.first;
        while w != NO_SLOT {
            let next = self.requests.at(w).next_l1;
            self.complete_request(w, now);
            w = next;
        }
        // An MSHR entry just freed: wake blocked misses of this core.
        self.drain_l1_retries(core, now);
    }

    /// Finish the miss in `slot`: notify the detector and the owning
    /// core, then drop the request. (A hit is no request: its lookup
    /// retires it.)
    fn complete_request(&mut self, slot: Slot, now: u64) {
        let r = self.requests.remove_at(slot);
        if r.is_prefetch {
            return; // hardware-initiated: nobody to notify
        }
        let core = r.core as usize;
        self.account(core, now);
        let penalty = now.saturating_sub(r.lookup_done_at).max(1) as u32;
        self.detectors[core]
            .retire_access(self.config.l1.hit_latency, Some((r.miss_epoch, penalty)));
        let was_head = self.cores[core].complete_memory(r.rob_index);
        self.outstanding[core] -= 1;
        // A sleeper's ROB is frozen, so its head is the entry it slept on.
        if was_head {
            if let Some(since) = self.asleep[core] {
                self.wake(core, since, now);
            }
        }
    }

    /// Return a sleeping core to the awake set: its ROB head's data just
    /// arrived, so it retires this cycle. Each cycle it sat out would
    /// have retired nothing, issued nothing, and noted one ROB-full stall
    /// if its ROB was full, so charge those stalls now.
    fn wake(&mut self, core: usize, since: u64, now: u64) {
        self.asleep[core] = None;
        if !self.cores[core].rob_has_space() {
            self.cores[core].note_rob_stalls(now - since);
        }
        self.awake[core / 64] |= 1 << (core % 64);
    }

    /// Bring core `core`'s detector up to cycle `upto` (exclusive). Every change to the core's hit-phase or
    /// outstanding-miss count, every read of its pure-miss epoch and
    /// every `retire_access` calls this first, so the cycles not yet
    /// accounted all ended with the current counts and are folded in by one
    /// [`CamatDetector::observe_cycles`] call.
    fn account(&mut self, core: usize, upto: u64) {
        let cycles = upto - self.observed[core];
        if cycles == 0 {
            return;
        }
        self.observed[core] = upto;
        let (hits, misses) = (self.hits_in_flight[core], self.outstanding[core]);
        self.detectors[core].observe_cycles(hits, misses, cycles);
    }

    fn dispatch_l2(&mut self, now: u64) {
        let mut dispatched = 0usize;
        let mut i = 0;
        while i < self.l2_queue.len() && dispatched < self.config.l2.ports {
            let id = self.l2_queue[i];
            let slot = self.requests.slot(id);
            let r = self.requests.at(slot);
            debug_assert_eq!(r.state, ReqState::L2Queue);
            let line = r.line;
            let bank = self.l2.bank_of(line);
            if self.l2_bank_busy[bank] <= now {
                // Pipelined bank: accepts one new lookup per cycle.
                self.l2_bank_busy[bank] = now + 1;
                let hit = matches!(self.l2.access(line, false), LookupResult::Hit);
                self.l2_layer.accesses += 1;
                if hit {
                    self.l2_layer.hits += 1;
                } else {
                    self.l2_layer.misses += 1;
                }
                self.requests.at_mut(slot).state = ReqState::L2Lookup { hit };
                self.calendar
                    .push(now + self.config.l2.hit_latency as u64, id);
                self.l2_queue.remove(i);
                dispatched += 1;
            } else {
                i += 1;
            }
        }
    }

    fn flush_writebacks(&mut self) {
        while let Some(&line) = self.wb_pending.last() {
            if !self.dram.enqueue(WRITEBACK, line) {
                break;
            }
            self.wb_pending.pop();
            self.dram_layer.accesses += 1;
        }
    }

    /// Whether the private L1 MSHR file of `core` must be treated as
    /// unavailable for new allocations: genuinely full, or starved down
    /// to one effective entry by the fault plan. During starvation an
    /// *empty* file still accepts one miss, so forward progress (and
    /// hence termination) is preserved.
    fn l1_mshr_blocked(&self, core: usize, now: u64) -> bool {
        if self.l1_mshrs[core].is_full() {
            return true;
        }
        match &self.config.fault.mshr_starvation {
            Some(w) => w.contains(now) && self.l1_mshrs[core].occupancy() >= 1,
            None => false,
        }
    }

    /// Step every awake core, in ascending core index: the order in
    /// which request ids and the fault plan's request count are handed
    /// out.
    fn core_cycle(&mut self, now: u64, traces: &[Trace]) -> Result<()> {
        for word in 0..self.awake.len() {
            let mut bits = self.awake[word];
            while bits != 0 {
                let core_idx = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.step_core(core_idx, now, &traces[core_idx])?;
            }
        }
        Ok(())
    }

    /// One cycle of one core: retire, issue, then account the cycle if
    /// the pipeline advanced and put the core to sleep if it cannot act
    /// again before its ROB head's data returns.
    fn step_core(&mut self, core_idx: usize, now: u64, trace: &Trace) -> Result<()> {
        self.cores[core_idx].retire(now);
        let width = self.cores[core_idx].issue_width();
        let mut ports_used = 0usize;
        for _ in 0..width {
            if self.cores[core_idx].finished() {
                break;
            }
            if !self.cores[core_idx].rob_has_space() {
                self.cores[core_idx].note_rob_stall();
                break;
            }
            match self.cores[core_idx].peek(trace) {
                NextOp::Exhausted => break,
                NextOp::Compute => self.cores[core_idx].issue_compute(now),
                NextOp::Memory(access) => {
                    if ports_used >= self.config.l1.ports {
                        self.cores[core_idx].note_mem_stall();
                        break;
                    }
                    ports_used += 1;
                    // The fault plan numbers demand accesses from 1.
                    let request = self.l1_layer.accesses + 1;
                    if self.config.fault.fail_at_request == Some(request) {
                        return Err(Error::InjectedFault {
                            request,
                            cycle: now,
                        });
                    }
                    let line = self.l1s[core_idx].line_of(access.addr);
                    let hit = matches!(
                        self.l1s[core_idx].access(line, access.kind.is_write()),
                        LookupResult::Hit
                    );
                    // A hit draws a sequence number it never uses, so
                    // every miss and prefetch keeps the number, and its
                    // place in the calendar's order, it had when hits
                    // were requests.
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let done_at = now + self.config.l1.hit_latency as u64;
                    if hit {
                        self.cores[core_idx].issue_hit(done_at);
                        self.hit_lookups.push_back((done_at, core_idx));
                    } else {
                        let rob_index = self.cores[core_idx].issue_memory();
                        let id = self.requests.insert(
                            seq,
                            MemRequest {
                                // `ChipConfig::validate` bounds the core count.
                                core: core_idx as u32,
                                line,
                                is_write: access.kind.is_write(),
                                lookup_done_at: done_at,
                                rob_index,
                                miss_epoch: 0,
                                state: ReqState::L1Lookup,
                                is_prefetch: false,
                                next_l1: NO_SLOT,
                                next_l2: NO_SLOT,
                            },
                        )?;
                        self.calendar.push(done_at, id);
                    }
                    self.account(core_idx, now);
                    if self.hits_in_flight[core_idx] == 0 {
                        self.cores_with_hits += 1;
                    }
                    self.hits_in_flight[core_idx] += 1;
                    self.l1_layer.accesses += 1;
                    if hit {
                        self.l1_layer.hits += 1;
                    } else {
                        self.l1_layer.misses += 1;
                    }
                }
            }
        }
        if self.cores[core_idx].take_progress() {
            // Observed eagerly: Eq. 7 overlap counts the memory-active
            // cycles in which the pipeline still advanced.
            self.account(core_idx, now + 1);
            if self.hits_in_flight[core_idx] > 0 || self.outstanding[core_idx] > 0 {
                self.per_core_overlap[core_idx] += 1;
            }
        }
        let core = &self.cores[core_idx];
        if core.finished() {
            self.unfinished -= 1;
        } else if core.can_issue() {
            return Ok(());
        } else if core.head_blocked() {
            self.asleep[core_idx] = Some(now + 1);
        } else {
            return Ok(());
        }
        self.awake[core_idx / 64] &= !(1 << (core_idx % 64));
        Ok(())
    }

    /// Chip-level layer activity for this cycle, given whether the DRAM
    /// is active in it. Per-core L1 activity is accounted by
    /// [`Engine::account`] when it changes.
    fn observe(&mut self, dram_active: bool) {
        if self.cores_with_hits > 0 {
            self.l1_layer.active_cycles += 1;
        }
        if self.l2_resident > 0 {
            self.l2_layer.active_cycles += 1;
        }
        if dram_active {
            self.dram_layer.active_cycles += 1;
        }
    }

    fn finish(&mut self, now: u64) -> Result<SimResult> {
        for core in 0..self.cores.len() {
            self.account(core, now + 1);
        }
        let mut cores = Vec::with_capacity(self.cores.len());
        for (i, det) in self.detectors.iter().enumerate() {
            // The run retired every access it issued.
            let camat = det.report().measurement;
            cores.push(PerCoreStats {
                instructions: self.cores[i].retired(),
                finished_at: self.cores[i].finished_at(),
                accesses: camat.accesses,
                l1_misses: camat.misses,
                camat,
                rob_stalls: self.cores[i].rob_stalls(),
                mem_stalls: self.cores[i].mem_stalls(),
                mem_active_cycles: camat.memory_active_cycles,
                overlap_cycles: self.per_core_overlap[i],
            });
        }
        self.dram_layer.hits = self.dram.row_hits();
        self.dram_layer.misses = self.dram.row_misses() + self.dram.row_conflicts();
        Ok(SimResult {
            total_cycles: now,
            l1: cores.clone(),
            cores,
            l1_layer: self.l1_layer,
            l2_layer: self.l2_layer,
            dram_layer: self.dram_layer,
            dram_row_hit_rate: self.dram.row_hit_rate(),
            writebacks: self.writebacks,
            prefetches: self.prefetches,
        })
    }
}

/// Resize `items` to `n`: reset the `i`th of those kept with
/// `reset(item, i)` and build the rest with `build(i)`.
fn refit<T>(
    items: &mut Vec<T>,
    n: usize,
    mut reset: impl FnMut(&mut T, usize),
    build: impl FnMut(usize) -> T,
) {
    items.truncate(n);
    for (i, item) in items.iter_mut().enumerate() {
        reset(item, i);
    }
    let kept = items.len();
    items.extend((kept..n).map(build));
}

/// Make `values` `n` default values (zeros, `None`s) long.
fn defaults<T: Default + Clone>(values: &mut Vec<T>, n: usize) {
    values.clear();
    values.resize(n, T::default());
}

/// The longest ring [`Calendar::reset`] builds, in cycles.
const MAX_CALENDAR_SPAN: u64 = 1024;

/// The engine's timed state transitions: `(due cycle, request id)`
/// pairs, handed out cycle by cycle in ascending id. That is the order
/// in which a min-heap of the pairs pops them.
///
/// A ring of per-cycle slots holds the pairs: cycle `c`'s go to slot
/// `c % slots.len()`. A pair due in a later turn of the ring stays in
/// its slot until its cycle comes round, so every latency fits; a ring
/// longer than the engine's longest latency never holds one. The
/// engine opens every cycle in turn with [`Calendar::begin`] and drains
/// it with [`Calendar::pop`], and it schedules nothing for a cycle
/// already drained.
#[derive(Debug, Default)]
struct Calendar {
    slots: Vec<Vec<(u64, ReqId)>>,
    /// The open cycle's ids not yet handed out, largest first.
    due: Vec<ReqId>,
    /// The open cycle, or the next one to open if `!open`. Every cycle
    /// before it is drained.
    now: u64,
    open: bool,
    /// Pushes since the last reset.
    #[cfg(test)]
    pushed: u64,
}

impl Calendar {
    /// Empty the calendar for a run whose latencies are at most
    /// `longest` cycles: one slot per cycle of that span plus one,
    /// rounded up to a power of two and capped at
    /// [`MAX_CALENDAR_SPAN`].
    fn reset(&mut self, longest: u32) {
        let span = (u64::from(longest) + 1)
            .next_power_of_two()
            .min(MAX_CALENDAR_SPAN) as usize;
        self.slots.truncate(span);
        for slot in &mut self.slots {
            slot.clear();
        }
        self.slots.resize_with(span, Vec::new);
        self.due.clear();
        self.now = 0;
        self.open = false;
        #[cfg(test)]
        {
            self.pushed = 0;
        }
    }

    /// Schedule `id` for cycle `at`. An id for the open cycle joins the
    /// ids still to be handed out in it, in order.
    fn push(&mut self, at: u64, id: ReqId) {
        debug_assert!(at >= self.now, "cycle {at} is already drained");
        #[cfg(test)]
        {
            self.pushed += 1;
        }
        if self.open && at == self.now {
            let i = self.due.partition_point(|&d| d > id);
            self.due.insert(i, id);
        } else {
            let mask = self.slots.len() as u64 - 1;
            self.slots[(at & mask) as usize].push((at, id));
        }
    }

    /// Open cycle `now`, the one after the last drained: sort the ids
    /// due in it.
    fn begin(&mut self, now: u64) {
        debug_assert!(
            !self.open && now == self.now,
            "cycle {now} opened out of turn"
        );
        let mask = self.slots.len() as u64 - 1;
        let due = &mut self.due;
        self.slots[(now & mask) as usize].retain(|&(at, id)| {
            debug_assert!(at >= now, "cycle {at}'s id {id} was never handed out");
            if at == now {
                due.push(id);
            }
            at != now
        });
        due.sort_unstable_by(|a, b| b.cmp(a));
        self.now = now;
        self.open = true;
    }

    /// The smallest id due in the open cycle; `None` drains the cycle.
    fn pop(&mut self) -> Option<ReqId> {
        let id = self.due.pop();
        if id.is_none() && self.open {
            self.open = false;
            self.now += 1;
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_trace::synthetic::{
        PointerChaseGenerator, RandomGenerator, StridedGenerator, TraceGenerator,
    };
    use c2_trace::TraceBuilder;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn single(config: ChipConfig, trace: Trace) -> SimResult {
        Simulator::new(config).run(&[trace]).unwrap()
    }

    /// What the engine asks of its event schedule.
    trait Schedule {
        fn push(&mut self, at: u64, id: ReqId);
        fn begin(&mut self, now: u64);
        fn pop(&mut self) -> Option<ReqId>;
    }

    impl Schedule for Calendar {
        fn push(&mut self, at: u64, id: ReqId) {
            Calendar::push(self, at, id)
        }
        fn begin(&mut self, now: u64) {
            Calendar::begin(self, now)
        }
        fn pop(&mut self) -> Option<ReqId> {
            Calendar::pop(self)
        }
    }

    /// The event heap the calendar replaced, as the reference.
    #[derive(Default)]
    struct Heap {
        heap: BinaryHeap<Reverse<(u64, ReqId)>>,
        now: u64,
    }

    impl Schedule for Heap {
        fn push(&mut self, at: u64, id: ReqId) {
            self.heap.push(Reverse((at, id)));
        }
        fn begin(&mut self, now: u64) {
            self.now = now;
        }
        fn pop(&mut self) -> Option<ReqId> {
            let &Reverse((at, id)) = self.heap.peek()?;
            (at <= self.now).then(|| {
                self.heap.pop();
                id
            })
        }
    }

    /// `(delay, id)` pushes of one cycle: those made before its pass,
    /// and one made after each id handed out in it.
    type Pushes = (Vec<(u64, ReqId)>, Vec<(u64, ReqId)>);

    /// Run `schedule` through `cycles` and then 64 idle cycles the way
    /// the engine does, listing every `(cycle, id)` handed out. Pushes
    /// left over when a pass ends are made for the next cycle at the
    /// earliest.
    fn drive(schedule: &mut impl Schedule, cycles: &[Pushes]) -> Vec<(u64, ReqId)> {
        let idle = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        for (now, (before, during)) in cycles
            .iter()
            .chain(std::iter::repeat_n(&idle, 64))
            .enumerate()
        {
            let now = now as u64;
            for &(delay, id) in before {
                schedule.push(now + delay, id);
            }
            let mut during = during.iter();
            schedule.begin(now);
            while let Some(id) = schedule.pop() {
                out.push((now, id));
                if let Some(&(delay, id)) = during.next() {
                    schedule.push(now + delay, id);
                }
            }
            for &(delay, id) in during {
                schedule.push(now + delay.max(1), id);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The calendar hands out what the heap pops, in the same order,
        /// and nothing is left in either. Some pushes are for the open
        /// cycle, while its pass runs, and some are due beyond the
        /// ring's span (2 to 16 slots here).
        #[test]
        fn calendar_hands_out_what_the_event_heap_pops(
            longest in 0u32..12,
            cycles in prop::collection::vec(
                (
                    prop::collection::vec((0u64..40, 0u64..48), 0..5),
                    prop::collection::vec((0u64..40, 0u64..48), 0..5),
                ),
                1..80,
            ),
        ) {
            let mut calendar = Calendar::default();
            calendar.reset(longest);
            let mut heap = Heap::default();
            let got = drive(&mut calendar, &cycles);
            prop_assert_eq!(got, drive(&mut heap, &cycles));
            prop_assert!(heap.heap.is_empty());
            prop_assert!(calendar.slots.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn compute_only_trace_runs_at_issue_width() {
        let mut b = TraceBuilder::new();
        b.compute(4000);
        let r = single(ChipConfig::default_single_core(), b.finish());
        // 4-wide, no memory: IPC close to 4.
        assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
        assert_eq!(r.cores[0].accesses, 0);
    }

    #[test]
    fn repeated_line_hits_in_l1() {
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.compute(3).read(0x40);
        }
        let r = single(ChipConfig::default_single_core(), b.finish());
        assert_eq!(r.cores[0].accesses, 1000);
        // The cold miss plus the accesses that issued under it (misses
        // under miss merge in the MSHR and count as misses too); once the
        // fill lands everything hits.
        assert!(r.cores[0].l1_misses >= 1);
        assert!(
            r.cores[0].l1_miss_rate() < 0.1,
            "miss rate {}",
            r.cores[0].l1_miss_rate()
        );
        assert!(r.cores[0].camat.hit_time > 0.0);
    }

    /// Only misses become requests and calendar events: on one line read
    /// over and over, every access after the cold miss hits, and the run
    /// inserts one request per miss and schedules the primary miss's
    /// five hops (lookup, to L2, L2 lookup, to DRAM, fill) plus one
    /// lookup per merged miss.
    #[test]
    fn l1_hits_enter_neither_the_arena_nor_the_calendar() {
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.compute(3).read(0x40);
        }
        let trace = b.finish();
        let mut blocking = ChipConfig::default_single_core();
        blocking.core = crate::config::CoreConfig::scalar_blocking();
        for (config, merged) in [(blocking, false), (ChipConfig::default_single_core(), true)] {
            let traces = std::slice::from_ref(&trace);
            let mut engine = Engine::empty(&config);
            engine.reset(&config, traces);
            let r = engine.run(traces).unwrap();
            let misses = r.cores[0].l1_misses;
            assert_eq!(r.l1_layer.hits + misses, 1000);
            assert!(r.l1_layer.hits > 900, "hits {}", r.l1_layer.hits);
            assert_eq!(misses > 1, merged, "misses {misses}");
            assert_eq!(engine.requests.inserted, misses);
            assert_eq!(engine.calendar.pushed, misses + 4);
        }
    }

    #[test]
    fn streaming_misses_once_per_line_when_blocking() {
        // 64-byte lines, 8-byte stride: with a blocking scalar core
        // (no accesses in flight under a miss) exactly one miss per line.
        let trace = StridedGenerator::new(0, 8, 4096).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.core = crate::config::CoreConfig::scalar_blocking();
        let r = single(cfg, trace);
        let mr = r.cores[0].l1_miss_rate();
        assert!((mr - 1.0 / 8.0).abs() < 0.02, "miss rate {mr}");
    }

    #[test]
    fn working_set_larger_than_l1_thrashes() {
        // 256 KiB working set over a 32 KiB L1: high L1 miss rate, but it
        // fits in the 2 MiB L2 so DRAM traffic stays bounded.
        let trace = RandomGenerator::new(0, 256 * 1024, 4000, 1).generate();
        let r = single(ChipConfig::default_single_core(), trace);
        assert!(
            r.cores[0].l1_miss_rate() > 0.5,
            "{}",
            r.cores[0].l1_miss_rate()
        );
        assert!(r.l2_layer.accesses > 0);
    }

    #[test]
    fn apc_decreases_down_the_hierarchy() {
        // The Fig 13 shape: APC_L1 > APC_L2 > APC_DRAM for a workload
        // with misses at every level.
        let trace = RandomGenerator::new(0, 8 * 1024 * 1024, 6000, 2).generate();
        let r = single(ChipConfig::default_single_core(), trace);
        let apc = r.layer_apc();
        let l1 = apc.get(MemoryLayer::L1).unwrap().value();
        let l2 = apc.get(MemoryLayer::Llc).unwrap().value();
        let dram = apc.get(MemoryLayer::Dram).unwrap().value();
        assert!(l1 > l2, "APC L1 {l1} vs L2 {l2}");
        assert!(l2 > dram, "APC L2 {l2} vs DRAM {dram}");
    }

    #[test]
    fn ooo_core_overlaps_misses_pointer_chase_does_not() {
        // Independent random misses overlap in a 128-entry ROB; a pointer
        // chase (serial dependence through the trace's own structure is
        // not modelled, but a 1-entry ROB is the architectural equivalent)
        // does not. Compare measured memory concurrency C.
        let random = RandomGenerator::new(0, 16 * 1024 * 1024, 3000, 3)
            .compute_per_access(1)
            .generate();
        let ooo = single(ChipConfig::default_single_core(), random.clone());
        let mut blocking_cfg = ChipConfig::default_single_core();
        blocking_cfg.core = crate::config::CoreConfig::scalar_blocking();
        let blocking = single(blocking_cfg, random);
        let c_ooo = ooo.cores[0].camat.concurrency();
        let c_blk = blocking.cores[0].camat.concurrency();
        assert!(
            c_ooo > c_blk + 0.3,
            "OoO C {c_ooo} should exceed blocking C {c_blk}"
        );
        // And the wall clock should reflect it.
        assert!(ooo.total_cycles < blocking.total_cycles);
    }

    #[test]
    fn streaming_has_better_dram_row_locality_than_chasing() {
        // Sequential lines walk DRAM rows in order (row-buffer hits);
        // a pointer chase over a >L2 footprint scatters across rows.
        let chase = PointerChaseGenerator::new(0, 1 << 20, 3000, 7).generate();
        let stream = StridedGenerator::new(0, 64, 3000)
            .compute_per_access(1)
            .generate();
        let chase_r = single(ChipConfig::default_single_core(), chase);
        let stream_r = single(ChipConfig::default_single_core(), stream);
        assert!(
            stream_r.dram_row_hit_rate > chase_r.dram_row_hit_rate + 0.2,
            "stream {} vs chase {}",
            stream_r.dram_row_hit_rate,
            chase_r.dram_row_hit_rate
        );
    }

    #[test]
    fn camat_identity_holds_in_simulation() {
        let trace = RandomGenerator::new(0, 1024 * 1024, 2000, 11).generate();
        let r = single(ChipConfig::default_single_core(), trace);
        let m = &r.cores[0].camat;
        assert!(
            (m.camat() - m.camat_direct()).abs() < 1e-9,
            "formula {} direct {}",
            m.camat(),
            m.camat_direct()
        );
        assert!(m.camat() <= m.amat() + 1e-9, "C-AMAT must not exceed AMAT");
    }

    #[test]
    fn multicore_shares_l2() {
        let traces: Vec<Trace> = (0..4)
            .map(|i| RandomGenerator::new(i * (4 << 20), 1024 * 1024, 2000, i).generate())
            .collect();
        let r = Simulator::new(ChipConfig::default_multi_core(4))
            .run(&traces)
            .unwrap();
        assert_eq!(r.cores.len(), 4);
        for c in &r.cores {
            assert_eq!(c.instructions, traces[0].instruction_count());
        }
        assert!(r.l2_layer.accesses > 0);
    }

    #[test]
    fn contention_slows_shared_hierarchy() {
        // The same working set run on 1 core vs duplicated on 8 cores:
        // per-core completion time must grow under contention.
        let make = |seed: u64| {
            RandomGenerator::new(0, 16 * 1024 * 1024, 1500, seed)
                .compute_per_access(1)
                .generate()
        };
        let solo = single(ChipConfig::default_single_core(), make(0));
        let traces: Vec<Trace> = (0..8).map(make).collect();
        let crowded = Simulator::new(ChipConfig::default_multi_core(8))
            .run(&traces)
            .unwrap();
        let solo_t = solo.cores[0].finished_at;
        let crowded_t = crowded.cores.iter().map(|c| c.finished_at).max().unwrap();
        assert!(
            crowded_t > solo_t,
            "8-core contended time {crowded_t} should exceed solo {solo_t}"
        );
    }

    #[test]
    fn bigger_l1_reduces_misses() {
        let trace = RandomGenerator::new(0, 128 * 1024, 12_000, 5).generate();
        let small = single(ChipConfig::default_single_core(), trace.clone());
        let mut big_cfg = ChipConfig::default_single_core();
        big_cfg.l1.size_bytes = 256 * 1024;
        let big = single(big_cfg, trace);
        assert!(
            big.cores[0].l1_misses < small.cores[0].l1_misses / 2,
            "big {} vs small {}",
            big.cores[0].l1_misses,
            small.cores[0].l1_misses
        );
    }

    #[test]
    fn writes_generate_writebacks() {
        // Write a working set larger than L1+L2 (L2 shrunk to 64 KiB so
        // dirty lines get evicted all the way to DRAM quickly).
        let trace = RandomGenerator::new(0, 8 * 1024 * 1024, 6000, 9)
            .write_fraction(1.0)
            .generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.l2.size_bytes = 64 * 1024;
        let r = single(cfg, trace);
        assert!(r.writebacks > 0, "no writebacks observed");
    }

    #[test]
    fn trace_count_mismatch_is_error() {
        let trace = StridedGenerator::new(0, 64, 10).generate();
        let err = Simulator::new(ChipConfig::default_multi_core(2))
            .run(&[trace])
            .unwrap_err();
        assert!(matches!(err, Error::TraceCountMismatch { .. }));
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = single(ChipConfig::default_single_core(), Trace::new());
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.total_instructions(), 0);
    }

    #[test]
    fn next_line_prefetch_helps_streaming() {
        // Sequential lines are perfectly predicted by a next-line
        // prefetcher: fewer demand misses and a shorter run.
        let trace = StridedGenerator::new(0, 64, 4000)
            .compute_per_access(1)
            .generate();
        let mut off = ChipConfig::default_single_core();
        off.core = crate::config::CoreConfig::scalar_blocking();
        let mut on = off.clone();
        on.l1.next_line_prefetch = true;
        let r_off = single(off, trace.clone());
        let r_on = single(on, trace);
        assert_eq!(r_off.prefetches, 0);
        assert!(r_on.prefetches > 1000, "prefetches {}", r_on.prefetches);
        // With a blocking core the next demand arrives before the
        // prefetch completes, so it still *counts* as a miss at lookup —
        // but it merges onto the in-flight prefetch and waits only the
        // residual latency: wall clock drops by ~2x.
        assert!(r_on.cores[0].l1_misses <= r_off.cores[0].l1_misses);
        assert!(
            r_on.total_cycles * 10 < r_off.total_cycles * 6,
            "prefetch cycles {} vs baseline {}",
            r_on.total_cycles,
            r_off.total_cycles
        );
    }

    #[test]
    fn prefetch_is_harmless_on_random_accesses() {
        let trace = RandomGenerator::new(0, 16 << 20, 3000, 13).generate();
        let mut on = ChipConfig::default_single_core();
        on.l1.next_line_prefetch = true;
        let r = single(on, trace.clone());
        let r_off = single(ChipConfig::default_single_core(), trace);
        // Same retired work; time within 2x either way (prefetches cost
        // bandwidth but never deadlock or corrupt accounting).
        assert_eq!(r.total_instructions(), r_off.total_instructions());
        assert!(r.total_cycles < 2 * r_off.total_cycles);
        assert_eq!(r.cores[0].accesses, r_off.cores[0].accesses);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = RandomGenerator::new(0, 1 << 20, 3000, 42).generate();
        let a = single(ChipConfig::default_single_core(), trace.clone());
        let b = single(ChipConfig::default_single_core(), trace);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_request_fault_terminates_with_its_index() {
        use crate::fault::FaultPlan;
        let trace = RandomGenerator::new(0, 1 << 20, 3000, 17).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            fail_at_request: Some(100),
            ..FaultPlan::default()
        };
        let err = Simulator::new(cfg).run(&[trace]).unwrap_err();
        match err {
            Error::InjectedFault { request, .. } => assert_eq!(request, 100),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn request_fault_beyond_the_run_is_never_hit() {
        use crate::fault::FaultPlan;
        let trace = StridedGenerator::new(0, 64, 500).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            fail_at_request: Some(1_000_000),
            ..FaultPlan::default()
        };
        assert!(Simulator::new(cfg).run(&[trace]).is_ok());
    }

    #[test]
    fn dram_spike_slows_the_run_with_identical_work() {
        use crate::fault::{CycleWindow, DramSpike, FaultPlan};
        let trace = RandomGenerator::new(0, 16 << 20, 2000, 23)
            .compute_per_access(1)
            .generate();
        let base = single(ChipConfig::default_single_core(), trace.clone());
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            dram_spike: Some(DramSpike {
                window: CycleWindow::new(0, base.total_cycles),
                extra: 500,
            }),
            ..FaultPlan::default()
        };
        let spiked = single(cfg, trace);
        // Same retired work, correct accounting, strictly more cycles.
        assert_eq!(spiked.total_instructions(), base.total_instructions());
        assert_eq!(spiked.cores[0].accesses, base.cores[0].accesses);
        assert!(
            spiked.total_cycles > base.total_cycles,
            "spiked {} !> base {}",
            spiked.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn mshr_starvation_window_slows_but_terminates() {
        use crate::fault::{CycleWindow, FaultPlan};
        let trace = RandomGenerator::new(0, 16 << 20, 2000, 29)
            .compute_per_access(1)
            .generate();
        let base = single(ChipConfig::default_single_core(), trace.clone());
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            mshr_starvation: Some(CycleWindow::new(0, base.total_cycles * 2)),
            ..FaultPlan::default()
        };
        let starved = single(cfg, trace);
        assert_eq!(starved.total_instructions(), base.total_instructions());
        // One effective MSHR entry serializes misses: strictly slower.
        assert!(
            starved.total_cycles > base.total_cycles,
            "starved {} !> base {}",
            starved.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        use crate::fault::{CycleWindow, DramSpike, FaultPlan};
        let trace = RandomGenerator::new(0, 1 << 20, 2000, 31).generate();
        let mut cfg = ChipConfig::default_single_core();
        cfg.fault = FaultPlan {
            dram_spike: Some(DramSpike {
                window: CycleWindow::new(100, 5_000),
                extra: 77,
            }),
            mshr_starvation: Some(CycleWindow::new(2_000, 4_000)),
            ..FaultPlan::default()
        };
        let a = single(cfg.clone(), trace.clone());
        let b = single(cfg, trace);
        assert_eq!(a, b);
    }
}
