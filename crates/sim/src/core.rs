//! Out-of-order core abstraction.
//!
//! The core is modelled by its two first-order resources: an issue width
//! and a reorder-buffer window. Instructions issue in order into the
//! ROB; compute instructions complete after `exec_latency`; memory
//! instructions complete when the memory hierarchy returns data.
//! Retirement is in order. Memory-level parallelism — the paper's `C_H`
//! and `C_M` — *emerges* from the window: a wide ROB lets many memory
//! requests overlap, a 1-entry ROB serializes them (the paper's C = 1).

use std::collections::VecDeque;

use c2_trace::{MemAccess, Trace};

use crate::config::CoreConfig;

/// A ROB entry's value while it is an L1 miss whose data has not
/// returned. Every other entry holds the cycle from which it may
/// retire: a compute instruction's completion cycle, an L1 hit's lookup
/// resolve cycle, or 0 for a miss whose data has returned.
const PENDING: u64 = u64::MAX;

/// What the core wants to issue next (peeked by the chip engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextOp {
    /// A compute instruction.
    Compute,
    /// A memory access (the next one in the trace).
    Memory(MemAccess),
    /// Trace exhausted.
    Exhausted,
}

/// One simulated core executing one trace.
///
/// The core keeps its place in the trace but not the trace itself:
/// [`Core::peek`] reads the next access from the trace the core was
/// built for, wherever it lives, so a run copies no access.
#[derive(Debug)]
pub struct Core {
    config: CoreConfig,
    instruction_count: u64,
    /// Index of the next trace access to issue.
    next_access: usize,
    /// Dynamic instruction index of the next instruction to issue.
    next_instr: u64,
    /// In-flight instructions; `rob[k]` is instruction `retired + k`,
    /// held as the cycle from which it may retire (or [`PENDING`]).
    rob: VecDeque<u64>,
    retired: u64,
    finished_at: u64,
    /// Whether the core issued or retired anything since the last
    /// [`Core::take_progress`] call (drives the overlap measurement).
    progress: bool,
    // Statistics
    rob_stalls: u64,
    mem_stalls: u64,
}

/// The ROB size from which a run of `traces` no longer depends on it:
/// one more than the longest trace's instruction count. Every
/// `rob_size` at or above it gives the same [`SimResult`], field for
/// field.
///
/// Why: a core's ROB holds only instructions it has issued and not yet
/// retired, and a core issues each instruction of its trace once, so
/// its ROB never holds more entries than its trace's `I` instructions.
/// The size enters a run only through `Core::rob_has_space`
/// (`rob.len() < rob_size`), which the engine asks before every issue,
/// when it decides whether a core can issue again, and when it wakes a
/// sleeping core to charge the ROB-full stalls it sat out. With
/// `rob_size > I` every such call returns `true`, so each ROB size
/// above the bound takes the same path through every cycle. The bound
/// is tight: at `rob_size == I` a core with its whole trace in flight
/// reads a full ROB and notes ROB-full stalls that a larger ROB does
/// not (`Core::with_storage`'s reservation changes only capacity).
///
/// [`SimResult`]: crate::SimResult
pub fn rob_saturation(traces: &[Trace]) -> usize {
    let longest = traces
        .iter()
        .map(Trace::instruction_count)
        .max()
        .unwrap_or(0);
    usize::try_from(longest)
        .unwrap_or(usize::MAX)
        .saturating_add(1)
}

impl Core {
    /// Build a core that will execute `trace`.
    pub fn new(config: CoreConfig, trace: &Trace) -> Self {
        Core::with_storage(config, trace, VecDeque::new())
    }

    /// Return to the state [`Core::new`] builds for `config` and
    /// `trace`, keeping the ROB.
    pub(crate) fn reset(&mut self, config: CoreConfig, trace: &Trace) {
        let rob = std::mem::take(&mut self.rob);
        *self = Core::with_storage(config, trace, rob);
    }

    /// A core about to execute `trace`, built in (possibly used) storage.
    fn with_storage(config: CoreConfig, trace: &Trace, mut rob: VecDeque<u64>) -> Self {
        let instruction_count = trace.instruction_count();
        // The ROB never holds more than the trace's instructions.
        let fill = usize::try_from(instruction_count).unwrap_or(usize::MAX);
        rob.clear();
        rob.reserve(config.rob_size.min(fill));
        Core {
            config,
            instruction_count,
            next_access: 0,
            next_instr: 0,
            rob,
            retired: 0,
            finished_at: 0,
            progress: false,
            rob_stalls: 0,
            mem_stalls: 0,
        }
    }

    /// Whether every instruction has been issued *and* retired.
    pub fn finished(&self) -> bool {
        self.retired >= self.instruction_count && self.rob.is_empty()
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycle at which the last instruction retired (0 until finished).
    pub fn finished_at(&self) -> u64 {
        self.finished_at
    }

    /// ROB-full issue stalls observed.
    pub fn rob_stalls(&self) -> u64 {
        self.rob_stalls
    }

    /// Memory-structural issue stalls observed (ports/MSHRs).
    pub fn mem_stalls(&self) -> u64 {
        self.mem_stalls
    }

    /// Notification from the memory system that the memory instruction
    /// with dynamic index `index` (as [`Core::issue_memory`] returned it)
    /// has its data. Returns whether that instruction is the ROB head.
    pub fn complete_memory(&mut self, index: u64) -> bool {
        let slot = (index - self.retired) as usize;
        match self.rob.get_mut(slot) {
            Some(entry) if *entry == PENDING => *entry = 0,
            other => panic!("instruction {index} is not an in-flight memory access: {other:?}"),
        }
        slot == 0
    }

    /// Retire up to `issue_width` completed instructions from the ROB
    /// head (in order).
    pub fn retire(&mut self, now: u64) {
        for _ in 0..self.config.issue_width {
            match self.rob.front() {
                Some(&ready_at) if ready_at <= now => {}
                _ => break,
            }
            self.rob.pop_front();
            self.retired += 1;
            self.progress = true;
            if self.retired == self.instruction_count && self.rob.is_empty() {
                self.finished_at = now;
            }
        }
    }

    /// What the next instruction to issue is; `trace` is the trace the
    /// core was built for.
    pub fn peek(&self, trace: &Trace) -> NextOp {
        if self.next_instr >= self.instruction_count {
            return NextOp::Exhausted;
        }
        match trace.accesses().get(self.next_access) {
            Some(a) if a.instr == self.next_instr => NextOp::Memory(*a),
            _ => NextOp::Compute,
        }
    }

    /// Whether the ROB has room for another instruction.
    pub fn rob_has_space(&self) -> bool {
        self.rob.len() < self.config.rob_size
    }

    /// Record a ROB-full stall for this cycle.
    pub fn note_rob_stall(&mut self) {
        self.rob_stalls += 1;
    }

    /// Record `cycles` ROB-full stalls at once: the cycles a blocked
    /// core sat out while the chip engine did not step it.
    pub(crate) fn note_rob_stalls(&mut self, cycles: u64) {
        self.rob_stalls += cycles;
    }

    /// Whether the core could issue this cycle: it has ROB space and
    /// trace left to issue.
    pub(crate) fn can_issue(&self) -> bool {
        self.rob_has_space() && self.next_instr < self.instruction_count
    }

    /// Whether the ROB head is an L1 miss whose data has not returned:
    /// the core cannot retire until it does.
    pub(crate) fn head_blocked(&self) -> bool {
        self.rob.front() == Some(&PENDING)
    }

    /// Record a memory-structural stall for this cycle.
    pub fn note_mem_stall(&mut self) {
        self.mem_stalls += 1;
    }

    /// Issue the pending compute instruction (caller checked `peek`).
    pub fn issue_compute(&mut self, now: u64) {
        debug_assert!(self.rob_has_space());
        self.rob.push_back(now + self.config.exec_latency as u64);
        self.next_instr += 1;
        self.progress = true;
    }

    /// Issue the pending memory instruction (caller checked `peek`) and
    /// return its dynamic index, the handle [`Core::complete_memory`]
    /// takes.
    pub fn issue_memory(&mut self) -> u64 {
        self.issue_access(PENDING)
    }

    /// Issue the pending memory instruction (caller checked `peek`) as
    /// an L1 hit whose lookup resolves at `ready_at`: like a compute
    /// instruction, it may retire from that cycle on, and no completion
    /// is reported for it.
    pub fn issue_hit(&mut self, ready_at: u64) {
        self.issue_access(ready_at);
    }

    /// Issue the pending memory instruction into a ROB entry holding
    /// `entry` and return its dynamic index.
    fn issue_access(&mut self, entry: u64) -> u64 {
        debug_assert!(self.rob_has_space());
        self.rob.push_back(entry);
        let index = self.next_instr;
        self.next_instr += 1;
        self.next_access += 1;
        self.progress = true;
        index
    }

    /// The configured issue width.
    pub fn issue_width(&self) -> usize {
        self.config.issue_width
    }

    /// Whether the core made pipeline progress (issued or retired) since
    /// the previous call; resets the flag.
    pub fn take_progress(&mut self) -> bool {
        std::mem::take(&mut self.progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2_trace::TraceBuilder;

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.compute(2).read(64).compute(1).read(128);
        b.finish()
    }

    #[test]
    fn peek_distinguishes_compute_and_memory() {
        let t = small_trace();
        let core = Core::new(CoreConfig::default_ooo(), &t);
        assert_eq!(core.peek(&t), NextOp::Compute);
    }

    #[test]
    fn compute_only_trace_retires_everything() {
        let mut b = TraceBuilder::new();
        b.compute(10);
        let t = b.finish();
        let mut core = Core::new(
            CoreConfig {
                issue_width: 2,
                rob_size: 4,
                exec_latency: 1,
            },
            &t,
        );
        let mut now = 0;
        while !core.finished() && now < 100 {
            core.retire(now);
            for _ in 0..2 {
                if core.rob_has_space() && core.peek(&t) == NextOp::Compute {
                    core.issue_compute(now);
                }
            }
            now += 1;
        }
        core.retire(now);
        assert!(core.finished());
        assert_eq!(core.retired(), 10);
        // 10 instructions, width 2, ROB 4: bounded by width -> ~>=5 cycles.
        assert!(core.finished_at() >= 5);
    }

    #[test]
    fn memory_instruction_blocks_retirement_until_completed() {
        let t = small_trace();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        // Issue the two compute instructions and the first memory access.
        core.issue_compute(0);
        core.issue_compute(0);
        match core.peek(&t) {
            NextOp::Memory(a) => assert_eq!(a.addr, 64),
            other => panic!("expected memory, got {other:?}"),
        }
        let index = core.issue_memory();
        assert_eq!(index, 2, "the access is the third instruction");
        core.retire(5);
        // The two computes retired; the memory op gates the head.
        assert_eq!(core.retired(), 2);
        assert!(core.head_blocked());
        core.retire(6);
        assert_eq!(core.retired(), 2);
        assert!(core.complete_memory(index), "the access is the ROB head");
        assert!(!core.head_blocked());
        core.retire(7);
        assert_eq!(core.retired(), 3);
    }

    #[test]
    fn younger_access_completing_first_waits_for_the_head() {
        let mut b = TraceBuilder::new();
        b.read(64).read(128);
        let t = b.finish();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        let older = core.issue_memory();
        let younger = core.issue_memory();
        assert_eq!((older, younger), (0, 1));
        // The younger access's data returns first: it is not the head,
        // and the head still blocks in-order retirement.
        assert!(!core.complete_memory(younger));
        core.retire(10);
        assert_eq!(core.retired(), 0);
        assert!(core.head_blocked());
        // The head's own data returns: both retire, in order.
        assert!(core.complete_memory(older));
        core.retire(11);
        assert_eq!(core.retired(), 2);
        assert!(core.finished());
        assert_eq!(core.finished_at(), 11);
    }

    #[test]
    fn rob_capacity_limits_inflight() {
        let mut b = TraceBuilder::new();
        b.compute(8);
        let t = b.finish();
        let mut core = Core::new(
            CoreConfig {
                issue_width: 8,
                rob_size: 2,
                exec_latency: 5,
            },
            &t,
        );
        core.issue_compute(0);
        core.issue_compute(0);
        assert!(!core.rob_has_space());
    }

    #[test]
    fn finished_requires_full_retirement() {
        let t = small_trace();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        assert!(!core.finished());
        // Drive to completion manually.
        let mut now = 0u64;
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (ready_at, index)
        while !core.finished() && now < 1000 {
            for (ready, index) in &pending {
                if *ready <= now {
                    core.complete_memory(*index);
                }
            }
            pending.retain(|(ready, _)| *ready > now);
            core.retire(now);
            for _ in 0..core.issue_width() {
                if !core.rob_has_space() {
                    break;
                }
                match core.peek(&t) {
                    NextOp::Compute => core.issue_compute(now),
                    NextOp::Memory(_) => {
                        let index = core.issue_memory();
                        pending.push((now + 10, index));
                    }
                    NextOp::Exhausted => break,
                }
            }
            now += 1;
        }
        assert!(core.finished(), "core did not finish");
        assert_eq!(core.retired(), t.instruction_count());
        assert!(core.finished_at() >= 10, "memory latency must show up");
    }

    #[test]
    fn rob_reserves_no_more_than_the_trace_can_fill() {
        let t = small_trace();
        let config = CoreConfig {
            rob_size: 256,
            ..CoreConfig::default_ooo()
        };
        let core = Core::new(config, &t);
        assert!(
            core.rob.capacity() < 256,
            "{} entries reserved for {} instructions",
            core.rob.capacity(),
            t.instruction_count()
        );
    }

    fn run_with_rob(mut config: crate::ChipConfig, rob_size: usize, traces: &[Trace]) -> String {
        config.cores = traces.len();
        config.core.rob_size = rob_size;
        format!("{:?}", crate::Simulator::new(config).run(traces))
    }

    /// The bound is tight: a ROB as long as the trace fills up with the
    /// whole trace in flight and notes ROB-full stalls, one entry more
    /// never does.
    #[test]
    fn a_rob_as_long_as_the_trace_can_still_stall() {
        let mut b = TraceBuilder::new();
        b.compute(2);
        let traces = [b.finish()];
        assert_eq!(rob_saturation(&traces), 3);
        let mut config = crate::ChipConfig::default_single_core();
        config.core = CoreConfig {
            issue_width: 4,
            rob_size: 2,
            exec_latency: 3,
        };
        let stalls = |rob_size| {
            let mut config = config.clone();
            config.core.rob_size = rob_size;
            let r = crate::Simulator::new(config).run(&traces).unwrap();
            r.cores[0].rob_stalls
        };
        assert_eq!(stalls(2), 3, "ROB full from cycle 0 until both retire at 3");
        assert_eq!(stalls(3), 0);
        assert_eq!(stalls(1024), 0);
    }

    #[test]
    fn rob_saturation_of_no_instructions_is_one() {
        assert_eq!(rob_saturation(&[]), 1);
        assert_eq!(rob_saturation(&[Trace::new(), small_trace()]), 6);
    }

    /// Drawn log2 size, log2 ways, hit latency, MSHRs, ports and log2
    /// banks.
    type CacheShape = (u32, u32, u32, usize, usize, u32);

    /// A cache `CacheConfig::validate` accepts, of a drawn shape.
    fn cache(
        (log_size, log_ways, hit_latency, mshrs, ports, log_banks): CacheShape,
        prefetch: bool,
    ) -> crate::CacheConfig {
        crate::CacheConfig {
            size_bytes: 1 << log_size,
            line_size: 64,
            associativity: 1 << log_ways.min(log_size - 6),
            hit_latency,
            mshr_entries: mshrs,
            ports,
            banks: 1 << log_banks,
            next_line_prefetch: prefetch,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// [`rob_saturation`]'s rule: the bound itself and any larger ROB
        /// give the same result, field for field, on 1–8 cores with
        /// 0–40 instructions each (some cores have none).
        #[test]
        fn rob_sizes_past_the_longest_trace_run_alike(
            cores in proptest::collection::vec(
                (0u8..4, proptest::collection::vec((0u8..3, 0u64..16_384), 0..41)),
                1..9,
            ),
            core in (1usize..9, 1u32..5),
            l1 in ((7u32..14, 0u32..4, 1u32..5, 1usize..9, 1usize..4, 0u32..3), 0u8..2),
            l2 in ((10u32..17, 0u32..5, 1u32..13, 1usize..17, 1usize..5, 0u32..4), 0u8..2),
            extra in 1usize..300,
        ) {
            let traces: Vec<Trace> = cores
                .iter()
                .map(|(empty, ops)| {
                    let mut b = TraceBuilder::new();
                    for &(op, addr) in ops.iter().filter(|_| *empty != 0) {
                        match op {
                            0 => {
                                b.compute(1);
                            }
                            1 => {
                                b.read(addr);
                            }
                            _ => {
                                b.write(addr);
                            }
                        }
                    }
                    b.finish()
                })
                .collect();
            let mut config = crate::ChipConfig::default_single_core();
            config.core.issue_width = core.0;
            config.core.exec_latency = core.1;
            config.l1 = cache(l1.0, l1.1 == 1);
            config.l2 = cache(l2.0, l2.1 == 1);
            let bound = rob_saturation(&traces);
            proptest::prop_assert_eq!(
                run_with_rob(config.clone(), bound, &traces),
                run_with_rob(config, bound + extra, &traces)
            );
        }
    }

    #[test]
    fn stall_counters() {
        let t = small_trace();
        let mut core = Core::new(CoreConfig::default_ooo(), &t);
        core.note_rob_stall();
        core.note_mem_stall();
        core.note_mem_stall();
        assert_eq!(core.rob_stalls(), 1);
        assert_eq!(core.mem_stalls(), 2);
    }
}
