//! In-flight memory request representation and state machine.

/// Monotonic request identifier.
pub type ReqId = u64;

/// Where a request currently is in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqState {
    /// In the L1 lookup pipeline (the access's *hit phase*), bound to
    /// miss: the lookup is determined at issue, and a hit never becomes
    /// a request.
    L1Lookup {
        /// Cycle at which the lookup resolves.
        done_at: u64,
    },
    /// Missed in L1 but the MSHR file was full; retrying allocation.
    L1MshrRetry,
    /// Secondary miss: merged into an existing L1 MSHR entry, waiting
    /// for the primary's fill.
    WaitL1Fill,
    /// Travelling L1 → L2 over the NoC.
    ToL2 {
        /// Arrival cycle at the L2 queue.
        arrive_at: u64,
    },
    /// Waiting for a free L2 bank.
    L2Queue,
    /// In an L2 bank's lookup pipeline.
    L2Lookup {
        /// Cycle at which the lookup resolves.
        done_at: u64,
        /// Whether the lookup will hit.
        hit: bool,
    },
    /// Missed in L2 but the L2 MSHR file was full; retrying.
    L2MshrRetry,
    /// Secondary L2 miss waiting on an outstanding DRAM fetch.
    WaitL2Fill,
    /// Travelling L2 → memory controller.
    ToDram {
        /// Arrival cycle at the DRAM controller.
        arrive_at: u64,
    },
    /// Waiting for space in the DRAM controller queue.
    DramQueueRetry,
    /// Accepted by the DRAM controller; awaiting data.
    DramInFlight,
    /// Fill data travelling back to the L1 (L2 already filled).
    FillToL1 {
        /// Arrival cycle at the L1.
        arrive_at: u64,
    },
}

/// One in-flight memory request (a dynamic load or store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing core.
    pub core: usize,
    /// Cache-line index.
    pub line: u64,
    /// Store (write-allocate) vs load.
    pub is_write: bool,
    /// Cycle the L1 lookup resolved (start of the miss penalty if any).
    pub lookup_done_at: u64,
    /// The issuing core's dynamic instruction index for this access:
    /// completion marks that ROB entry done.
    pub rob_index: u64,
    /// The issuing core's pure-miss epoch when the L1 lookup missed,
    /// handed back to its detector at retirement.
    pub miss_epoch: u64,
    /// Current state.
    pub state: ReqState,
    /// Hardware prefetch (not a program access: no core/ detector
    /// notification on completion).
    pub is_prefetch: bool,
}

/// Dense arena for the engine's in-flight request table, replacing a
/// `BTreeMap<ReqId, MemRequest>` on the simulator's hottest path.
///
/// Demand and prefetch ids are allocated monotonically and **never
/// reused** (stale-event detection in the engine relies on a completed
/// id staying absent), so the live ids always fall inside a sliding
/// window `[base, base + slots.len())`. Lookup is one bounds check and
/// one ring-buffer index instead of a tree walk, and insertion is an
/// amortized push. Removal trims exhausted slots from both ends so the
/// window tracks the in-flight set, not the whole run. Writeback ids
/// (`>= 1 << 62`) are never inserted; their lookups simply miss.
///
/// The API mirrors the `BTreeMap` subset the engine used, so the swap
/// is type-only and the simulated results stay bit-identical.
#[derive(Debug, Default, Clone)]
pub struct RequestArena {
    slots: std::collections::VecDeque<Option<MemRequest>>,
    /// Id of `slots[0]`. Meaningless while `slots` is empty.
    base: ReqId,
    live: usize,
    /// Requests inserted since the last clear.
    #[cfg(test)]
    pub(crate) inserted: u64,
}

impl RequestArena {
    /// An empty arena.
    pub fn new() -> Self {
        RequestArena::default()
    }

    /// Drop every live request, keeping the slot storage: the state
    /// [`RequestArena::new`] builds.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.base = 0;
        self.live = 0;
        #[cfg(test)]
        {
            self.inserted = 0;
        }
    }

    #[inline]
    fn index_of(&self, id: ReqId) -> Option<usize> {
        if self.slots.is_empty() || id < self.base {
            return None;
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            return None;
        }
        Some(idx)
    }

    /// Insert `req` under `id`. Ids must arrive in non-decreasing
    /// order relative to the live window (the engine's allocator is a
    /// monotonic counter); re-inserting below the window is a logic
    /// error.
    pub fn insert(&mut self, id: ReqId, req: MemRequest) -> Option<MemRequest> {
        if self.slots.is_empty() {
            self.base = id;
        }
        assert!(
            id >= self.base,
            "request id {id} below the live window base {}",
            self.base
        );
        let idx = (id - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        let old = self.slots[idx].replace(req);
        if old.is_none() {
            self.live += 1;
        }
        #[cfg(test)]
        {
            self.inserted += 1;
        }
        old
    }

    /// Borrow the request under `id`, if live.
    pub fn get(&self, id: &ReqId) -> Option<&MemRequest> {
        self.index_of(*id).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutably borrow the request under `id`, if live.
    pub fn get_mut(&mut self, id: &ReqId) -> Option<&mut MemRequest> {
        match self.index_of(*id) {
            Some(i) => self.slots[i].as_mut(),
            None => None,
        }
    }

    /// Whether `id` is live.
    pub fn contains_key(&self, id: &ReqId) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the request under `id`; the freed slot is
    /// trimmed from the window edges once its neighbours drain too.
    pub fn remove(&mut self, id: &ReqId) -> Option<MemRequest> {
        let idx = self.index_of(*id)?;
        let old = self.slots[idx].take();
        if old.is_some() {
            self.live -= 1;
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
            while matches!(self.slots.back(), Some(None)) {
                self.slots.pop_back();
            }
        }
        old
    }

    /// Number of live requests.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no request is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl std::ops::Index<&ReqId> for RequestArena {
    type Output = MemRequest;

    fn index(&self, id: &ReqId) -> &MemRequest {
        self.get(id).expect("no live request under this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_req(id: ReqId) -> MemRequest {
        MemRequest {
            core: 0,
            line: id,
            is_write: false,
            lookup_done_at: 3,
            rob_index: 0,
            miss_epoch: 0,
            state: ReqState::L1MshrRetry,
            is_prefetch: false,
        }
    }

    #[test]
    fn arena_insert_get_remove_round_trip() {
        let mut a = RequestArena::new();
        assert!(a.is_empty());
        for id in 0..8u64 {
            assert!(a.insert(id, arena_req(id)).is_none());
        }
        assert_eq!(a.len(), 8);
        assert_eq!(a[&3].line, 3);
        assert!(a.contains_key(&7));
        assert!(!a.contains_key(&8));
        a.get_mut(&5).unwrap().state = ReqState::WaitL1Fill;
        assert_eq!(a.get(&5).unwrap().state, ReqState::WaitL1Fill);
        for id in 0..8u64 {
            assert_eq!(a.remove(&id).unwrap().line, id);
            assert!(a.remove(&id).is_none(), "ids are never reused");
        }
        assert!(a.is_empty());
    }

    #[test]
    fn arena_window_slides_and_tolerates_gaps() {
        let mut a = RequestArena::new();
        a.insert(10, arena_req(10));
        a.insert(11, arena_req(11));
        // Rollback of the newest id (the prefetch-full path) leaves a
        // gap the next monotonic insert skips over.
        a.remove(&11);
        a.insert(13, arena_req(13));
        assert!(!a.contains_key(&11));
        assert!(!a.contains_key(&12));
        assert_eq!(a.len(), 2);
        // Draining the front advances the base past the hole.
        a.remove(&10);
        assert!(a.contains_key(&13));
        a.remove(&13);
        assert!(a.is_empty());
        // Reuse after a full drain restarts the window anywhere.
        a.insert(100, arena_req(100));
        assert_eq!(a[&100].line, 100);
    }

    #[test]
    fn cleared_arena_restarts_its_window() {
        let mut a = RequestArena::new();
        a.insert(40, arena_req(40));
        a.insert(42, arena_req(42));
        a.clear();
        assert!(a.is_empty());
        assert!(!a.contains_key(&40));
        // Ids restart from zero, below the old window.
        a.insert(0, arena_req(0));
        assert_eq!((a.len(), a[&0].line), (1, 0));
    }

    #[test]
    fn arena_misses_out_of_window_ids() {
        let mut a = RequestArena::new();
        a.insert(5, arena_req(5));
        // Below the window (already retired) and far above it (a
        // writeback id) both miss instead of panicking.
        assert!(a.get(&0).is_none());
        assert!(a.get(&(1 << 62)).is_none());
        assert!(a.get_mut(&(1 << 62)).is_none());
        assert!(a.remove(&(1 << 62)).is_none());
    }
}
