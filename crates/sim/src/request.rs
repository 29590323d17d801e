//! In-flight memory request representation and state machine.

use crate::{Error, Result};

/// A request's identifier: its issue sequence number above its
/// [`RequestArena`] slot, so ids sort in issue order.
pub type ReqId = u64;

/// The index of a request's record in its [`RequestArena`].
pub type Slot = u32;

/// The link that ends a chain of MSHR waiters.
pub const NO_SLOT: Slot = Slot::MAX;

/// The id every writeback carries, above every request id, so a DRAM
/// completion tells a writeback from a fill.
pub(crate) const WRITEBACK: ReqId = 1 << 62;

/// How many low bits of a [`ReqId`] hold its slot.
const SLOT_BITS: u32 = 28;
const SLOT_MASK: ReqId = (1 << SLOT_BITS) - 1;
/// The first issue sequence number whose id would reach [`WRITEBACK`].
const SEQ_LIMIT: u64 = WRITEBACK >> SLOT_BITS;
/// What a free slot holds as its id. Its slot bits are all ones, the
/// one slot the arena never hands out, so no id matches it.
const FREE: ReqId = ReqId::MAX;

/// The slot that request `id` occupies while it is live.
#[inline]
fn slot_of(id: ReqId) -> Slot {
    (id & SLOT_MASK) as Slot
}

/// Where a request currently is in the memory hierarchy.
///
/// The timed states (`L1Lookup`, `ToL2`, `L2Lookup`, `ToDram` and
/// `FillToL1`) hold no due cycle: the engine's calendar holds it, and
/// [`MemRequest::lookup_done_at`] an `L1Lookup`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqState {
    /// In the L1 lookup pipeline (the access's *hit phase*), bound to
    /// miss: the lookup is determined at issue, and a hit never becomes
    /// a request.
    L1Lookup,
    /// Missed in L1 but the MSHR file was full; retrying allocation.
    L1MshrRetry,
    /// Secondary miss: merged into an existing L1 MSHR entry, waiting
    /// for the primary's fill.
    WaitL1Fill,
    /// Travelling L1 → L2 over the NoC.
    ToL2,
    /// Waiting for a free L2 bank.
    L2Queue,
    /// In an L2 bank's lookup pipeline.
    L2Lookup {
        /// Whether the lookup will hit.
        hit: bool,
    },
    /// Missed in L2 but the L2 MSHR file was full; retrying.
    L2MshrRetry,
    /// Secondary L2 miss waiting on an outstanding DRAM fetch.
    WaitL2Fill,
    /// Travelling L2 → memory controller.
    ToDram,
    /// Waiting for space in the DRAM controller queue.
    DramQueueRetry,
    /// Accepted by the DRAM controller; awaiting data.
    DramInFlight,
    /// Fill data travelling back to the L1 (L2 already filled).
    FillToL1,
}

/// One in-flight memory request (a dynamic load or store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing core.
    pub core: u32,
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
    /// The waiter registered after this one on its L1 MSHR entry, or
    /// [`NO_SLOT`].
    pub next_l1: Slot,
    /// The waiter registered after this one on its L2 MSHR entry, or
    /// [`NO_SLOT`]. Only an L1 primary goes on to L2, so it may sit in
    /// both chains.
    pub next_l2: Slot,
}

/// The engine's in-flight requests: a slab of records whose freed
/// slots are reused last in, first out, so a new request lands in the
/// slot the run touched most recently.
///
/// An id packs its request's issue sequence number above its slot, so
/// ids sort in issue order and [`RequestArena::slot`] finds a request
/// with one mask. Every id the engine holds names a live request
/// (DESIGN.md §16), and debug builds check it there: a removal replaces
/// the slot's id with one no id matches, and a reuse stores a newer
/// one, so a completed id fails the check.
#[derive(Debug, Default, Clone)]
pub struct RequestArena {
    /// Each slot's id while its request is live, else [`FREE`].
    ids: Vec<ReqId>,
    /// Each slot's request, meaningful while its id is live.
    reqs: Vec<MemRequest>,
    /// Freed slots, the most recently freed last.
    free: Vec<Slot>,
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
        self.ids.clear();
        self.reqs.clear();
        self.free.clear();
        #[cfg(test)]
        {
            self.inserted = 0;
        }
    }

    /// Insert `req`, the request with issue sequence number `seq`, and
    /// return its id. Sequence numbers must rise from one insert to the
    /// next for ids to sort in issue order. One that would carry the id
    /// up to [`WRITEBACK`], or a slot past the last the id can name, is
    /// an [`Error::RequestIdOverflow`].
    pub fn insert(&mut self, seq: u64, req: MemRequest) -> Result<ReqId> {
        if seq >= SEQ_LIMIT {
            return Err(Error::RequestIdOverflow);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.reqs[slot as usize] = req;
                slot
            }
            None => {
                let slot = self.reqs.len() as u64;
                if slot >= SLOT_MASK {
                    return Err(Error::RequestIdOverflow);
                }
                self.reqs.push(req);
                self.ids.push(FREE);
                slot as Slot
            }
        };
        let id = seq << SLOT_BITS | ReqId::from(slot);
        self.ids[slot as usize] = id;
        #[cfg(test)]
        {
            self.inserted += 1;
        }
        Ok(id)
    }

    /// The slot of request `id`, which must be live: the engine holds
    /// no other id. Debug builds check that the slot holds `id`.
    #[inline]
    pub(crate) fn slot(&self, id: ReqId) -> Slot {
        let slot = slot_of(id);
        debug_assert_eq!(
            self.ids.get(slot as usize),
            Some(&id),
            "request {id:#x} is not live"
        );
        slot
    }

    /// The live request in `slot`.
    #[inline]
    pub(crate) fn at(&self, slot: Slot) -> &MemRequest {
        debug_assert_ne!(self.ids[slot as usize], FREE, "slot {slot} is free");
        &self.reqs[slot as usize]
    }

    /// The live request in `slot`, mutably.
    #[inline]
    pub(crate) fn at_mut(&mut self, slot: Slot) -> &mut MemRequest {
        debug_assert_ne!(self.ids[slot as usize], FREE, "slot {slot} is free");
        &mut self.reqs[slot as usize]
    }

    /// The id of the live request in `slot`.
    #[inline]
    pub(crate) fn id_at(&self, slot: Slot) -> ReqId {
        debug_assert_ne!(self.ids[slot as usize], FREE, "slot {slot} is free");
        self.ids[slot as usize]
    }

    /// Remove and return the live request in `slot`, freeing the slot
    /// for the next insert.
    pub(crate) fn remove_at(&mut self, slot: Slot) -> MemRequest {
        let id = std::mem::replace(&mut self.ids[slot as usize], FREE);
        // Freeing a slot twice would hand it to two live requests.
        assert_ne!(id, FREE, "slot {slot} is already free");
        self.free.push(slot);
        self.reqs[slot as usize]
    }

    /// Number of live requests.
    pub fn len(&self) -> usize {
        self.ids.len() - self.free.len()
    }

    /// Whether no request is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn arena_req(line: u64) -> MemRequest {
        MemRequest {
            core: 0,
            line,
            is_write: false,
            lookup_done_at: 3,
            rob_index: 0,
            miss_epoch: 0,
            state: ReqState::L1MshrRetry,
            is_prefetch: false,
            next_l1: NO_SLOT,
            next_l2: NO_SLOT,
        }
    }

    /// The request under `id` if it is live, read from the slab's id
    /// column: what [`RequestArena::slot`] checks.
    fn live(a: &RequestArena, id: ReqId) -> Option<&MemRequest> {
        let slot = slot_of(id) as usize;
        (a.ids.get(slot) == Some(&id)).then(|| &a.reqs[slot])
    }

    /// The record the engine keeps per request in flight stays within
    /// one 64-byte line.
    #[test]
    fn a_request_record_fits_in_64_bytes() {
        assert!(std::mem::size_of::<MemRequest>() <= 64);
    }

    #[test]
    fn arena_insert_edit_remove_round_trip() {
        let mut a = RequestArena::new();
        assert!(a.is_empty());
        let ids: Vec<ReqId> = (0..8u64)
            .map(|seq| a.insert(seq, arena_req(seq)).unwrap())
            .collect();
        assert_eq!(a.len(), 8);
        assert_eq!(a.at(a.slot(ids[3])).line, 3);
        a.at_mut(a.slot(ids[5])).state = ReqState::WaitL1Fill;
        assert_eq!(a.at(a.slot(ids[5])).state, ReqState::WaitL1Fill);
        for (seq, &id) in ids.iter().enumerate() {
            assert_eq!(a.id_at(a.slot(id)), id);
            assert_eq!(a.remove_at(a.slot(id)).line, seq as u64);
            assert!(live(&a, id).is_none(), "a removed id stays absent");
        }
        assert!(a.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut a = RequestArena::new();
        let first = a.insert(10, arena_req(10)).unwrap();
        let second = a.insert(11, arena_req(11)).unwrap();
        a.remove_at(a.slot(first));
        a.remove_at(a.slot(second));
        // The slot freed last is taken first, and neither old id
        // resolves to the request that took its slot.
        let third = a.insert(13, arena_req(13)).unwrap();
        assert_eq!(slot_of(third), slot_of(second));
        assert!(third > second, "ids sort in issue order");
        assert!(live(&a, second).is_none() && live(&a, first).is_none());
        assert_eq!((a.len(), a.at(a.slot(third)).line), (1, 13));
    }

    #[test]
    fn cleared_arena_starts_empty() {
        let mut a = RequestArena::new();
        let old = a.insert(40, arena_req(40)).unwrap();
        a.insert(42, arena_req(42)).unwrap();
        a.clear();
        assert!(a.is_empty());
        assert!(live(&a, old).is_none());
        // Sequence numbers restart from zero, below the old ones.
        let id = a.insert(0, arena_req(0)).unwrap();
        assert_eq!((a.len(), a.at(a.slot(id)).line), (1, 0));
    }

    /// Resolving a completed id breaks the engine's invariant, and
    /// debug builds catch it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not live")]
    fn a_completed_id_fails_the_liveness_check() {
        let mut a = RequestArena::new();
        let id = a.insert(5, arena_req(5)).unwrap();
        a.remove_at(a.slot(id));
        a.insert(6, arena_req(6)).unwrap();
        a.slot(id);
    }

    #[test]
    fn an_id_that_would_reach_the_writeback_id_is_an_error() {
        let mut a = RequestArena::new();
        let last = a.insert(SEQ_LIMIT - 1, arena_req(1)).unwrap();
        assert!(last < WRITEBACK);
        assert_eq!(
            a.insert(SEQ_LIMIT, arena_req(2)),
            Err(Error::RequestIdOverflow)
        );
        assert_eq!(a.len(), 1, "a refused insert takes no slot");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random inserts (each a few sequence numbers after the last,
        /// as hits draw numbers too), removals and edits agree with a
        /// `BTreeMap` keyed by sequence number. Every id is larger than
        /// the ids before it, and every removed id stays absent while
        /// its slot is reused.
        #[test]
        fn slab_agrees_with_a_map_keyed_by_issue_sequence(
            ops in prop::collection::vec((0u8..4, 0usize..64, 1u64..4), 0..400),
        ) {
            let mut arena = RequestArena::new();
            let mut map: BTreeMap<u64, (ReqId, MemRequest)> = BTreeMap::new();
            let mut removed: Vec<ReqId> = Vec::new();
            let mut seq = 0u64;
            let mut last_id = 0;
            for (op, pick, step) in ops {
                match op {
                    0 | 1 => {
                        seq += step;
                        let req = arena_req(seq * 7);
                        let id = arena.insert(seq, req).unwrap();
                        prop_assert!(id > last_id, "id {} after {} breaks issue order", id, last_id);
                        last_id = id;
                        map.insert(seq, (id, req));
                    }
                    2 => {
                        if let Some(&s) = map.keys().nth(pick % 8) {
                            let (id, req) = map.remove(&s).unwrap();
                            prop_assert_eq!(arena.remove_at(arena.slot(id)), req);
                            removed.push(id);
                        }
                    }
                    _ => {
                        if let Some((&s, (id, req))) = map.iter_mut().nth(pick % 8) {
                            req.rob_index = s + pick as u64;
                            arena.at_mut(arena.slot(*id)).rob_index = s + pick as u64;
                        }
                    }
                }
                prop_assert_eq!(arena.len(), map.len());
                prop_assert_eq!(arena.is_empty(), map.is_empty());
                for (id, req) in map.values() {
                    prop_assert_eq!(live(&arena, *id), Some(req));
                    prop_assert_eq!(arena.id_at(arena.slot(*id)), *id);
                }
                for &id in &removed {
                    prop_assert!(live(&arena, id).is_none(), "completed id {} resolved", id);
                }
            }
        }
    }
}
