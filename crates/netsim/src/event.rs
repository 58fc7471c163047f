//! The simulator's event queue.
//!
//! Orders events by firing time and breaks ties by insertion order, so that
//! two events scheduled for the same instant fire in the order they were
//! scheduled (stable FIFO). Stability is what makes simulation runs
//! reproducible independent of heap internals.
//!
//! The binary heap holds only a 24-byte key per event — `(at, seq, slot)` —
//! while the events themselves sit still in a slab: a sift moves keys, never
//! a message (the simulator's event with its key is 144 bytes). On the
//! benchmark's 16-edge, 2 000-request cluster trace a run keeps ≈ 34 events
//! pending on average (peak ≈ 55); before client and probe deadlines were
//! cancelled it kept ≈ 300 (peak ≈ 390), most of them deadlines that would
//! have fired into nothing. A popped or cancelled event's slot goes on a
//! free list and is the next one filled, so the slab is as long as the most
//! events ever pending at once, not as long as the run.
//!
//! The heap is indexed: each slot records where its key sits in the heap,
//! so [`EventQueue::cancel`] removes a pending event outright instead of
//! leaving a tombstone to be popped and skipped. An [`EventId`] names its
//! event by slot *and* `seq`; since `seq` is never reused, a handle whose
//! event was popped, cancelled or replaced in a reused slot matches nothing.

use crate::time::SimTime;

/// Names one scheduled event, for [`EventQueue::cancel`]. Once the event
/// has left the queue — popped, cancelled or cleared — the id is stale and
/// matches nothing, also after its slot holds another event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// What the heap orders: firing time, then insertion order. `seq` is unique,
/// so `slot` — where the event waits in the slab — never decides.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Does this key fire first? One 128-bit comparison of `(at, seq)`:
    /// branch-free, where comparing the pair field by field branches on
    /// every sift step.
    fn before(&self, other: &Key) -> bool {
        let order = |k: &Key| (u128::from(k.at.as_nanos()) << 64) | u128::from(k.seq);
        order(self) < order(other)
    }
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    /// Min-heap of keys in the implicit binary-tree layout.
    heap: Vec<Key>,
    /// Pending events by slot; `None` marks a slot on the free list.
    slots: Vec<Option<E>>,
    /// The `seq` each slot's event was scheduled under, by slot.
    seqs: Vec<u64>,
    /// Where each slot's key is in `heap`, by slot: a dense array apart
    /// from the events, since every step of a sift updates it.
    pos: Vec<u32>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            seqs: Vec::new(),
            pos: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`; the returned id
    /// cancels it while it is pending.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` events are pending at once.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                self.seqs[slot as usize] = seq;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("over u32::MAX pending events");
                self.slots.push(Some(event));
                self.seqs.push(seq);
                self.pos.push(0);
                slot
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        EventId { slot, seq }
    }

    /// Pop the earliest event, if any, returning its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(first) => {
                let top = std::mem::replace(first, last);
                // The last key usually belongs near the bottom: sink the
                // hole to a leaf along the smaller children, then let the
                // key rise from there (one comparison per level, not two).
                let leaf = self.sink_hole(0);
                self.heap[leaf] = last;
                self.sift_up(leaf);
                top
            }
            None => last,
        };
        Some((top.at, self.vacate(top.slot)))
    }

    /// Remove the event `id` names, if it is still pending, and return it.
    /// A stale id — its event popped, cancelled or cleared, its slot reused
    /// or not — changes nothing.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        let slot = id.slot as usize;
        // A vacated slot keeps its last `seq`, so check that it is filled.
        if self.seqs.get(slot) != Some(&id.seq) || self.slots[slot].is_none() {
            return None;
        }
        let at = self.pos[slot] as usize;
        let last = self.heap.pop().expect("a pending event has a key");
        if at < self.heap.len() {
            // Refill the hole with the last key and restore the order from
            // there: it either rises or sinks, never both.
            self.heap[at] = last;
            if at > 0 && last.before(&self.heap[(at - 1) / 2]) {
                self.sift_up(at);
            } else {
                self.sift_down(at);
            }
        }
        Some(self.vacate(id.slot))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.seqs.clear();
        self.pos.clear();
        self.free.clear();
    }

    /// Take the event out of `slot` and put the slot on the free list.
    fn vacate(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a key in the heap names a filled slot")
    }

    /// Move the key at `at` up while it fires before its parent.
    fn sift_up(&mut self, mut at: usize) {
        let (heap, pos) = (&mut self.heap[..], &mut self.pos[..]);
        let key = heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            let above = heap[parent];
            if !key.before(&above) {
                break;
            }
            heap[at] = above;
            pos[above.slot as usize] = at as u32;
            at = parent;
        }
        heap[at] = key;
        pos[key.slot as usize] = at as u32;
    }

    /// Move the key at `at` down while a child fires before it.
    fn sift_down(&mut self, mut at: usize) {
        let (heap, pos) = (&mut self.heap[..], &mut self.pos[..]);
        let key = heap[at];
        loop {
            let mut child = 2 * at + 1;
            if child >= heap.len() {
                break;
            }
            if child + 1 < heap.len() && heap[child + 1].before(&heap[child]) {
                child += 1;
            }
            let below = heap[child];
            if !below.before(&key) {
                break;
            }
            heap[at] = below;
            pos[below.slot as usize] = at as u32;
            at = child;
        }
        heap[at] = key;
        pos[key.slot as usize] = at as u32;
    }

    /// Move the hole at `at` down to a leaf, always into the earlier
    /// child's place; returns the leaf position. The caller fills it.
    fn sink_hole(&mut self, mut at: usize) -> usize {
        let (heap, pos) = (&mut self.heap[..], &mut self.pos[..]);
        loop {
            let mut child = 2 * at + 1;
            if child >= heap.len() {
                return at;
            }
            if child + 1 < heap.len() && heap[child + 1].before(&heap[child]) {
                child += 1;
            }
            let below = heap[child];
            heap[at] = below;
            pos[below.slot as usize] = at as u32;
            at = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    /// Firing time of the earliest pending event.
    fn peek_time<E>(q: &EventQueue<E>) -> Option<SimTime> {
        q.heap.first().map(|key| key.at)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule(SimTime::from_millis(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn a_cancelled_event_never_fires_and_its_stale_id_matches_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        let b = q.schedule(SimTime::from_millis(2), "b");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(a), None, "already cancelled");
        // `c` refills the slot `a` left; `a`'s id must not reach it.
        let c = q.schedule(SimTime::from_millis(3), "c");
        assert_eq!(c.slot, a.slot);
        assert_eq!(q.cancel(a), None, "slot reused");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
        assert_eq!(q.cancel(b), None, "already popped");
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Pop,
        /// Cancel the id of the n-th event ever scheduled (modulo the
        /// count): pending, popped, cancelled or cleared alike.
        Cancel(usize),
        Clear,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::strategy::Strategy;
        // More schedules than pops or cancels so the queue gets deep, a
        // rare clear, and few distinct times so ties — the FIFO rule — are
        // the common case.
        (0u32..50, 0u64..8, 0usize..1_000).prop_map(|(kind, at, nth)| match kind {
            0 => Op::Clear,
            1..=15 => Op::Pop,
            16..=25 => Op::Cancel(nth),
            _ => Op::Schedule(at),
        })
    }

    proptest::proptest! {
        /// Against the definition: pending events as a list, popped by a
        /// stable minimum over `at` (the first of the earliest), and a
        /// cancel removing exactly the named event while it is pending.
        #[test]
        fn any_interleaving_pops_in_stable_time_order_and_reuses_slots(
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            // Every id ever handed out, by the `id` of its event.
            let mut ids: Vec<(usize, EventId)> = Vec::new();
            let mut most_pending = 0;
            for (id, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Schedule(at) => {
                        ids.push((id, q.schedule(SimTime::from_nanos(at), id)));
                        model.push((at, id));
                    }
                    Op::Pop => {
                        let first = model.iter().map(|&(at, _)| at).min().map(|earliest| {
                            let i = model.iter().position(|&(at, _)| at == earliest).unwrap();
                            model.remove(i)
                        });
                        proptest::prop_assert_eq!(
                            q.pop(),
                            first.map(|(at, id)| (SimTime::from_nanos(at), id))
                        );
                    }
                    Op::Cancel(nth) if !ids.is_empty() => {
                        let (event, handle) = ids[nth % ids.len()];
                        let pending = model.iter().position(|&(_, id)| id == event);
                        let want = pending.map(|i| model.remove(i).1);
                        proptest::prop_assert_eq!(q.cancel(handle), want);
                    }
                    Op::Cancel(_) => {}
                    Op::Clear => {
                        q.clear();
                        model.clear();
                        most_pending = 0;
                    }
                }
                most_pending = most_pending.max(model.len());
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert_eq!(q.is_empty(), model.is_empty());
                proptest::prop_assert_eq!(
                    peek_time(&q),
                    model.iter().map(|&(at, _)| SimTime::from_nanos(at)).min()
                );
                // Every key's slot knows where the key is.
                for (pos, key) in q.heap.iter().enumerate() {
                    proptest::prop_assert_eq!(q.pos[key.slot as usize] as usize, pos);
                }
                // The slab is as long as the most events ever pending at
                // once (since the last clear): vacated slots are refilled
                // before it grows.
                proptest::prop_assert_eq!(q.slots.len(), most_pending);
                proptest::prop_assert_eq!(q.free.len(), most_pending - model.len());
            }
        }
    }
}
