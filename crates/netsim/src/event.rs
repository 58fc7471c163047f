//! The simulator's event queue.
//!
//! Orders events by firing time and breaks ties by insertion order, so that
//! two events scheduled for the same instant fire in the order they were
//! scheduled (stable FIFO). Stability is what makes simulation runs
//! reproducible independent of heap internals.
//!
//! The binary heap holds only a 24-byte key per event — `(at, seq, slot)` —
//! while the events themselves sit still in a slab: a sift moves keys, never
//! a message (the simulator's event with its key is 144 bytes, and a cluster
//! run keeps ≈ 2 000 pending). A popped event's slot goes on a free list and
//! is the next one filled, so the slab is as long as the most events ever
//! pending at once, not as long as the run.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the heap orders: firing time, then insertion order. `seq` is unique,
/// so `slot` — where the event waits in the slab — never decides.
type Key = (SimTime, u64, u32);

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    /// Min-heap of keys (`BinaryHeap` is a max-heap, hence `Reverse`).
    heap: BinaryHeap<Reverse<Key>>,
    /// Pending events by slot; `None` marks a slot on the free list.
    slots: Vec<Option<E>>,
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
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` events are pending at once.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("over u32::MAX pending events");
                self.slots.push(Some(event));
                slot
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Pop the earliest event, if any, returning its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slots[slot as usize]
            .take()
            .expect("a key in the heap names a filled slot");
        self.free.push(slot);
        Some((at, event))
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
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
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

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
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(9), ());
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Pop,
        Clear,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::strategy::Strategy;
        // More schedules than pops so the queue gets deep, a rare clear, and
        // few distinct times so ties — the FIFO rule — are the common case.
        (0u32..40, 0u64..8).prop_map(|(kind, at)| match kind {
            0 => Op::Clear,
            1..=15 => Op::Pop,
            _ => Op::Schedule(at),
        })
    }

    proptest::proptest! {
        /// Against the definition: pending events as a list, popped by a
        /// stable minimum over `at` (the first of the earliest).
        #[test]
        fn any_interleaving_pops_in_stable_time_order_and_reuses_slots(
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            let mut most_pending = 0;
            for (id, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Schedule(at) => {
                        q.schedule(SimTime::from_nanos(at), id);
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
                    q.peek_time(),
                    model.iter().map(|&(at, _)| SimTime::from_nanos(at)).min()
                );
                // The slab is as long as the most events ever pending at
                // once (since the last clear): vacated slots are refilled
                // before it grows.
                proptest::prop_assert_eq!(q.slots.len(), most_pending);
                proptest::prop_assert_eq!(q.free.len(), most_pending - model.len());
            }
        }
    }
}
