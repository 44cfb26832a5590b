//! The event queue driving a simulation run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for a point in simulated time.
///
/// `seq` is signed so windowed replays can stamp entries senior to every
/// pending event (see [`EventQueue::next_seq`]).
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: i64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break on the sequence number, preserving FIFO scheduling order,
        // which keeps runs deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timestamped events.
///
/// Events pop in timestamp order; events scheduled for the same instant pop
/// in the order they were pushed (FIFO). The queue also tracks the current
/// simulation time: popping an event advances `now` to the event's timestamp.
///
/// # Examples
///
/// ```
/// use tashkent_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "sooner")));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: i64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Returns the current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the event is
    /// clamped to fire at the current time instead so simulated time never
    /// runs backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedules `event` to fire `delay_us` microseconds from now.
    pub fn schedule_after(&mut self, delay_us: u64, event: E) {
        self.schedule(self.now + delay_us, event);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Returns the next event's `(timestamp, sequence)` without popping it.
    ///
    /// Part of the windowed-lookahead interface: a replaying driver compares
    /// the head's sequence against the generation stamps of window entries
    /// to interleave both streams exactly as the sequential pop order would.
    pub fn peek_key(&self) -> Option<(SimTime, i64)> {
        self.heap.peek().map(|s| (s.at, s.seq))
    }

    /// The sequence number the next [`EventQueue::schedule`] will consume.
    ///
    /// Part of the windowed-lookahead interface: stamping a window-generated
    /// entry with `next_seq()` at its generation instant records where the
    /// sequential execution would have inserted it, so same-instant ties
    /// against events scheduled *during* the replay resolve exactly as they
    /// would sequentially (the entry is senior to every event scheduled at
    /// or after its stamp).
    pub fn next_seq(&self) -> i64 {
        self.next_seq
    }

    /// Returns the next event (timestamp and a borrow) without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|s| (s.at, &s.event))
    }

    /// Pops the earliest event only when `accept` approves it, **without
    /// advancing the clock**.
    ///
    /// This is half of the windowed-lookahead interface: a driver that
    /// executes a batch of events concurrently pops the batch with `pop_if`
    /// (so `now` stays at the window start), processes each event logically
    /// at its own timestamp, and re-inserts the events the batch produced
    /// with [`EventQueue::merge`]. Events the predicate rejects stay queued
    /// and bound the window.
    pub fn pop_if(&mut self, accept: impl FnOnce(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        let head = self.heap.peek()?;
        if !accept(head.at, &head.event) {
            return None;
        }
        let s = self.heap.pop().expect("peeked event vanished");
        Some((s.at, s.event))
    }

    /// Merges an event produced by windowed lookahead execution back into
    /// the queue at absolute time `at`.
    ///
    /// The other half of the windowed interface: events generated while a
    /// window executed off-queue re-enter here, **in the order the
    /// sequential execution would have inserted them**, so same-timestamp
    /// ties keep popping in sequential FIFO order. `at` must not precede the
    /// window start (the clock), which holds by construction because every
    /// merged event carries a timestamp at or after its source event.
    pub fn merge(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "windowed merge scheduled into the past: {at:?} < {:?}",
            self.now
        );
        self.schedule(at, event);
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "a");
        q.pop();
        // Scheduling before `now` must not rewind the clock.
        q.schedule(SimTime::from_micros(3), "late");
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(at, SimTime::from_micros(10));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 0);
        q.pop();
        q.schedule_after(7, 1);
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_micros(17));
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.peek(), Some((SimTime::from_micros(9), &())));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn pop_if_respects_predicate_and_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "a");
        q.schedule(SimTime::from_micros(9), "b");
        // Rejected: stays queued.
        assert_eq!(q.pop_if(|_, e| *e == "b"), None);
        assert_eq!(q.len(), 2);
        // Accepted: popped, but the clock does not advance.
        assert_eq!(
            q.pop_if(|_, e| *e == "a"),
            Some((SimTime::from_micros(5), "a"))
        );
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(
            q.pop_if(|t, _| t <= SimTime::from_micros(9)),
            Some((SimTime::from_micros(9), "b"))
        );
        assert_eq!(q.pop_if(|_, _| true), None);
    }

    #[test]
    fn next_seq_and_peek_key_expose_the_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(9);
        // A windowed replay stamps an entry with next_seq() at generation:
        // the entry is senior to everything scheduled at or after the stamp.
        let stamp = q.next_seq();
        q.schedule(t, "later");
        let (at, seq) = q.peek_key().expect("event pending");
        assert_eq!(at, t);
        assert!(stamp <= seq, "stamped entry is senior to the new event");
        assert_eq!(q.next_seq(), seq + 1);
    }

    #[test]
    fn merge_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        q.schedule(t, 0);
        // A windowed driver merging events in sequential insertion order
        // keeps the tie-break: pre-existing events pop first, then merged
        // events in merge order.
        q.merge(t, 1);
        q.merge(t, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
