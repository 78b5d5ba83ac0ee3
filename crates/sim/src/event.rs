//! Deterministic discrete-event queue and scheduler.
//!
//! Events are ordered by time, with ties broken by insertion sequence so
//! the simulation is fully deterministic regardless of queue internals.
//!
//! [`EventQueue`] is backed by the hierarchical timer wheel
//! ([`crate::wheel::TimerWheel`]): amortized O(1) push/pop with
//! slab-stored payloads. The original binary-heap queue lives on as the
//! executable specification in `tests/wheel_differential.rs`, whose
//! property tests drive both with the same workload and require
//! bit-identical pop sequences, stats, and peeks.

use crate::time::{Duration, SimTime};
use crate::wheel::TimerWheel;

/// Lifetime statistics of an [`EventQueue`] — the scheduler-side gauges
/// the telemetry layer snapshots (event backlog, churn).
///
/// [`EventQueue::clear`] resets these to a fresh queue's values; a
/// queue that should keep lifetime churn across epochs must accumulate
/// the stats before clearing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Events popped over the queue's lifetime.
    pub popped: u64,
    /// Largest backlog ever observed.
    pub peak_len: usize,
}

/// A time-ordered queue of events.
///
/// Ties at the same timestamp pop in insertion order (FIFO), which keeps
/// multi-component simulations deterministic.
///
/// # Examples
///
/// ```
/// use densekv_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ps(20), "late");
/// q.push(SimTime::from_ps(10), "early");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.wheel.push(time, event);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel.pop()
    }

    /// Lifetime push/pop/backlog statistics ([`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.wheel.pushed(),
            popped: self.wheel.popped(),
            peak_len: self.wheel.peak_len(),
        }
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Drops all pending events and resets the lifetime statistics, so
    /// the queue is indistinguishable from a fresh one (allocated
    /// capacity is kept for reuse).
    pub fn clear(&mut self) {
        self.wheel.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// An [`EventQueue`] paired with a running clock.
///
/// [`Scheduler::pop`] advances the clock to the popped event's timestamp;
/// [`Scheduler::schedule_in`] schedules relative to the current clock.
///
/// # Examples
///
/// ```
/// use densekv_sim::{Duration, Scheduler};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_in(Duration::from_nanos(100), "a");
/// sched.schedule_in(Duration::from_nanos(50), "b");
/// let order: Vec<_> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!["b", "a"]);
/// assert_eq!(sched.now().elapsed_since(densekv_sim::SimTime::ZERO),
///            Duration::from_nanos(100));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler at the epoch with no pending events.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={} ps, requested={} ps",
            self.now.as_ps(),
            time.as_ps(),
        );
        self.queue.push(time, event);
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        self.now = time;
        Some((time, event))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Lifetime push/pop/backlog statistics of the underlying queue.
    pub fn stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Drops all pending events and resets the queue statistics — like
    /// [`EventQueue::clear`] — without rewinding the clock, so a reused
    /// scheduler keeps monotone time.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(30), 3);
        q.push(SimTime::from_ps(10), 1);
        q.push(SimTime::from_ps(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ps(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn scheduler_advances_clock() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), "x");
        s.schedule_in(Duration::from_nanos(20), "y");
        assert_eq!(s.pending(), 2);
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, "x");
        assert_eq!(t, s.now());
        // Relative scheduling now uses the advanced clock.
        s.schedule_in(Duration::from_nanos(5), "z");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "z");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "y");
        assert!(s.is_idle());
    }

    #[test]
    fn stats_track_churn_and_peak_backlog() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        for i in 0..5u64 {
            q.push(SimTime::from_ps(i), i);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_ps(99), 99);
        let stats = q.stats();
        assert_eq!(stats.pushed, 6);
        assert_eq!(stats.popped, 2);
        assert_eq!(stats.peak_len, 5);
        // Draining past empty doesn't over-count pops.
        while q.pop().is_some() {}
        q.pop();
        assert_eq!(q.stats().popped, 6);

        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(1), ());
        s.pop();
        assert_eq!(s.stats().pushed, 1);
        assert_eq!(s.stats().popped, 1);
    }

    #[test]
    fn clear_resets_stats_to_fresh() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_ps(i), i);
        }
        q.pop();
        q.clear();
        assert_eq!(q.stats(), QueueStats::default());
        assert!(q.is_empty());
        // The cleared queue behaves exactly like a fresh one.
        q.push(SimTime::from_ps(3), 7);
        assert_eq!(q.stats().pushed, 1);
        assert_eq!(q.pop(), Some((SimTime::from_ps(3), 7)));
    }

    #[test]
    fn scheduler_clear_drops_events_but_keeps_now() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), 1);
        s.schedule_in(Duration::from_nanos(20), 2);
        s.pop();
        let now = s.now();
        s.clear();
        assert!(s.is_idle());
        assert_eq!(s.stats(), QueueStats::default());
        assert_eq!(s.now(), now, "clear must not rewind the clock");
        // Scheduling keeps working relative to the preserved clock.
        s.schedule_in(Duration::from_nanos(5), 3);
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, 3);
        assert_eq!(t, now + Duration::from_nanos(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_ps(1), ());
    }

    #[test]
    fn past_panic_message_names_both_timestamps() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), ());
        s.pop();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_at(SimTime::from_ps(1), ());
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("now=10000 ps"), "message was: {msg}");
        assert!(msg.contains("requested=1 ps"), "message was: {msg}");
    }
}
