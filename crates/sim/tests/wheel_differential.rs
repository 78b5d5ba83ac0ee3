//! Differential properties: the wheel-backed [`EventQueue`] must be
//! observationally identical to the reference [`HeapQueue`] — pop
//! sequences (time, then FIFO seq), `QueueStats`, `peek_time`, and
//! lengths all bit-equal under arbitrary push/pop interleavings,
//! including same-timestamp floods and pushes below the cursor horizon.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use densekv_sim::{EventQueue, QueueStats, SimTime};
use proptest::prelude::*;

/// An entry in the reference heap queue: payload `E` due at a time.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap`-backed event queue, the executable
/// specification of [`EventQueue`]: same API, same `(time, FIFO seq)`
/// order, same stats semantics.
struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    peak_len: usize,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            peak_len: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.heap.pop().map(|e| (e.time, e.event));
        if popped.is_some() {
            self.popped += 1;
        }
        popped
    }

    fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.next_seq,
            popped: self.popped,
            peak_len: self.peak_len,
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Drops all pending events and resets the lifetime statistics,
    /// mirroring [`EventQueue::clear`].
    fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.popped = 0;
        self.peak_len = 0;
    }
}

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push at an absolute picosecond timestamp.
    Push(u64),
    /// Push at the last popped time plus a small delta — keeps pushes
    /// clustered just ahead of the cursor, so slot-group carries with
    /// occupied higher-level slots (and pushes landing below freshly
    /// cascaded events) occur routinely.
    PushSoon(u64),
    /// Pop once.
    Pop,
    /// Compare `peek_time`, `len`, and `stats` right here.
    Observe,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Repeated arms approximate weights (the vendored prop_oneof! picks
    // uniformly); timestamps span every wheel tier, including the far
    // overflow and heavy low-bit collisions (same grain).
    prop_oneof![
        (0u64..1 << 40).prop_map(Op::Push),
        (0u64..1 << 40).prop_map(Op::Push),
        (0u64..1 << 18).prop_map(Op::Push),
        (0u64..1 << 18).prop_map(Op::Push),
        (0u64..u64::MAX >> 1).prop_map(Op::Push),
        (0u64..1 << 24).prop_map(Op::PushSoon),
        (0u64..1 << 24).prop_map(Op::PushSoon),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Observe),
    ]
}

/// Runs a script against both queues, comparing every observable.
fn run_script(ops: &[Op]) {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut payload = 0u64;
    let mut last_pop = SimTime::ZERO;
    for op in ops {
        match op {
            Op::Push(t) => {
                let time = SimTime::from_ps(*t);
                wheel.push(time, payload);
                heap.push(time, payload);
                payload += 1;
            }
            Op::PushSoon(delta) => {
                let time = SimTime::from_ps(last_pop.as_ps() + delta);
                wheel.push(time, payload);
                heap.push(time, payload);
                payload += 1;
            }
            Op::Pop => {
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h);
                if let Some((t, _)) = w {
                    last_pop = t;
                }
            }
            Op::Observe => {
                assert_eq!(wheel.peek_time(), heap.peek_time());
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.stats(), heap.stats());
            }
        }
    }
    // Drain both; tails must match exactly, stats included.
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        assert_eq!(wheel.peek_time(), heap.peek_time());
        if w.is_none() {
            break;
        }
    }
    assert_eq!(wheel.stats(), heap.stats());
}

proptest! {
    /// Arbitrary interleavings pop bit-identically from both queues.
    #[test]
    fn wheel_matches_heap_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        run_script(&ops);
    }

    /// Backlog gauges agree after every single operation, so
    /// telemetry's scheduler sampling is truthful under the wheel.
    #[test]
    fn stats_agree_after_every_op(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let observed: Vec<Op> = ops
            .into_iter()
            .flat_map(|op| [op, Op::Observe])
            .collect();
        run_script(&observed);
    }

    /// A flood of ≥1000 events on one timestamp pops strictly FIFO,
    /// interleaved with events on neighboring grains.
    #[test]
    fn same_timestamp_floods_pop_fifo(
        t in 0u64..1 << 40,
        extra in proptest::collection::vec((0u64..1 << 41, 0u64..2), 0..50)
    ) {
        let mut ops: Vec<Op> = (0..1200).map(|_| Op::Push(t)).collect();
        for (time, pop_first) in extra {
            if pop_first == 1 {
                ops.push(Op::Pop);
            }
            ops.push(Op::Push(time));
        }
        run_script(&ops);
    }
}

/// Deterministic regression: a 1000-tie flood plus straddling events,
/// kept out of proptest so the exact case always runs.
#[test]
fn thousand_tie_flood_exact_order() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let tie = SimTime::from_ps(123_456_789);
    for i in 0..1000u64 {
        wheel.push(tie, i);
        heap.push(tie, i);
    }
    wheel.push(SimTime::from_ps(1), 9999);
    heap.push(SimTime::from_ps(1), 9999);
    for i in 1000..1010u64 {
        wheel.push(tie, i);
        heap.push(tie, i);
    }
    let mut popped = 0;
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        if w.is_none() {
            break;
        }
        popped += 1;
    }
    assert_eq!(popped, 1011);
    assert_eq!(wheel.stats(), heap.stats());
    assert_eq!(wheel.stats().peak_len, 1011);
}

/// `clear` returns both queues to a fresh queue's state, stats
/// included, and they keep agreeing afterwards.
#[test]
fn clear_resets_both_queues_to_fresh() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    for i in 0..10u64 {
        wheel.push(SimTime::from_ps(i), i);
        heap.push(SimTime::from_ps(i), i);
    }
    assert_eq!(wheel.pop(), heap.pop());
    wheel.clear();
    heap.clear();
    assert_eq!(heap.stats(), QueueStats::default());
    assert_eq!(wheel.stats(), heap.stats());
    wheel.push(SimTime::from_ps(3), 7);
    heap.push(SimTime::from_ps(3), 7);
    assert_eq!(wheel.pop(), heap.pop());
    assert_eq!(wheel.stats(), heap.stats());
}
