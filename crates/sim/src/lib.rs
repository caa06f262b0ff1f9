//! `unp-sim` — a deterministic discrete-event simulation engine.
//!
//! The SIGCOMM '93 paper's results were measured on DECstation 5000/200
//! workstations (25 MHz R3000) running Ultrix 4.2A or Mach 3.0, attached to
//! 10 Mb/s Ethernet and the 100 Mb/s DEC SRC AN1. That testbed is
//! unobtainable, so the reproduction executes the *real* protocol code on a
//! virtual clock: every structural operation the paper charges for — traps,
//! Mach IPCs, context switches, semaphore signals, data copies, checksums,
//! filter interpretation, DMA setup — is billed to a per-host CPU model
//! using the calibrated [`costs::CostModel`].
//!
//! The engine is single-threaded and fully deterministic: events at equal
//! times fire in schedule order, and all randomness flows through seeded
//! RNGs owned by the world.

pub mod costs;
pub mod cpu;

pub use costs::{CostModel, DemuxPath, LinkParams};
pub use cpu::Cpu;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in nanoseconds since world start.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECONDS: Nanos = 1_000_000_000;

thread_local! {
    static EVENTS_EXECUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Events executed by every engine on this thread since the last
/// [`reset_events_executed`]. The per-engine [`Engine::executed`] counter
/// dies with its engine; experiment runners build engines internally, so
/// `repro-tables --timings` reads this aggregate instead.
pub fn events_executed() -> u64 {
    EVENTS_EXECUTED.with(|c| c.get())
}

/// Resets the thread-wide executed-event counter.
pub fn reset_events_executed() {
    EVENTS_EXECUTED.with(|c| c.set(0));
}

/// Identifier of a scheduled event, usable for cancellation: the slab slot
/// the event occupies and the schedule sequence number it was given. A
/// slot is reused once its event runs or is cancelled, so the sequence
/// number tells a stale id from the slot's current event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// One slab slot: the sequence number of the event it last held, and that
/// event's closure while it is still pending.
struct Slot<W> {
    seq: u64,
    f: Option<EventFn<W>>,
}

impl<W> Slot<W> {
    /// True while the event scheduled with `seq` is pending in this slot.
    fn holds(&self, seq: u64) -> bool {
        self.seq == seq && self.f.is_some()
    }
}

/// A discrete-event engine generic over the world type `W`.
///
/// Closures scheduled on the engine receive `(&mut W, &mut Engine<W>)` so
/// they can mutate the world and schedule follow-up events.
///
/// Pending closures live in a slab indexed by [`EventId`] with a free list
/// of vacated slots, so scheduling, cancelling and running an event each
/// cost one slot access plus the heap operation, with no hashing.
pub struct Engine<W> {
    now: Nanos,
    seq: u64,
    /// `(time, seq, slot)`: ordered by time, then schedule order.
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    slots: Vec<Slot<W>>,
    /// Slots whose event has run or been cancelled, ready for reuse;
    /// every other slot holds a pending event.
    free: Vec<u32>,
    executed: u64,
    /// Heap entries whose event has been cancelled but not yet popped.
    tombstones: usize,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Engine<W> {
        Engine {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            executed: 0,
            tombstones: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently scheduled.
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of entries in the internal time heap, live and tombstoned.
    /// Exposed so tests can assert the heap stays bounded under mass
    /// cancellation.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `f` to run at absolute time `time` (clamped to `now`).
    pub fn at<F>(&mut self, time: Nanos, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let f: Option<EventFn<W>> = Some(Box::new(f));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot { seq, f };
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(Slot { seq, f });
                slot
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
        EventId { slot, seq }
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn after<F>(&mut self, delay: Nanos, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.at(self.now + delay, f)
    }

    /// Takes the closure of the event `(slot, seq)` out of its slot and
    /// frees the slot, if that event is still pending there.
    fn take(&mut self, slot: u32, seq: u64) -> Option<EventFn<W>> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.seq != seq {
            return None;
        }
        let f = s.f.take()?;
        self.free.push(slot);
        Some(f)
    }

    /// Cancels a scheduled event. Returns true if it had not yet run.
    /// An id whose event already ran or was cancelled returns false, even
    /// after its slot holds a newer event, which it leaves alone.
    ///
    /// Cancellation is a tombstone: the closure is dropped and its slot
    /// freed immediately, but the `(time, seq, slot)` entry stays in the
    /// heap until popped, when the slot's sequence number no longer
    /// matches. When tombstones outnumber live events the heap is
    /// compacted in place, so a workload that schedules and cancels many
    /// timers (e.g. TCP retransmission timers answered by ACKs) keeps the
    /// heap at O(live) rather than O(ever scheduled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.take(id.slot, id.seq).is_some();
        if cancelled {
            self.tombstones += 1;
            self.maybe_compact();
        }
        cancelled
    }

    /// Rebuilds the heap without tombstoned entries (those whose slot no
    /// longer holds their event) once they dominate. The `> 64` floor
    /// keeps small heaps from compacting on every other cancel, where the
    /// O(n) rebuild would cost more than the garbage.
    fn maybe_compact(&mut self) {
        if self.tombstones > 64 && self.tombstones > self.pending() {
            let slots = &self.slots;
            self.heap
                .retain(|&Reverse((_, seq, slot))| slots[slot as usize].holds(seq));
            self.tombstones = 0;
        }
    }

    /// Runs the next event, if any. Returns false when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(Reverse((time, seq, slot))) = self.heap.pop() {
            if let Some(f) = self.take(slot, seq) {
                self.now = time;
                unp_trace::set_time(time);
                self.executed += 1;
                EVENTS_EXECUTED.with(|c| c.set(c.get() + 1));
                f(world, self);
                return true;
            }
            // Cancelled entry: skip.
            self.tombstones = self.tombstones.saturating_sub(1);
        }
        false
    }

    /// Runs events until the queue empties or `limit` events have executed.
    /// Returns true if the queue drained.
    pub fn run(&mut self, world: &mut W, limit: u64) -> bool {
        for _ in 0..limit {
            if !self.step(world) {
                return true;
            }
        }
        self.heap.is_empty()
    }

    /// Runs events with times `<= deadline`. Events scheduled later remain
    /// queued. Advances `now` to `deadline` if the queue drains earlier.
    pub fn run_until(&mut self, world: &mut W, deadline: Nanos) {
        loop {
            // Peek at the next *live* event time.
            let next = loop {
                match self.heap.peek() {
                    Some(&Reverse((t, seq, slot))) => {
                        if self.slots[slot as usize].holds(seq) {
                            break Some(t);
                        }
                        self.heap.pop();
                        self.tombstones = self.tombstones.saturating_sub(1);
                    }
                    None => break None,
                }
            };
            match next {
                Some(t) if t <= deadline => {
                    self.step(world);
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
        unp_trace::set_time(self.now);
    }
}

/// Formats a nanosecond duration in engineering units for reports.
pub fn fmt_nanos(n: Nanos) -> String {
    if n >= SECONDS {
        format!("{:.3} s", n as f64 / SECONDS as f64)
    } else if n >= MILLIS {
        format!("{:.3} ms", n as f64 / MILLIS as f64)
    } else if n >= MICROS {
        format!("{:.3} us", n as f64 / MICROS as f64)
    } else {
        format!("{n} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(Nanos, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(300, |w, e| w.log.push((e.now(), "c")));
        eng.at(100, |w, e| w.log.push((e.now(), "a")));
        eng.at(200, |w, e| w.log.push((e.now(), "b")));
        assert!(eng.run(&mut w, 100));
        assert_eq!(w.log, vec![(100, "a"), (200, "b"), (300, "c")]);
    }

    #[test]
    fn equal_times_run_in_schedule_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(50, |w, _| w.log.push((50, "first")));
        eng.at(50, |w, _| w.log.push((50, "second")));
        eng.run(&mut w, 10);
        assert_eq!(w.log, vec![(50, "first"), (50, "second")]);
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(10, |_, e| {
            e.after(5, |w, e| w.log.push((e.now(), "chained")));
        });
        eng.run(&mut w, 10);
        assert_eq!(w.log, vec![(15, "chained")]);
    }

    #[test]
    fn cancellation() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.at(10, |w, _| w.log.push((10, "never")));
        assert!(eng.cancel(id));
        assert!(!eng.cancel(id));
        eng.run(&mut w, 10);
        assert!(w.log.is_empty());
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(100, |w, e| {
            e.at(5, |w, e| w.log.push((e.now(), "clamped")));
            w.log.push((e.now(), "outer"));
        });
        eng.run(&mut w, 10);
        assert_eq!(w.log, vec![(100, "outer"), (100, "clamped")]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.at(10, |w, _| w.log.push((10, "early")));
        eng.at(1000, |w, _| w.log.push((1000, "late")));
        eng.run_until(&mut w, 500);
        assert_eq!(w.log, vec![(10, "early")]);
        assert_eq!(eng.now(), 500);
        assert_eq!(eng.pending(), 1);
        eng.run_until(&mut w, 2000);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.at(10, |w, _| w.log.push((10, "no")));
        eng.at(20, |w, _| w.log.push((20, "yes")));
        eng.cancel(id);
        eng.run_until(&mut w, 100);
        assert_eq!(w.log, vec![(20, "yes")]);
    }

    #[test]
    fn mass_cancellation_keeps_heap_bounded() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // A retransmission-timer-like workload: schedule a timer, then
        // cancel it before it fires, thousands of times, with a handful of
        // long-lived events outstanding the whole time.
        for i in 0..8 {
            eng.at(1_000_000 + i, |w, e| w.log.push((e.now(), "keeper")));
        }
        for round in 0..10_000u64 {
            let id = eng.at(500_000 + round, |w, _| w.log.push((0, "never")));
            assert!(eng.cancel(id));
            // Without compaction the heap would hold every tombstone ever
            // scheduled (~round entries). With it, the heap stays at
            // O(live + compaction floor).
            assert!(
                eng.heap_len() <= eng.pending() + 130,
                "heap grew unbounded: {} entries with {} live at round {round}",
                eng.heap_len(),
                eng.pending()
            );
        }
        assert_eq!(eng.pending(), 8);
        // The survivors still fire, in order.
        assert!(eng.run(&mut w, 100));
        assert_eq!(w.log.len(), 8);
        assert!(w.log.iter().all(|(_, tag)| *tag == "keeper"));
    }

    #[test]
    fn compaction_preserves_cancel_then_run_semantics() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // Interleave live and cancelled events across the compaction
        // threshold and check exactly the live ones run, in time order.
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let t = 10 + i;
            let id = eng.at(t, move |w, e| w.log.push((e.now(), "live")));
            if i % 3 != 0 {
                eng.cancel(id);
            } else {
                expect.push(t);
            }
        }
        assert!(eng.run(&mut w, 1_000));
        assert_eq!(
            w.log.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            expect,
            "live events must be unaffected by compaction"
        );
    }

    #[test]
    fn stale_ids_never_cancel_a_reused_slot() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // A cancelled id: its slot is reused by the next schedule.
        let cancelled = eng.at(10, |w, _| w.log.push((10, "cancelled")));
        assert!(eng.cancel(cancelled));
        let reuse1 = eng.at(20, |w, _| w.log.push((20, "reuse1")));
        assert_eq!(reuse1.slot, cancelled.slot, "slot must be recycled");
        assert!(!eng.cancel(cancelled), "stale cancelled id");
        assert_eq!(eng.pending(), 1);
        // A fired id: its slot is reused by an event scheduled afterwards.
        eng.run_until(&mut w, 20);
        let reuse2 = eng.at(30, |w, _| w.log.push((30, "reuse2")));
        assert_eq!(reuse2.slot, reuse1.slot, "slot must be recycled");
        assert!(!eng.cancel(reuse1), "stale fired id");
        assert!(eng.run(&mut w, 10));
        assert_eq!(w.log, vec![(20, "reuse1"), (30, "reuse2")]);
        assert!(!eng.cancel(reuse2));
    }

    #[test]
    fn equal_times_stay_fifo_across_slot_reuse() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        // Fill slots 0..4, free them out of order, then schedule at one
        // time: the recycled slots come back in a different order than the
        // events were scheduled, and the events must still run FIFO.
        let ids: Vec<_> = (0..4).map(|_| eng.at(5, |_, _| {})).collect();
        for &i in &[1, 3, 0, 2] {
            assert!(eng.cancel(ids[i]));
        }
        let names = ["a", "b", "c", "d", "e", "f"];
        for name in names {
            eng.at(50, move |w, _| w.log.push((50, name)));
        }
        assert!(eng.run(&mut w, 100));
        let order: Vec<_> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(order, names);
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(500), "500 ns");
        assert_eq!(fmt_nanos(1_500), "1.500 us");
        assert_eq!(fmt_nanos(2_500_000), "2.500 ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.000 s");
    }
}
