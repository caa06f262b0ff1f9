//! Hierarchical timing wheel (Varghese & Lauck, SOSP '87 — the paper's
//! reference \[25\] for fast timer facilities).
//!
//! Four levels of 64 slots each, with a ~1 ms base tick (2²⁰ ns), cover
//! deadlines up to ≈ 4.9 hours; anything farther sits in an overflow list
//! that is drained as the horizon advances. Slot placement is O(1), and
//! advancing performs amortized O(1) work per tick plus O(k) for the k
//! timers fired or cascaded. Event loops ask for
//! [`TimerService::next_deadline`] after every timer operation to
//! reschedule their wakeup, so a min-heap of `(deadline, id)` beside the
//! slots answers it in O(1): start pushes in O(log n), and stop and
//! advance pop stopped or fired timers only when they reach the top,
//! sweeping the rest once they outnumber the pending ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::{Nanos, TimerId, TimerService};

/// log2 of the base tick in nanoseconds (2²⁰ ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
/// log2 of slots per level.
const SLOT_SHIFT: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_SHIFT;
/// Number of levels.
const LEVELS: usize = 4;

struct Entry<T> {
    deadline: Nanos,
    seq: u64,
    token: T,
}

/// A hierarchical timing wheel. See module docs.
pub struct TimerWheel<T> {
    /// `levels[l][slot]` holds ids of entries expiring in that slot's span.
    levels: Vec<Vec<Vec<u64>>>,
    /// Entries too far out for the top level.
    overflow: Vec<u64>,
    entries: HashMap<u64, Entry<T>>,
    /// Min-heap of `(deadline, id)` over the pending entries. Stopping a
    /// timer leaves its pair behind as stale, but the top is always
    /// pending, so it is the earliest deadline; stale pairs are popped when
    /// they surface and swept once they outnumber the pending ones.
    order: BinaryHeap<Reverse<(Nanos, u64)>>,
    /// Current time, in ticks, already processed.
    current_tick: u64,
    next_id: u64,
    next_seq: u64,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel whose notion of "now" starts at `start` nanoseconds.
    pub fn new(start: Nanos) -> TimerWheel<T> {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            entries: HashMap::new(),
            order: BinaryHeap::new(),
            current_tick: start >> TICK_SHIFT,
            next_id: 0,
            next_seq: 0,
        }
    }

    /// Ticks covered by level `l` (one slot's span is `SLOTS^l` ticks).
    fn level_span_ticks(l: usize) -> u64 {
        1u64 << (SLOT_SHIFT * (l as u32 + 1))
    }

    /// Restores the invariant that the top of `order` is pending after
    /// entries were removed, and sweeps the stale pairs once they
    /// outnumber the pending ones (ids are never reused, so a pair is
    /// stale exactly when its id has no entry).
    fn trim_order(&mut self) {
        while let Some(&Reverse((_, id))) = self.order.peek() {
            if self.entries.contains_key(&id) {
                break;
            }
            self.order.pop();
        }
        if self.order.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.order
                .retain(|Reverse((_, id))| entries.contains_key(id));
        }
    }

    /// Places an entry id into the right slot for its deadline.
    fn place(&mut self, id: u64) {
        let deadline_tick = self.entries[&id].deadline >> TICK_SHIFT;
        let delta = deadline_tick.saturating_sub(self.current_tick);
        for l in 0..LEVELS {
            if delta < Self::level_span_ticks(l) {
                let slot_unit = 1u64 << (SLOT_SHIFT * l as u32);
                let slot = ((deadline_tick / slot_unit) % SLOTS as u64) as usize;
                self.levels[l][slot].push(id);
                return;
            }
        }
        self.overflow.push(id);
    }
}

impl<T> TimerService<T> for TimerWheel<T> {
    fn start(&mut self, deadline: Nanos, token: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            id,
            Entry {
                deadline,
                seq,
                token,
            },
        );
        self.order.push(Reverse((deadline, id)));
        self.place(id);
        TimerId(id)
    }

    fn stop(&mut self, id: TimerId) -> Option<T> {
        // Lazy removal: the slot entry becomes a dead id skipped later.
        let e = self.entries.remove(&id.0)?;
        self.trim_order();
        Some(e.token)
    }

    fn advance(&mut self, now: Nanos, fired: &mut Vec<T>) {
        let target_tick = now >> TICK_SHIFT;
        let mut ripe: Vec<(Nanos, u64, u64)> = Vec::new(); // (deadline, seq, id)

        while self.current_tick <= target_tick {
            let tick = self.current_tick;
            // Cascade coarser levels *before* harvesting level 0, so timers
            // landing on this exact tick reach their level-0 slot in time.
            for l in 1..LEVELS {
                let unit = 1u64 << (SLOT_SHIFT * l as u32);
                if !tick.is_multiple_of(unit) {
                    break;
                }
                let slot = ((tick / unit) % SLOTS as u64) as usize;
                for id in std::mem::take(&mut self.levels[l][slot]) {
                    if self.entries.contains_key(&id) {
                        self.place(id);
                    }
                }
            }
            // Retry overflow placement as the top level's cursor advances.
            let top_unit = 1u64 << (SLOT_SHIFT * (LEVELS as u32 - 1));
            if tick.is_multiple_of(top_unit) && !self.overflow.is_empty() {
                for id in std::mem::take(&mut self.overflow) {
                    if self.entries.contains_key(&id) {
                        self.place(id);
                    }
                }
            }
            // Harvest the level-0 slot for this tick.
            let slot0 = (tick % SLOTS as u64) as usize;
            if tick < target_tick {
                // The whole tick has elapsed: everything in it is ripe.
                for id in std::mem::take(&mut self.levels[0][slot0]) {
                    if let Some(e) = self.entries.get(&id) {
                        ripe.push((e.deadline, e.seq, id));
                    }
                }
                self.current_tick += 1;
            } else {
                // Partial tick: fire only sub-tick deadlines `<= now`; the
                // rest stay in the slot for a later advance. Leave
                // `current_tick` at `target_tick` so the slot (and, on a
                // boundary, the already-emptied cascade slots) are
                // revisited then.
                let entries = &self.entries;
                let slot = &mut self.levels[0][slot0];
                slot.retain(|id| match entries.get(id) {
                    Some(e) if e.deadline <= now => {
                        ripe.push((e.deadline, e.seq, *id));
                        false
                    }
                    Some(_) => true,
                    None => false, // stopped: drop the dead id
                });
                break;
            }
        }
        self.current_tick = self.current_tick.max(target_tick);

        // Level-0 placement is per-tick, but within a tick entries may have
        // sub-tick deadline differences; sort for deterministic fire order.
        ripe.sort_unstable_by_key(|&(d, s, _)| (d, s));
        for (_, _, id) in ripe {
            if let Some(e) = self.entries.remove(&id) {
                fired.push(e.token);
            }
        }
        self.trim_order();
    }

    fn next_deadline(&self) -> Option<Nanos> {
        self.order.peek().map(|&Reverse((deadline, _))| deadline)
    }

    fn pending(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_exact_tick_boundaries() {
        let mut w: TimerWheel<&str> = TimerWheel::new(0);
        w.start(1 << TICK_SHIFT, "a");
        let mut fired = Vec::new();
        w.advance((1 << TICK_SHIFT) - 1, &mut fired);
        assert!(fired.is_empty(), "must not fire early");
        w.advance(1 << TICK_SHIFT, &mut fired);
        assert_eq!(fired, vec!["a"]);
    }

    #[test]
    fn long_deadline_cascades_correctly() {
        // A deadline far beyond level 0: 1000 ticks out lives in level 1+.
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let deadline = 1000u64 << TICK_SHIFT;
        w.start(deadline, 42);
        let mut fired = Vec::new();
        w.advance(deadline - (1 << TICK_SHIFT), &mut fired);
        assert!(fired.is_empty());
        w.advance(deadline, &mut fired);
        assert_eq!(fired, vec![42]);
    }

    #[test]
    fn overflow_deadline_eventually_fires() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        // Beyond LEVELS*6 bits of ticks: > 2^24 ticks.
        let deadline = (1u64 << 25) << TICK_SHIFT;
        w.start(deadline, 7);
        let mut fired = Vec::new();
        w.advance(deadline, &mut fired);
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn stopped_timers_leave_no_residue() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let ids: Vec<_> = (0..100)
            .map(|i| w.start((i + 1) << TICK_SHIFT, i as u32))
            .collect();
        for id in &ids {
            assert!(w.stop(*id).is_some());
        }
        assert_eq!(w.pending(), 0);
        let mut fired = Vec::new();
        w.advance(200 << TICK_SHIFT, &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn many_timers_fire_in_deadline_order() {
        let mut w: TimerWheel<u64> = TimerWheel::new(0);
        // Insert in reverse.
        for i in (0..500u64).rev() {
            w.start((i + 1) * 777_000, i);
        }
        let mut fired = Vec::new();
        w.advance(501 * 777_000, &mut fired);
        let expect: Vec<u64> = (0..500).collect();
        assert_eq!(fired, expect);
    }

    #[test]
    fn wheel_started_at_nonzero_time() {
        let start = 123_456_789_000;
        let mut w: TimerWheel<&str> = TimerWheel::new(start);
        w.start(start + 5_000_000, "x");
        let mut fired = Vec::new();
        w.advance(start + 10_000_000, &mut fired);
        assert_eq!(fired, vec!["x"]);
    }

    #[test]
    fn restart_pattern_retransmission_style() {
        // TCP restarts its retransmit timer constantly; stop+start must not
        // leak or misfire.
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        let mut id = w.start(10 << TICK_SHIFT, 1);
        for i in 0..50u64 {
            assert!(w.stop(id).is_some());
            id = w.start((20 + i) << TICK_SHIFT, 1);
        }
        assert_eq!(w.pending(), 1);
        let mut fired = Vec::new();
        w.advance(100 << TICK_SHIFT, &mut fired);
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn next_deadline_tracks_stops_ties_and_partial_ticks() {
        let tick = 1u64 << TICK_SHIFT;
        let mut w: TimerWheel<&str> = TimerWheel::new(0);
        let a = w.start(5 * tick, "a");
        let b = w.start(5 * tick, "b"); // tied with `a`
        w.start(5 * tick + 10, "c"); // same tick, later sub-tick deadline
        w.start(9 * tick, "d");
        assert_eq!(w.next_deadline(), Some(5 * tick));
        // Stopping one of two tied earliest timers keeps the deadline.
        assert_eq!(w.stop(a), Some("a"));
        assert_eq!(w.next_deadline(), Some(5 * tick));
        // Stopping the last timer at the earliest deadline moves it on.
        assert_eq!(w.stop(b), Some("b"));
        assert_eq!(w.next_deadline(), Some(5 * tick + 10));
        let b2 = w.start(5 * tick + 5, "b2");
        assert_eq!(w.next_deadline(), Some(5 * tick + 5));
        // A partial-tick advance fires only the sub-tick deadlines `<= now`
        // and leaves the rest of the slot as the next deadline.
        let mut fired = Vec::new();
        w.advance(5 * tick + 7, &mut fired);
        assert_eq!(fired, vec!["b2"]);
        assert_eq!(w.stop(b2), None);
        assert_eq!(w.next_deadline(), Some(5 * tick + 10));
        w.advance(5 * tick + 10, &mut fired);
        assert_eq!(fired, vec!["b2", "c"]);
        assert_eq!(w.next_deadline(), Some(9 * tick));
        w.advance(9 * tick, &mut fired);
        assert_eq!(w.next_deadline(), None);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn sweeping_stopped_timers_keeps_the_pending_ones() {
        // Stop every timer but each tenth, latest first, so the stopped
        // ones never reach the heap top and pile up until swept.
        let mut w: TimerWheel<u64> = TimerWheel::new(0);
        let ids: Vec<_> = (0..300u64).map(|i| w.start((i + 1) * 1_000, i)).collect();
        for (i, id) in ids.iter().enumerate().rev() {
            if i % 10 != 0 {
                assert_eq!(w.stop(*id), Some(i as u64));
            }
        }
        assert!(w.order.len() < 300, "stopped timers were never swept");
        assert_eq!(w.pending(), 30);
        assert_eq!(w.next_deadline(), Some(1_000));
        let mut fired = Vec::new();
        w.advance(300_000, &mut fired);
        assert_eq!(fired, (0..300).step_by(10).collect::<Vec<u64>>());
        assert_eq!(w.next_deadline(), None);
    }
}
