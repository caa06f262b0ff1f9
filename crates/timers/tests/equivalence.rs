//! Property test: the hierarchical timing wheel and the sorted-list
//! baseline are observationally equivalent under arbitrary interleavings
//! of start / stop / advance — the wheel is an optimization, never a
//! semantic change.

use proptest::prelude::*;

use unp_timers::{SortedTimerList, TimerId, TimerService, TimerWheel};

#[derive(Debug, Clone)]
enum Op {
    Start { delay: u64 },
    StopNth(usize),
    Advance { by: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..5_000_000_000).prop_map(|delay| Op::Start { delay }),
        any::<usize>().prop_map(Op::StopNth),
        (1u64..2_000_000_000).prop_map(|by| Op::Advance { by }),
    ]
}

/// Delays within a few base ticks (2^20 ns) and on a coarse grid, so
/// deadlines tie, share a level-0 slot, and advances end mid-tick: the
/// cases where an earliest-deadline index can disagree with the slots.
/// Stops are weighted up so the earliest timer is often the one stopped.
fn arb_narrow_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..16).prop_map(|k| Op::Start { delay: k * 500_000 }),
        any::<usize>().prop_map(Op::StopNth),
        any::<usize>().prop_map(Op::StopNth),
        (1u64..8).prop_map(|k| Op::Advance { by: k * 300_000 }),
    ]
}

fn check_equivalent(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut wheel: TimerWheel<u64> = TimerWheel::new(0);
    let mut list: SortedTimerList<u64> = SortedTimerList::new();
    let mut now = 0u64;
    let mut token = 0u64;
    let mut live: Vec<(TimerId, TimerId)> = Vec::new();

    for op in ops {
        match op {
            Op::Start { delay } => {
                let deadline = now + delay;
                let wid = wheel.start(deadline, token);
                let lid = list.start(deadline, token);
                live.push((wid, lid));
                token += 1;
            }
            Op::StopNth(n) => {
                if live.is_empty() {
                    continue;
                }
                let (wid, lid) = live.remove(n % live.len());
                let a = wheel.stop(wid);
                let b = list.stop(lid);
                prop_assert_eq!(a, b, "stop results diverged");
            }
            Op::Advance { by } => {
                now += by;
                let mut fw = Vec::new();
                let mut fl = Vec::new();
                wheel.advance(now, &mut fw);
                list.advance(now, &mut fl);
                prop_assert_eq!(&fw, &fl, "fired sets diverged at t={}", now);
                // Fired ids stay in `live`: stopping one returns `None` from
                // both services, which the `StopNth` branch asserts.
            }
        }
        prop_assert_eq!(wheel.pending(), list.pending(), "pending diverged");
        prop_assert_eq!(
            wheel.next_deadline(),
            list.next_deadline(),
            "next deadline diverged"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_equals_sorted_list(ops in proptest::collection::vec(arb_op(), 1..80)) {
        check_equivalent(ops)?;
    }

    #[test]
    fn wheel_equals_sorted_list_narrow_delays(
        ops in proptest::collection::vec(arb_narrow_op(), 1..120)
    ) {
        check_equivalent(ops)?;
    }
}
