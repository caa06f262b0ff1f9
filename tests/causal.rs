//! Cross-host causal tracing integration tests: the fault-plan oracle.
//!
//! The injected `FaultPlan` schedule is ground truth — every retransmit
//! the TCP machines fire must trace back to the injected event that
//! caused it, every lost data frame must be claimed by exactly one
//! attribution (or superseded by a redundant delivery of its range),
//! and every journey's latency split must telescope exactly to its
//! cross-host end-to-end span.

use std::rc::Rc;

use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::faults::{FaultPlan, LinkFaults, RingPressure};
use unp::core::world::{build_two_hosts, connect, install_faults, listen, Network, OrgKind};
use unp::tcp::TcpConfig;
use unp::trace::{CausalGraph, Cause, JourneyFate, Loss, Record};
use unp::wire::Ipv4Addr;

const TOTAL: u64 = 150_000;

/// One Table-2-style bulk run with the journal armed before the world
/// is built (frame ids and the clock must start from zero for the run
/// to be reproducible).
fn bulk_run(total: u64, user_packet: usize, faults: Option<FaultPlan>) -> Vec<Record> {
    unp::trace::journal_start();
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let mut cfg = TcpConfig::bulk_transfer();
    cfg.mss_local = user_packet.min(1460);
    listen(
        &mut w,
        1,
        80,
        cfg.clone(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)))),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        cfg,
        Box::new(BulkSender::new(total, user_packet)),
        user_packet,
    );
    if let Some(plan) = faults {
        install_faults(&mut w, &mut eng, plan);
    }
    assert!(eng.run(&mut w, u64::MAX), "run did not drain");
    assert_eq!(stats.borrow().bytes_received, total, "transfer incomplete");
    unp::trace::journal_stop()
}

/// The oracle body: total attribution, and exactly-once claims over
/// every lost data-carrying frame (a redundantly-delivered range may go
/// unclaimed — the retransmit it would have needed never happened).
fn assert_oracle(graph: &CausalGraph) {
    assert_eq!(
        graph.coverage(),
        1.0,
        "unattributed rexmits: {:?}",
        graph
            .rexmits
            .iter()
            .filter(|a| !a.cause.is_attributed())
            .map(|a| (a.t, a.seq))
            .collect::<Vec<_>>()
    );
    let claims = graph.claims();
    for (j, loss) in graph.losses() {
        let Some(s) = &j.seg else { continue };
        if s.payload == 0 {
            continue;
        }
        let n = claims.get(&j.frame).copied().unwrap_or(0);
        assert!(
            n == 1 || (n == 0 && graph.superseded(j)),
            "lost data frame f{} ({}) claimed {n} times, want exactly 1",
            j.frame,
            loss.label()
        );
    }
}

#[test]
fn clean_run_has_no_rexmits_and_exact_splits() {
    let recs = bulk_run(TOTAL, 4096, None);
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    assert!(graph.rexmits.is_empty(), "clean run retransmitted");
    assert_eq!(graph.losses().count(), 0, "clean run lost frames");
    assert_eq!(graph.coverage(), 1.0, "vacuous coverage is 1.0");
    assert!(
        graph.journeys.len() > 40,
        "expected many journeys, got {}",
        graph.journeys.len()
    );
    // Every data journey carries the full tx-side story.
    let complete = graph
        .journeys
        .iter()
        .filter(|j| j.seg.is_some() && j.nic_tx.is_some() && j.lat_split().is_some())
        .count();
    assert!(
        complete > 30,
        "expected complete tx->rx journeys, got {complete}"
    );
}

#[test]
fn drop_only_plan_attributes_every_rexmit_to_a_wire_drop() {
    let mut plan = FaultPlan::clean(42);
    plan.default_link = LinkFaults {
        drop: 0.06,
        ..LinkFaults::clean()
    };
    let recs = bulk_run(TOTAL, 1460, Some(plan));
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    assert!(
        !graph.rexmits.is_empty(),
        "a 6% drop plan must force retransmits"
    );
    assert_oracle(&graph);
    // With drops as the only impairment, every cause is a drop (of data
    // or of the ACK acknowledging it) — or a delay-induced spurious
    // retransmit, which the tracer names rather than guessing a fault:
    // recovery bursts congest the link queue enough to hold a frame
    // past the dup-ACK threshold.
    let mut wire_drops = 0;
    for a in &graph.rexmits {
        match a.cause {
            Cause::DataLoss {
                loss: Loss::WireDrop { .. },
                ..
            }
            | Cause::AckLoss {
                loss: Loss::WireDrop { .. },
                ..
            } => wire_drops += 1,
            Cause::LateDelivery { .. } => {}
            other => panic!("drop-only plan produced cause {other:?}"),
        }
    }
    assert!(wire_drops > 0, "no rexmit traced back to an injected drop");
}

#[test]
fn lossy_plan_stays_fully_attributed() {
    let recs = bulk_run(TOTAL, 1460, Some(FaultPlan::lossy(7, 0.04)));
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    assert!(!graph.rexmits.is_empty(), "lossy plan must force rexmits");
    assert_oracle(&graph);
}

#[test]
fn ring_pressure_losses_name_the_slow_consumer() {
    let mut plan = FaultPlan::clean(5);
    // The receiver's consumer stalls early in the transfer: its rings
    // clamp to one slot while the sender's window is still opening.
    plan.pressure.push(RingPressure {
        host: 1,
        start: 2_000_000,
        end: 40_000_000,
        cap: 1,
    });
    let recs = bulk_run(TOTAL, 1460, Some(plan));
    let graph = CausalGraph::build(&recs);
    graph.check_consistency().expect("splits must telescope");
    let pressure_losses = graph
        .losses()
        .filter(|(_, l)| matches!(l, Loss::RingOverflow { pressure: true, .. }))
        .count();
    assert!(
        pressure_losses > 0,
        "the clamped ring never overflowed (losses: {:?})",
        graph.loss_counts()
    );
    assert_oracle(&graph);
    assert!(
        graph.rexmits.iter().any(|a| matches!(
            a.cause,
            Cause::DataLoss {
                loss: Loss::RingOverflow { pressure: true, .. },
                ..
            }
        )),
        "no rexmit was attributed to the injected pressure (causes: {:?})",
        graph.cause_counts()
    );
}

#[test]
fn explain_surfaces_cover_the_injected_story() {
    let recs = bulk_run(60_000, 1460, Some(FaultPlan::lossy(11, 0.05)));
    let graph = CausalGraph::build(&recs);
    assert_oracle(&graph);

    let conn = graph.explain_conn(80);
    assert!(
        conn.contains("rexmit"),
        "conn report names rexmits:\n{conn}"
    );
    assert!(
        conn.contains("losses:"),
        "conn report lists losses:\n{conn}"
    );

    let (lost, _) = graph.losses().next().expect("seeded plan injects loss");
    let frame = graph.explain_frame(lost.frame);
    assert!(
        frame.contains("fate:"),
        "frame report names the fate:\n{frame}"
    );
    assert!(
        frame.contains("tcp tx"),
        "frame report shows the tx timeline:\n{frame}"
    );

    // A delivered journey's report carries the exact latency split.
    let arrived = graph
        .journeys
        .iter()
        .find(|j| j.fate == JourneyFate::Arrived && j.lat_split().is_some())
        .expect("an arrived journey with a split");
    let report = graph.explain_frame(arrived.frame);
    assert!(
        report.contains("latency split"),
        "arrived report splits latency:\n{report}"
    );
}

#[test]
fn chrome_trace_is_valid_and_complete() {
    let recs = bulk_run(60_000, 1460, Some(FaultPlan::lossy(11, 0.05)));
    let graph = CausalGraph::build(&recs);
    let trace = graph.render_chrome_trace();
    let doc = unp::trace::json::parse(&trace).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(unp::trace::json::Value::items)
        .expect("traceEvents array");
    let ph = |k: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(unp::trace::json::Value::as_str) == Some(k))
            .count()
    };
    assert!(ph("X") > 100, "duration events per stage");
    assert!(ph("s") > 0 && ph("f") > 0, "flow arrows tie the wire hops");
    assert!(
        ph("f") <= ph("s"),
        "a flow finish needs a start (lost frames start but never finish)"
    );
    assert!(ph("i") > 0, "fault/rexmit instants present");
    assert!(ph("M") >= 6, "process/thread metadata for both hosts");
}
