//! Journal determinism and lifecycle-join tests (satellites of the
//! tracing tentpole).

use std::collections::HashMap;
use std::rc::Rc;

use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::world::{build_two_hosts, connect, listen, Network, OrgKind};
use unp::tcp::TcpConfig;
use unp::trace::{render, Dir, Event, Record};
use unp::wire::Ipv4Addr;

const TOTAL: u64 = 150_000;

/// How the journal is armed for one run.
enum Capture {
    Off,
    Full,
    Bounded(usize),
}

/// One Table-2-style bulk run. When capture is on the journal is armed
/// *before* the world is built, so frame ids and the sim clock start from
/// zero and the journal captures the whole run.
fn bulk_run(total: u64, user_packet: usize, capture: Capture) -> Vec<Record> {
    match capture {
        Capture::Off => {}
        Capture::Full => unp::trace::journal_start(),
        Capture::Bounded(cap) => unp::trace::journal_start_bounded(cap),
    }
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
    assert!(eng.run(&mut w, u64::MAX), "run did not drain");
    assert_eq!(stats.borrow().bytes_received, total, "transfer incomplete");
    unp::trace::journal_stop()
}

#[test]
fn identical_runs_produce_identical_journals() {
    let a = bulk_run(TOTAL, 2048, Capture::Full);
    let b = bulk_run(TOTAL, 2048, Capture::Full);
    assert!(!a.is_empty(), "journal recorded nothing");
    // Byte-identical rendering: same events, same order, same timestamps,
    // same frame ids — the journal is as deterministic as the simulation.
    assert_eq!(render(&a), render(&b));
}

#[test]
fn frame_id_join_reconstructs_every_delivered_lifecycle() {
    let recs = bulk_run(TOTAL, 4096, Capture::Full);
    let mut seq: HashMap<u64, Vec<&'static str>> = HashMap::new();
    let mut app_bytes = 0u64;
    for r in &recs {
        let kind = match &r.event {
            Event::NicRx { accepted: true, .. } => "nic_rx",
            Event::DemuxClassify { matched: true, .. } => "demux_classify",
            Event::RingEnqueue { .. } => "ring_enqueue",
            Event::TcpSegment { dir: Dir::Rx, .. } => "tcp_segment_rx",
            Event::AppDeliver { bytes, .. } => {
                app_bytes += *bytes as u64;
                continue;
            }
            _ => continue,
        };
        if let Some(f) = r.frame {
            seq.entry(f).or_default().push(kind);
        }
    }
    assert_eq!(
        app_bytes, TOTAL,
        "app_deliver bytes must cover the transfer"
    );
    // Every frame the library processed as a TCP segment must show the
    // full software receive path, in order, under its own frame id.
    let mut joined = 0u64;
    for (f, kinds) in &seq {
        if !kinds.contains(&"tcp_segment_rx") {
            continue;
        }
        let mut it = kinds.iter();
        for want in ["nic_rx", "demux_classify", "ring_enqueue", "tcp_segment_rx"] {
            assert!(
                it.any(|k| *k == want),
                "frame {f}: lifecycle missing {want} (got {kinds:?})"
            );
        }
        joined += 1;
    }
    assert!(joined > 30, "expected many delivered frames, got {joined}");
}

#[test]
fn quiescent_journal_records_nothing() {
    assert!(!unp::trace::journal_enabled());
    let recs = bulk_run(TOTAL, 2048, Capture::Off);
    assert!(recs.is_empty(), "quiescent run must not record events");
}

#[test]
fn bounded_journal_keeps_the_exact_tail_and_counts_drops() {
    let full = bulk_run(TOTAL, 2048, Capture::Full);
    assert!(full.len() > 100, "need a substantial run to truncate");

    // A capacity well under the run length: the bounded journal must hold
    // exactly the last `cap` records of the identical full run, count
    // every eviction, and hand back a right-sized Vec.
    let cap = full.len() / 3;
    let bounded = bulk_run(TOTAL, 2048, Capture::Bounded(cap));
    assert_eq!(bounded.len(), cap, "bounded journal must fill to capacity");
    assert_eq!(
        unp::trace::journal_dropped(),
        (full.len() - cap) as u64,
        "every eviction must be counted"
    );
    assert_eq!(
        render(&bounded),
        render(&full[full.len() - cap..]),
        "bounded journal must be the exact tail of the full run"
    );
    assert_eq!(
        bounded.capacity(),
        bounded.len(),
        "journal_stop must shrink the drained Vec to its length"
    );

    // A capacity wider than the run drops nothing and equals the full run.
    let wide = bulk_run(TOTAL, 2048, Capture::Bounded(full.len() * 2));
    assert_eq!(unp::trace::journal_dropped(), 0);
    assert_eq!(render(&wide), render(&full));
}
