//! Flight-recorder window property test (satellite of the streaming
//! observers tentpole): for any capacity, each per-host ring is the exact
//! tail of that host's journal lane, and `dump_all` merges the lanes back
//! into emission order.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::world::{build_two_hosts, connect, listen, Network, OrgKind};
use unp::tcp::TcpConfig;
use unp::trace::{render, FlightRecorder, Record};
use unp::wire::Ipv4Addr;

const TOTAL: u64 = 150_000;

/// One bulk run with the full journal armed and one flight recorder per
/// entry of `caps` attached simultaneously, all observing the same
/// record stream. Returns the journal plus the detached recorders in
/// `caps` order.
fn recorded_run(caps: &[usize]) -> (Vec<Record>, Vec<FlightRecorder>) {
    unp::trace::journal_start();
    let handles: Vec<_> = caps
        .iter()
        .map(|&cap| unp::trace::attach(Box::new(FlightRecorder::new(cap))))
        .collect();

    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let cfg = TcpConfig::bulk_transfer();
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
        Box::new(BulkSender::new(TOTAL, 2048)),
        2048,
    );
    assert!(eng.run(&mut w, u64::MAX), "run did not drain");
    assert_eq!(stats.borrow().bytes_received, TOTAL, "transfer incomplete");

    let journal = unp::trace::journal_stop();
    let recorders = handles
        .into_iter()
        .map(|h| *unp::trace::detach_as::<FlightRecorder>(h).expect("recorder detaches"))
        .collect();
    (journal, recorders)
}

#[test]
fn recorder_windows_are_exact_journal_tails() {
    let caps = [1usize, 2, 3, 7, 16, 64, 100_000];
    let (journal, recorders) = recorded_run(&caps);
    assert!(journal.len() > 200, "need a substantial run to window");

    let hosts: BTreeSet<Option<u16>> = journal.iter().map(|r| r.host).collect();
    assert!(hosts.len() >= 2, "expected at least two host lanes");

    for (fr, &cap) in recorders.iter().zip(&caps) {
        assert_eq!(fr.capacity_per_host(), cap);
        let mut held = 0usize;
        let mut evicted = 0u64;
        for &h in &hosts {
            let lane: Vec<Record> = journal.iter().filter(|r| r.host == h).cloned().collect();
            let tail = &lane[lane.len().saturating_sub(cap)..];
            let got = fr.dump(h);
            assert_eq!(
                render(&got),
                render(tail),
                "cap {cap} host {h:?}: ring must be the lane's exact tail"
            );
            held += tail.len();
            evicted += (lane.len() - tail.len()) as u64;
        }
        assert_eq!(
            fr.occupancy(),
            held,
            "cap {cap}: occupancy must sum the lanes"
        );
        assert_eq!(
            fr.evicted(),
            evicted,
            "cap {cap}: every overwrite must be counted"
        );

        // dump_all merges the per-host rings back into emission order: it
        // must equal the journal filtered to the union of the lane tails.
        let start: HashMap<Option<u16>, usize> = hosts
            .iter()
            .map(|&h| {
                let n = journal.iter().filter(|r| r.host == h).count();
                (h, n.saturating_sub(cap))
            })
            .collect();
        let mut seen: HashMap<Option<u16>, usize> = HashMap::new();
        let mut expect = Vec::new();
        for r in &journal {
            let c = seen.entry(r.host).or_insert(0);
            if *c >= start[&r.host] {
                expect.push(r.clone());
            }
            *c += 1;
        }
        assert_eq!(
            render(&fr.dump_all()),
            render(&expect),
            "cap {cap}: dump_all must interleave lanes in emission order"
        );
    }

    // The widest recorder never evicted, so its merged dump IS the journal.
    let widest = recorders.last().unwrap();
    assert_eq!(widest.evicted(), 0);
    assert_eq!(render(&widest.dump_all()), render(&journal));
}
