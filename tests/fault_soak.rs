//! Seeded fault-injection soak (ISSUE 4's differential oracle): random
//! drop/duplicate/reorder/corrupt schedules, an outage window, receive-
//! ring pressure, and a mid-transfer application crash are driven through
//! multi-host worlds. Every surviving connection must deliver its byte
//! stream *exactly* — `SinkApp` verifies the position-dependent pattern,
//! so any divergence from the fault-free run panics — or fail cleanly
//! with a reset. Afterwards nothing may leak: no channel, template,
//! flow-table entry, BQI binding, tracked registry connection, gauge, or
//! pooled frame buffer survives the run.

use std::cell::RefCell;
use std::rc::Rc;

use unp::buffers::live_frames;
use unp::core::app::{AppLogic, AppOp, AppView, BulkSender, SinkApp, TransferStats};
use unp::core::faults::{Crash, FaultPlan, Outage, RingPressure};
use unp::core::world::{
    build_hosts, build_two_hosts, connect, crash_host, install_faults, listen, Network, OrgKind,
};
use unp::tcp::TcpConfig;
use unp::trace::{Ctr, Gauge};
use unp::wire::Ipv4Addr;

const XFER: u64 = 60_000;

/// Wraps a sender, mirroring the reset notification into a
/// [`TransferStats`] cell (`BulkSender` itself records nothing, but a
/// crash test must observe the RST from the *surviving* side).
struct ResetWatch {
    inner: BulkSender,
    stats: Rc<RefCell<TransferStats>>,
}

impl AppLogic for ResetWatch {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.inner.on_connected(view)
    }
    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        self.inner.on_send_space(view)
    }
    fn on_reset(&mut self, _view: &AppView) {
        self.stats.borrow_mut().reset = true;
    }
}

/// Asserts the zero-leak oracle over a drained world.
fn assert_no_leaks(w: &unp::core::World) {
    for h in &w.hosts {
        assert_eq!(h.netio.channel_count(), 0, "host {} leaked channels", h.idx);
        assert_eq!(
            h.netio.flow_table_len(),
            0,
            "host {} leaked flow-table entries",
            h.idx
        );
        assert_eq!(h.registry.tracked(), 0, "host {} registry lingers", h.idx);
        assert!(h.conns.is_empty(), "host {} leaked connections", h.idx);
        if let unp::core::world::Nic::An1(nic) = &h.nic {
            // Entry 0 is the kernel-default ring, bound for the host's
            // lifetime; everything else must have been freed.
            assert!(
                nic.bqi_table.bound_entries() <= 1,
                "host {} leaked BQI bindings",
                h.idx
            );
        }
    }
    assert_eq!(
        w.metrics.gauge(Gauge::OpenChannels),
        0,
        "channel gauge leaked"
    );
    assert_eq!(
        w.metrics.gauge(Gauge::ActiveConnections),
        0,
        "connection gauge leaked"
    );
}

/// One five-host soak world: clients 0..=3 stream to server 4 while the
/// plan injects faults; host 2's application crashes mid-transfer.
fn run_soak_world(seed: u64, loss: f64) {
    let base_frames = live_frames();
    {
        // The conformance monitor rides the whole soak: faults are legal
        // behavior (loss, dup, corruption, outage, crash all have
        // conformant recoveries), so a checker that flags anything here
        // is lying. The crash freezes the flight recorder's window into
        // a postmortem even with zero violations.
        let monitor = unp::trace::attach(Box::new(
            unp::trace::Monitor::with_recorder(256).expect_pool_drained(true),
        ));

        let (mut w, mut eng) = build_hosts(5, Network::Ethernet, OrgKind::UserLibrary);
        let sinks: Rc<RefCell<Vec<Rc<RefCell<TransferStats>>>>> = Rc::new(RefCell::new(Vec::new()));
        let sh = Rc::clone(&sinks);
        listen(
            &mut w,
            4,
            80,
            TcpConfig::default(),
            Box::new(move || {
                let st = TransferStats::new_shared();
                sh.borrow_mut().push(Rc::clone(&st));
                Box::new(SinkApp::new(st))
            }),
        );
        for client in 0..4 {
            connect(
                &mut w,
                &mut eng,
                client,
                (Ipv4Addr::new(10, 0, 0, 5), 80),
                TcpConfig::default(),
                Box::new(BulkSender::new(XFER, 4096)),
                4096,
            );
        }
        let mut plan = FaultPlan::lossy(seed, loss);
        // A 30 ms everyone-to-everyone outage opening mid-transfer (a
        // 60 kB stream at 10 Mb/s runs ~50 ms of wire time, but RTO
        // stalls make the traffic bursty — a narrow window can land in a
        // silence between bursts on some seeds).
        plan.outages.push(Outage {
            from: None,
            to: None,
            start: 30_000_000,
            end: 60_000_000,
        });
        // The server's consumer stalls briefly: rings clamp to 2 slots.
        plan.pressure.push(RingPressure {
            host: 4,
            start: 25_000_000,
            end: 28_000_000,
            cap: 2,
        });
        // Client 2's application dies mid-transfer.
        plan.crashes.push(Crash {
            host: 2,
            at: 20_000_000,
        });
        install_faults(&mut w, &mut eng, plan);

        assert!(eng.run(&mut w, 100_000_000), "soak world did not drain");

        // Differential oracle: each accepted connection either delivered
        // the full pattern-verified stream and closed in order, or failed
        // cleanly (reset, or cut off without the FIN). SinkApp's pattern
        // verification makes "delivered exactly" byte-exact against the
        // fault-free run. The crashed client may not even reach accept if
        // its dropped SYN was still waiting out the retransmit timer, so
        // three or four sinks exist — but exactly three complete.
        let sinks = sinks.borrow();
        assert!(
            (3..=4).contains(&sinks.len()),
            "unexpected accept count {}",
            sinks.len()
        );
        let mut complete = 0;
        let mut failed = 0;
        for st in sinks.iter() {
            let s = st.borrow();
            if !s.reset && s.peer_closed {
                assert_eq!(s.bytes_received, XFER, "surviving stream lost bytes");
                complete += 1;
            } else {
                assert!(
                    s.bytes_received < XFER,
                    "a failed stream cannot also have completed"
                );
                failed += 1;
            }
        }
        assert_eq!(complete, 3, "three clients survive the crash");
        assert_eq!(failed, sinks.len() - 3, "the crashed client's stream fails");

        // The schedule actually exercised every fault class.
        assert_eq!(w.metrics.get(Ctr::AppCrashes), 1);
        assert!(w.metrics.get(Ctr::FaultDrops) > 0, "no drops injected");
        assert!(w.metrics.get(Ctr::FaultDups) > 0, "no dups injected");
        assert!(
            w.metrics.get(Ctr::FaultCorrupts) > 0,
            "no corruption injected"
        );
        assert!(
            w.metrics.get(Ctr::FaultOutageDrops) > 0,
            "outage missed traffic"
        );
        assert!(
            w.metrics.get(Ctr::FrameCorruptDiscards) > 0,
            "no corrupt frame reached a checksum"
        );
        assert!(
            w.metrics.get(Ctr::ResourceReclaims) > 0,
            "crash reclaimed nothing"
        );
        // Per-link scopes aggregate to the same totals.
        let link_drops: u64 = w.metrics.links().map(|(_, l)| l.drops).sum();
        assert_eq!(link_drops, w.metrics.get(Ctr::FaultDrops));

        assert_no_leaks(&w);

        let mon =
            unp::trace::detach_as::<unp::trace::Monitor>(monitor).expect("monitor still attached");
        assert_eq!(
            mon.total_violations(),
            0,
            "conformant soak flagged (seed {seed}): {:?}",
            mon.violations().first()
        );
        let c = mon.checked();
        assert!(c.tcp_acks > 0, "ACK checker never ran");
        assert!(c.transitions > 0, "FSM checker never ran");
        assert!(c.rexmits > 0, "rexmit checker never ran under loss");
        assert!(c.ring_events > 0, "ring checker never ran");
        assert!(c.pool_events > 0, "pool checker never ran");
        assert!(c.demux_classifies > 0, "demux checker never ran");
        assert!(
            mon.postmortem().is_some(),
            "the crash must freeze the recorder into a postmortem"
        );
    }
    // Worlds and engine dropped: every pooled frame backing is gone.
    assert_eq!(
        live_frames(),
        base_frames,
        "pooled frame buffers leaked (seed {seed})"
    );
}

#[test]
fn seeded_soak_fixed_seeds() {
    for (seed, loss) in [(11, 0.03), (501, 0.05), (9001, 0.02)] {
        run_soak_world(seed, loss);
    }
}

/// With the plan disabled nothing changes: a faulted-build run is
/// byte-identical to the seed behavior (the golden repro tables rely on
/// this; here we assert the counters stay silent).
#[test]
fn disabled_plan_is_inert() {
    // On a fault-free run the monitor is equally silent, and with no
    // crash the recorder never freezes.
    let monitor = unp::trace::attach(Box::new(unp::trace::Monitor::with_recorder(256)));

    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)))),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(XFER, 4096)),
        4096,
    );
    assert!(eng.run(&mut w, 50_000_000));
    assert_eq!(stats.borrow().bytes_received, XFER);
    for c in [
        Ctr::FaultDrops,
        Ctr::FaultDups,
        Ctr::FaultReorders,
        Ctr::FaultCorrupts,
        Ctr::FaultOutageDrops,
        Ctr::FrameCorruptDiscards,
        Ctr::AppCrashes,
        Ctr::ResourceReclaims,
        Ctr::ListenerVanished,
    ] {
        assert_eq!(w.metrics.get(c), 0, "{c:?} moved with faults disabled");
    }
    assert_eq!(w.metrics.links().count(), 0, "no per-link scopes created");
    assert_no_leaks(&w);

    let mon =
        unp::trace::detach_as::<unp::trace::Monitor>(monitor).expect("monitor still attached");
    assert_eq!(
        mon.total_violations(),
        0,
        "clean run flagged: {:?}",
        mon.violations().first()
    );
    assert!(mon.checked().tcp_acks > 0, "monitor saw no traffic");
    assert!(
        mon.postmortem().is_none(),
        "nothing should freeze the recorder on a clean run"
    );
}

/// The AN1 (hardware demux) path under the same fault vocabulary: BQI
/// bindings and channels are reclaimed after a server-side crash.
#[test]
fn an1_soak_with_server_crash() {
    let base_frames = live_frames();
    {
        let (mut w, mut eng) = build_two_hosts(Network::An1, OrgKind::UserLibrary);
        let stats = TransferStats::new_shared();
        let st = Rc::clone(&stats);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)))),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(400_000, 4096)),
            4096,
        );
        let mut plan = FaultPlan::lossy(77, 0.02);
        // The server application dies while the stream is in flight.
        plan.crashes.push(Crash {
            host: 1,
            at: 15_000_000,
        });
        install_faults(&mut w, &mut eng, plan);
        assert!(eng.run(&mut w, 100_000_000), "AN1 soak did not drain");
        assert_eq!(w.metrics.get(Ctr::AppCrashes), 1);
        assert!(w.metrics.get(Ctr::ResourceReclaims) > 0);
        assert_no_leaks(&w);
    }
    assert_eq!(live_frames(), base_frames, "AN1 soak leaked frame buffers");
}

// ---------------------------------------------------------------------
// Crash recovery / registry cleanup (ISSUE 4 satellite: registry tests)
// ---------------------------------------------------------------------

/// After a server-side crash: the peer is reset within one RTO, the
/// crashed app's port becomes re-bindable, and channel-stats retirement
/// still reached the registry's binding reports.
#[test]
fn server_crash_resets_peer_and_releases_port() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)).without_verify())),
    );
    let client_stats = TransferStats::new_shared();
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        // Keep the connection open: the crash must cut a live stream.
        Box::new(ResetWatch {
            inner: BulkSender::new(1_000_000, 4096).without_close(),
            stats: Rc::clone(&client_stats),
        }),
        4096,
    );
    // Run until mid-transfer, then kill the server's application.
    let mut steps = 0;
    while stats.borrow().bytes_received < 100_000 && eng.step(&mut w) && steps < 10_000_000 {
        steps += 1;
    }
    assert!(
        stats.borrow().bytes_received >= 100_000,
        "transfer never started"
    );
    let crash_at = eng.now();
    crash_host(&mut w, &mut eng, 1);

    // The server's library and kernel state are gone immediately.
    assert!(w.hosts[1].conns.is_empty());
    assert_eq!(w.hosts[1].netio.channel_count(), 0);
    assert_eq!(w.hosts[1].netio.flow_table_len(), 0);

    // The surviving peer sees RST within one conservative RTO (1 s), not
    // at some distant timeout.
    let mut steps = 0;
    while !client_stats.borrow().reset && eng.step(&mut w) && steps < 10_000_000 {
        steps += 1;
    }
    assert!(client_stats.borrow().reset, "peer never saw the RST");
    assert!(
        eng.now() - crash_at < 1_000_000_000,
        "RST took longer than one RTO"
    );

    // Channel retirement reached the registry before the teardown.
    assert!(
        !w.hosts[1].registry.binding_reports().is_empty(),
        "crash skipped channel-stats retirement"
    );

    // The crashed app's port is re-bindable: a new listener accepts a
    // fresh connection on the same port.
    let stats2 = TransferStats::new_shared();
    let st2 = Rc::clone(&stats2);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st2)))),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(20_000, 4096)),
        4096,
    );
    assert!(
        eng.run(&mut w, 50_000_000),
        "post-crash world did not drain"
    );
    assert_eq!(
        stats2.borrow().bytes_received,
        20_000,
        "port 80 not usable after crash"
    );
    assert!(stats2.borrow().peer_closed && !stats2.borrow().reset);
    assert_no_leaks(&w);
}

/// A crash while the handshake is still in flight: the registry aborts
/// the pending connection and the pre-created channel is reclaimed.
#[test]
fn crash_during_handshake_reclaims_setup() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)).without_verify())),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(10_000, 4096)),
        4096,
    );
    // Step just far enough for the client's SYN (and its handshake
    // channel) to exist, then kill the client.
    let mut steps = 0;
    while w.hosts[0].netio.channel_count() == 0 && eng.step(&mut w) && steps < 100_000 {
        steps += 1;
    }
    assert!(
        w.hosts[0].netio.channel_count() > 0,
        "handshake never started"
    );
    crash_host(&mut w, &mut eng, 0);
    assert_eq!(
        w.hosts[0].netio.channel_count(),
        0,
        "handshake channel leaked"
    );
    assert!(w.metrics.get(Ctr::ResourceReclaims) > 0);
    assert!(
        eng.run(&mut w, 50_000_000),
        "post-crash world did not drain"
    );
    assert_eq!(w.hosts[0].registry.tracked(), 0);
    assert_no_leaks(&w);
}

/// Crashing a monolithic host aborts its kernel-held connections too
/// (the reclamation protocol is organization-independent).
#[test]
fn monolithic_crash_resets_peer() {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::InKernel);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    listen(
        &mut w,
        1,
        80,
        TcpConfig::default(),
        Box::new(move || Box::new(SinkApp::new(Rc::clone(&st)).without_verify())),
    );
    connect(
        &mut w,
        &mut eng,
        0,
        (Ipv4Addr::new(10, 0, 0, 2), 80),
        TcpConfig::default(),
        Box::new(BulkSender::new(500_000, 4096).without_close()),
        4096,
    );
    let mut steps = 0;
    while stats.borrow().bytes_received < 50_000 && eng.step(&mut w) && steps < 10_000_000 {
        steps += 1;
    }
    crash_host(&mut w, &mut eng, 0);
    assert!(eng.run(&mut w, 50_000_000));
    assert!(stats.borrow().reset, "monolithic crash must RST the peer");
    assert_eq!(w.metrics.get(Ctr::AppCrashes), 1);
    assert_no_leaks(&w);
}
