//! The multi-tenant isolation oracle (ISSUE 9's tentpole proof).
//!
//! Three innocent tenants and one hostile tenant share host 0's network
//! I/O module. The hostile tenant runs the full byzantine repertoire —
//! a ring flood (its library never consumes), a transmit flood, a
//! replayed-capability/template-violation storm, stale BQI re-announces,
//! and a wedged crash that skips the library's reclamation sweep. The
//! oracle runs the same seeded scenario twice, byzantine schedules off
//! (baseline) and on (hostile), and asserts:
//!
//! (a) innocent streams stay byte-exact (`SinkApp` pattern-verifies);
//! (b) innocent throughput and p99 app-deliver latency stay inside an
//!     envelope measured from the baseline run;
//! (c) every quota drop in the causal trace is attributed to the
//!     hostile tenant (`Loss::QuotaExceeded { tenant }`);
//! (d) zero resources leak after the hostile tenant is crashed and
//!     reclaimed through the registry/kernel backstop alone.

use std::cell::RefCell;
use std::rc::Rc;

use unp::buffers::live_frames;
use unp::buffers::OwnerTag;
use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::faults::{ByzantineKind, ByzantineSchedule, FaultPlan};
use unp::core::world::{
    build_hosts, connect_as, crash_tenant, install_faults, listen, listen_as, Network, OrgKind,
};
use unp::kernel::TenantBudget;
use unp::tcp::TcpConfig;
use unp::trace::{CausalGraph, Ctr, Gauge, Loss, Monitor, Profile};

const INNOCENTS: usize = 3;
const XFER: u64 = 150_000;
const HOSTILE: u64 = 66;
/// Byzantine activity window: opens once all connections are up,
/// closes when the hostile tenant is crashed. Connection setup goes
/// through the registry's (deliberately slow) control path and contends
/// with data transfer for the host CPU, so establishment takes tens of
/// milliseconds — the window starts well after that.
const BYZ_START: u64 = 160_000_000;
const CRASH_AT: u64 = 320_000_000;

struct RunResult {
    /// Per-innocent-tenant (throughput bps, last byte instant), server side.
    innocents: Vec<(f64, u64)>,
    /// Sorted end-to-end app-deliver latencies of the innocent streams'
    /// delivered frames (server side).
    innocent_lat: Vec<u64>,
    quota_drops: u64,
    tx_quota_rejections: u64,
    /// Quota-exceeded losses in the causal graph, with their tenants.
    quota_losses: Vec<u64>,
    /// Quota drops examined by the streaming conformance monitor (its
    /// earned-occupancy checker; nonzero only when the flood runs).
    monitor_quota_checked: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One seeded scenario run. `hostile` arms the byzantine schedules,
/// budgets, and the wedged crash; the baseline keeps the identical
/// topology and traffic but the hostile tenant behaves.
fn run_scenario(hostile: bool) -> RunResult {
    let base_frames = live_frames();
    let result = {
        unp::trace::journal_start();
        // The conformance monitor streams alongside the journal: even a
        // byzantine tenant must not trip a checker, because everything
        // the kernel lets it do (flood until the quota drops it, burn
        // credit, replay capabilities into clean rejections) is
        // protocol-conformant behavior — only the *stack* lying about
        // what happened would violate.
        let monitor = unp::trace::attach(Box::new(Monitor::new()));
        let (mut w, mut eng) = build_hosts(2, Network::Ethernet, OrgKind::UserLibrary);
        let server_ip = w.hosts[1].ip;
        let client_ip = w.hosts[0].ip;

        // Innocent tenants 11..=13 on host 0 stream to server ports 81..
        // Connects are staggered so the handshakes don't all contend for
        // the registry at once.
        let mut sinks = Vec::new();
        for i in 0..INNOCENTS {
            let st = TransferStats::new_shared();
            let sh = Rc::clone(&st);
            listen(
                &mut w,
                1,
                81 + i as u16,
                TcpConfig::default(),
                Box::new(move || Box::new(SinkApp::new(Rc::clone(&sh)))),
            );
            eng.at(i as u64 * 10_000_000 + 1, move |w, eng| {
                connect_as(
                    w,
                    eng,
                    0,
                    Some(OwnerTag(11 + i as u64)),
                    (server_ip, 81 + i as u16),
                    TcpConfig::default(),
                    Box::new(BulkSender::new(XFER, 4096)),
                    4096,
                );
            });
            sinks.push(st);
        }

        // The hostile tenant's two connections: an active open to the
        // server (the transmit-flood/storm vehicle, held open until the
        // crash) and a listener fed by the server (the ring-flood victim:
        // its consumer never wakes during the flood window).
        let hostile_rx = TransferStats::new_shared();
        let hr = Rc::clone(&hostile_rx);
        listen_as(
            &mut w,
            0,
            OwnerTag(HOSTILE),
            90,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&hr)).without_verify())),
        );
        let server_sink = TransferStats::new_shared();
        let ss = Rc::clone(&server_sink);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&ss)).without_verify())),
        );
        eng.at(31_000_000, move |w, eng| {
            connect_as(
                w,
                eng,
                0,
                Some(OwnerTag(HOSTILE)),
                (server_ip, 80),
                TcpConfig::default(),
                Box::new(BulkSender::new(30_000, 4096).without_close()),
                4096,
            );
        });
        eng.at(36_000_000, move |w, eng| {
            connect_as(
                w,
                eng,
                1,
                None,
                (client_ip, 90),
                TcpConfig::default(),
                Box::new(BulkSender::new(400_000, 4096).without_close()),
                4096,
            );
        });

        let mut plan = FaultPlan::clean(21);
        if hostile {
            w.hosts[0].netio.set_tenant_budget(
                OwnerTag(HOSTILE),
                TenantBudget {
                    ring_slots: 8,
                    tx_credit: 40,
                    max_channels: 4,
                },
            );
            for kind in [
                ByzantineKind::RingFlood,
                ByzantineKind::TransmitFlood {
                    burst: 12,
                    period: 2_000_000,
                },
                ByzantineKind::CapabilityStorm { period: 3_000_000 },
                ByzantineKind::StaleBqi { period: 5_000_000 },
                ByzantineKind::WedgedRegistry,
            ] {
                plan.byzantine.push(ByzantineSchedule {
                    host: 0,
                    tenant: HOSTILE,
                    kind,
                    start: BYZ_START,
                    end: CRASH_AT,
                });
            }
        }
        install_faults(&mut w, &mut eng, plan);
        // Harvest the server-side channel ids of the innocent streams
        // once everything is established (needed to scope the latency
        // profile to innocent traffic only).
        let chan_map: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let cm = Rc::clone(&chan_map);
        eng.at(BYZ_START - 1_000_000, move |w, _eng| {
            let mut ids: Vec<u32> = w.hosts[1]
                .conns
                .values()
                .filter(|c| (81..81 + INNOCENTS as u16).contains(&c.tcb.local().1))
                .filter_map(|c| c.chan.as_ref().map(|ci| ci.id.0))
                .collect();
            ids.sort_unstable();
            *cm.borrow_mut() = ids;
        });
        // Both runs crash the hostile tenant at the same instant so the
        // workloads stay comparable (in the baseline it dies politely —
        // no wedge schedule — and its held-open streams are inherited).
        eng.at(CRASH_AT, move |w, eng| {
            crash_tenant(w, eng, 0, OwnerTag(HOSTILE));
        });

        assert!(eng.run(&mut w, 2_500_000_000), "scenario did not drain");

        // The kernel's tenant accounts are the only per-tenant copy of
        // the quota numbers: summed over every host they reconcile with
        // the world's counters, and every quota drop is charged to the
        // hostile tenant.
        let (mut drops, mut rejections, mut innocent_drops) = (0, 0, 0);
        for h in &w.hosts {
            for t in h.netio.tenant_ids() {
                let s = h.netio.tenant_stats(t).expect("listed tenant has stats");
                drops += s.quota_drops;
                rejections += s.tx_rejections;
                if t != OwnerTag(HOSTILE) {
                    innocent_drops += s.quota_drops;
                }
            }
        }
        assert_eq!(drops, w.metrics.get(Ctr::ChQuotaDrops), "quota drops");
        assert_eq!(
            rejections,
            w.metrics.get(Ctr::TxQuotaRejections),
            "tx quota rejections"
        );
        assert_eq!(innocent_drops, 0, "a quota drop charged to an innocent");

        let innocent_chans = chan_map.borrow().clone();
        assert_eq!(
            innocent_chans.len(),
            INNOCENTS,
            "innocent connections not all established before the window"
        );
        let records = unp::trace::journal_stop();
        let mon = unp::trace::detach_as::<Monitor>(monitor).expect("monitor still attached");
        assert_eq!(
            mon.total_violations(),
            0,
            "conformant {} run flagged: {:?}",
            if hostile { "hostile" } else { "baseline" },
            mon.violations().first()
        );
        assert!(mon.checked().tcp_acks > 0, "monitor saw no traffic");

        // (a) byte-exact innocent streams, in-order close, no reset.
        for (i, st) in sinks.iter().enumerate() {
            let s = st.borrow();
            assert_eq!(s.bytes_received, XFER, "innocent {i} lost bytes");
            assert!(s.peer_closed && !s.reset, "innocent {i} failed");
        }

        // (d) zero leaked resources after the crash: the hostile tenant
        // holds no channels, ring slots, registry state, or BQI slots.
        let ts = w.hosts[0]
            .netio
            .tenant_stats(OwnerTag(HOSTILE))
            .expect("hostile tenant account exists");
        assert_eq!(ts.open_channels, 0, "hostile channels leaked");
        assert_eq!(ts.ring_slots, 0, "hostile ring occupancy leaked");
        for h in &w.hosts {
            assert_eq!(h.netio.channel_count(), 0, "host {} leaked channels", h.idx);
            assert_eq!(h.netio.flow_table_len(), 0, "host {} leaked flows", h.idx);
            assert_eq!(h.registry.tracked(), 0, "host {} registry lingers", h.idx);
            assert!(h.conns.is_empty(), "host {} leaked connections", h.idx);
        }
        assert_eq!(w.metrics.gauge(Gauge::OpenChannels), 0);
        assert_eq!(w.metrics.gauge(Gauge::ActiveConnections), 0);

        // Innocent app-deliver latency from the receive-path profile,
        // scoped to the innocent streams' server-side channels.
        let profile = Profile::build(&records);
        let mut lat: Vec<u64> = profile
            .traces
            .iter()
            .filter(|t| {
                t.is_complete()
                    && t.host == Some(1)
                    && t.channel.is_some_and(|c| innocent_chans.contains(&c))
            })
            .filter_map(|t| t.end_to_end())
            .collect();
        lat.sort_unstable();
        assert!(!lat.is_empty(), "no innocent deliveries profiled");

        // (c) causal attribution of every quota drop.
        let graph = CausalGraph::build(&records);
        let quota_losses: Vec<u64> = graph
            .losses()
            .filter_map(|(_, l)| match l {
                Loss::QuotaExceeded { tenant, .. } => Some(tenant),
                _ => None,
            })
            .collect();

        RunResult {
            innocents: sinks
                .iter()
                .map(|s| {
                    let s = s.borrow();
                    (
                        s.throughput_bps().expect("innocent throughput"),
                        s.last_byte_at.expect("innocent completion"),
                    )
                })
                .collect(),
            innocent_lat: lat,
            quota_drops: w.metrics.get(Ctr::ChQuotaDrops),
            tx_quota_rejections: w.metrics.get(Ctr::TxQuotaRejections),
            quota_losses,
            monitor_quota_checked: mon.checked().quota_drops,
        }
    };
    assert_eq!(live_frames(), base_frames, "pooled frame buffers leaked");
    result
}

#[test]
fn hostile_tenant_cannot_perturb_innocents() {
    let base = run_scenario(false);
    let hot = run_scenario(true);

    // The baseline is genuinely quota-silent...
    assert_eq!(base.quota_drops, 0, "baseline saw quota drops");
    assert_eq!(base.tx_quota_rejections, 0);
    assert!(base.quota_losses.is_empty());
    // ...and the hostile run genuinely exercised both quota dimensions.
    assert!(hot.quota_drops > 0, "ring flood never hit the quota");
    assert!(
        hot.tx_quota_rejections > 0,
        "tx flood never ran out of credit"
    );
    // The monitor's earned-occupancy checker was vacuous in the baseline
    // (no drops to check) and exercised by the flood — without flagging.
    assert_eq!(base.monitor_quota_checked, 0);
    assert!(
        hot.monitor_quota_checked > 0,
        "monitor never checked a quota drop in the hostile run"
    );

    // (c) every causally-traced quota loss names the hostile tenant, and
    // the trace accounts for every drop the kernel charged (a clean link
    // delivers each dropped frame exactly once, so the counts match).
    assert!(
        !hot.quota_losses.is_empty(),
        "no quota loss reached the trace"
    );
    assert_eq!(
        hot.quota_losses.len() as u64,
        hot.quota_drops,
        "causal trace missed quota drops"
    );
    assert!(
        hot.quota_losses.iter().all(|&t| t == HOSTILE),
        "a quota drop was attributed to the wrong tenant: {:?}",
        hot.quota_losses
    );

    // (b) innocent throughput and p99 app-deliver latency envelopes.
    for (i, (&(tb, lb), &(th, lh))) in base.innocents.iter().zip(&hot.innocents).enumerate() {
        assert!(
            th >= 0.6 * tb,
            "innocent {i} throughput collapsed: {th:.0} vs baseline {tb:.0} bps"
        );
        assert!(
            lh <= lb + lb / 2 + 10_000_000,
            "innocent {i} completion degraded: {lh} vs baseline {lb} ns"
        );
    }
    let (p99b, p99h) = (
        percentile(&base.innocent_lat, 0.99),
        percentile(&hot.innocent_lat, 0.99),
    );
    // The quota layer cannot (and should not) hide shared-link and
    // shared-CPU contention, only unbounded resource capture — hence a
    // 2.5x + 5ms envelope rather than parity.
    assert!(
        p99h <= 5 * p99b / 2 + 5_000_000,
        "innocent p99 app-deliver latency blew the envelope: {p99h} vs baseline {p99b} ns"
    );
}
