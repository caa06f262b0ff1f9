//! `top` for the user-level stack — windowed telemetry, per-tenant and
//! per-connection accounting, the conformance monitor's verdict, and a
//! post-run critical-path latency profile.
//!
//! ```text
//! cargo run --release --example unp_top
//! cargo run --release --example unp_top -- --redraw   # ANSI live redraw
//! ```
//!
//! Three concurrent bulk transfers, each served by its own budgeted
//! tenant, run through the user-level library organization over a
//! mildly lossy seeded [`FaultPlan`]. The simulation is stepped in
//! 100 ms slices; each slice takes a [`Snapshot`] of the metrics
//! registry and prints the *rates over the window* — packets per
//! second, retransmit rate, demux hit rates, ring occupancy — the way
//! `top` shows deltas rather than lifetime totals. Levels that live
//! elsewhere are read at their source: keyed-table sizes and tenant
//! accounts from each host's network I/O module, violations and
//! recorder occupancy from the observer pipeline's stream counters.
//! When the transfers retire, the run's totals are printed — connection,
//! channel and tenant scopes, the monitor's verdict (asserted clean),
//! fault injection, and the registry's binding reports — and the
//! recorded packet journal is joined into per-frame path traces whose
//! end-to-end latency is decomposed per stage, followed by folded
//! flamegraph lines.

use std::collections::BTreeMap;
use std::rc::Rc;

use unp::buffers::OwnerTag;
use unp::core::app::{BulkSender, SinkApp, TransferStats};
use unp::core::faults::FaultPlan;
use unp::core::world::{
    build_two_hosts, connect, install_faults, listen_as, Network, OrgKind, World,
};
use unp::kernel::{TenantBudget, TenantStats};
use unp::sim::fmt_nanos;
use unp::tcp::TcpConfig;
use unp::trace::{Ctr, Gauge, Hist, Monitor, PathOutcome, Profile, Stage};
use unp::wire::Ipv4Addr;

/// Every tenant account on every host, read from the kernel modules.
fn tenants(world: &World) -> Vec<(u16, u64, TenantStats)> {
    let mut out = Vec::new();
    for (h, host) in world.hosts.iter().enumerate() {
        for t in host.netio.tenant_ids() {
            if let Some(s) = host.netio.tenant_stats(t) {
                out.push((h as u16, t.0, s));
            }
        }
    }
    out
}

fn pct(r: Option<f64>) -> String {
    r.map_or("-".into(), |r| format!("{:.1}", r * 100.0))
}

fn main() {
    let redraw = std::env::args().any(|a| a == "--redraw");

    let (mut world, mut engine) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let host1_addr = Ipv4Addr::new(10, 0, 0, 2);

    // Record the journal from the very first SYN so the profiler sees
    // every frame's full path.
    unp::trace::journal_start();

    // Conformance monitor with a bounded flight recorder rides the same
    // observer pipeline: the `viol`/`rec occ` columns below read its
    // stream counters.
    unp::trace::reset_stream_stats();
    let monitor = unp::trace::attach(Box::new(Monitor::with_recorder(256)));

    let transfers = [
        (80u16, 400_000u64, 4096usize),
        (81, 200_000, 1024),
        (82, 100_000, 512),
    ];
    let mut stats = Vec::new();
    for &(port, total, user_packet) in &transfers {
        let st = TransferStats::new_shared();
        let st2 = Rc::clone(&st);
        // One server-side tenant per listener, so the per-tenant columns
        // below show three distinct budgeted rows.
        listen_as(
            &mut world,
            1,
            OwnerTag(u64::from(port) - 79),
            port,
            TcpConfig::bulk_transfer(),
            Box::new(move || Box::new(SinkApp::new(Rc::clone(&st2)))),
        );
        connect(
            &mut world,
            &mut engine,
            0,
            (host1_addr, port),
            TcpConfig::bulk_transfer(),
            Box::new(BulkSender::new(total, user_packet)),
            user_packet,
        );
        stats.push((port, total, st));
    }

    // 1% seeded loss (with half-rate duplication, corruption and
    // reordering) so the retransmit and fault columns have something to
    // show.
    install_faults(&mut world, &mut engine, FaultPlan::lossy(7, 0.01));

    // Ring-slot budgets for the server-side tenants, so the quota-drop
    // and ring-share columns are live: generous for the big transfer,
    // tight for the small one.
    for (tenant, ring_slots) in [(1u64, 256usize), (2, 64), (3, 40)] {
        world.hosts[1].netio.set_tenant_budget(
            OwnerTag(tenant),
            TenantBudget {
                ring_slots,
                tx_credit: 0,
                max_channels: 0,
            },
        );
    }

    let header = format!(
        "{:<9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>8} {:>9} {:>5} {:>5} {:>5} {:>7}",
        "sim time",
        "rx pps",
        "tx pps",
        "rexmit/s",
        "rex %",
        "flow %",
        "keyed %",
        "listen %",
        "tbl f/l",
        "ring avg",
        "batch avg",
        "conns",
        "chans",
        "viol",
        "rec occ"
    );
    if !redraw {
        println!("{header}");
    }

    let slice = 100_000_000; // 100 ms of simulated time per window
    let mut deadline = slice;
    let mut prev = world.metrics.snapshot(engine.now());
    let mut prev_qdrops: BTreeMap<(u16, u64), u64> = BTreeMap::new();
    let mut rows: Vec<String> = Vec::new();
    loop {
        engine.run_until(&mut world, deadline);
        let snap = world.metrics.snapshot(engine.now());
        let w = snap.window_since(&prev);
        let (flow_tbl, listen_tbl) = world.hosts.iter().fold((0, 0), |(f, l), h| {
            (f + h.netio.flow_table_len(), l + h.netio.listen_table_len())
        });
        let stream = unp::trace::stream_stats();
        let mut row = format!(
            "{:<9} {:>9.0} {:>9.0} {:>9.1} {:>7} {:>7} {:>7} {:>8} {:>7} {:>8} {:>9} {:>5} {:>5} {:>5} {:>7}",
            fmt_nanos(snap.time),
            w.rx_pps(),
            w.tx_pps(),
            w.rexmit_per_sec(),
            pct(w.rexmit_share()),
            pct(w.flow_hit_rate()),
            pct(w.keyed_hit_rate()),
            pct(w.listen_hit_rate()),
            format!("{flow_tbl}/{listen_tbl}"),
            w.mean_ring_depth()
                .map_or("-".into(), |d| format!("{d:.2}")),
            w.hist_mean(Hist::WakeupBatchFrames)
                .map_or("-".into(), |b| format!("{b:.2}")),
            snap.gauge(Gauge::ActiveConnections),
            snap.gauge(Gauge::OpenChannels),
            stream.violations,
            stream.recorder_occupancy,
        );
        // Per-tenant sub-line: windowed quota-drop rate and current
        // share of each budgeted tenant's ring quota.
        let secs = slice as f64 / 1e9;
        let mut cells = Vec::new();
        for (host, tenant, t) in tenants(&world) {
            let before = prev_qdrops
                .insert((host, tenant), t.quota_drops)
                .unwrap_or(0);
            cells.push(format!(
                "h{host}t{tenant} {:>5.1} qd/s ring {:>4}",
                (t.quota_drops - before) as f64 / secs,
                t.ring_share()
                    .map_or("-".into(), |r| format!("{:.0}%", r * 100.0)),
            ));
        }
        if !cells.is_empty() {
            row.push_str(&format!("\n{:<9} {}", "  tenants", cells.join("  ")));
        }
        if redraw {
            // Home the cursor and repaint the whole table each slice, the
            // way `top` does; the scrollback stays clean.
            rows.push(row);
            print!("\x1b[2J\x1b[H{header}\n{}\n", rows.join("\n"));
        } else {
            println!("{row}");
        }
        prev = snap;
        let done = stats
            .iter()
            .all(|(_, total, st)| st.borrow().bytes_received == *total);
        if done || deadline > 300_000_000_000 {
            break;
        }
        deadline += slice;
    }
    // Drain the close handshakes and 2MSL timers so every connection
    // retires (filling its metrics scope) and the journal ends on a quiet
    // wire with every in-flight frame at an outcome.
    engine.run(&mut world, u64::MAX);
    println!();

    for (port, total, st) in &stats {
        let s = st.borrow();
        println!(
            "transfer :{port}  {} / {} bytes, {:.2} Mb/s",
            s.bytes_received,
            total,
            s.throughput_bps().unwrap_or(0.0) / 1e6
        );
        assert_eq!(s.bytes_received, *total, "transfer on :{port} incomplete");
    }
    println!();

    // Retired connections: the per-connection scopes.
    println!("-- per-connection stats (filled at retirement) --");
    println!(
        "{:<22} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9} {:>10}",
        "conn", "segs_out", "segs_in", "to_app", "rexmit", "flow_hit", "scan_fb", "srtt"
    );
    let mut conns: Vec<_> = world.metrics.conns().collect();
    conns.sort_by_key(|(k, _)| (k.host, k.local_port, k.remote_port));
    for (k, c) in conns {
        let ip = k.remote_ip;
        println!(
            "{:<22} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9} {:>10}",
            format!(
                "h{}:{} <-> {}.{}.{}.{}:{}",
                k.host, k.local_port, ip[0], ip[1], ip[2], ip[3], k.remote_port
            ),
            c.segs_out,
            c.segs_in,
            c.bytes_to_app,
            c.bytes_rexmit,
            c.flow_hits,
            c.scan_fallbacks,
            c.srtt.map_or("-".into(), fmt_nanos),
        );
    }
    println!();

    // The kernel's per-channel counters, keyed (host, channel id).
    println!("-- per-channel stats --");
    let mut chans: Vec<_> = world.metrics.channels().collect();
    chans.sort_by_key(|(k, _)| **k);
    for ((host, id), ch) in chans {
        println!(
            "h{host} chan {id:<3} delivered {:>6}  batched {:>6}  flow hits {:>6}  scan fallbacks {:>4}",
            ch.delivered, ch.batched, ch.flow_hits, ch.scan_fallbacks
        );
    }
    println!();

    // Per-tenant totals: what each tenant received, sent, and had
    // charged against its quotas.
    println!("-- per-tenant stats --");
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>6}",
        "tenant", "rx_frames", "tx_frames", "qdrops", "tx_rej", "ring", "chans"
    );
    for (host, tenant, t) in tenants(&world) {
        let quota = if t.ring_quota == 0 {
            "inf".into()
        } else {
            t.ring_quota.to_string()
        };
        println!(
            "h{host} t{tenant:<6} {:>9} {:>9} {:>7} {:>7} {:>9} {:>6}",
            t.rx_delivered,
            t.tx_frames,
            t.quota_drops,
            t.tx_rejections,
            format!("{}/{quota}", t.ring_slots),
            t.open_channels,
        );
    }
    println!();

    // Pull the monitor back off the pipeline and report what it checked.
    // This workload is conformant, faults and all (loss is legal,
    // protocol lies are not): any violation prints its typed line as the
    // postmortem's starting point and fails the run.
    let mon = unp::trace::detach_as::<Monitor>(monitor).expect("monitor still attached");
    let c = mon.checked();
    println!("-- conformance monitor --");
    println!(
        "violations {}  recorder {} records held",
        mon.total_violations(),
        mon.recorder_occupancy(),
    );
    println!(
        "checked: {} acks, {} transitions, {} rexmits, {} ring, {} pool, {} classify, {} quota",
        c.tcp_acks,
        c.transitions,
        c.rexmits,
        c.ring_events,
        c.pool_events,
        c.demux_classifies,
        c.quota_drops,
    );
    for v in mon.violations().iter().take(5) {
        println!("  {}", v.line());
    }
    println!();
    assert_eq!(
        unp::trace::stream_stats().violations,
        mon.total_violations(),
        "the viol column disagrees with the monitor"
    );
    assert_eq!(mon.total_violations(), 0, "conformant run flagged");

    // Fault injection: what the plan did to the wire, and what the stack
    // noticed (a corrupted frame only counts as discarded once a
    // checksum actually catches it).
    println!("-- fault injection --");
    println!(
        "injected: {} dropped, {} duplicated, {} reordered, {} corrupted, {} outage-dropped",
        world.metrics.get(Ctr::FaultDrops),
        world.metrics.get(Ctr::FaultDups),
        world.metrics.get(Ctr::FaultReorders),
        world.metrics.get(Ctr::FaultCorrupts),
        world.metrics.get(Ctr::FaultOutageDrops),
    );
    let rexmit: u64 = world.metrics.conns().map(|(_, c)| c.bytes_rexmit).sum();
    println!(
        "recovered: {} corrupt frames discarded by checksum, {} bytes retransmitted",
        world.metrics.get(Ctr::FrameCorruptDiscards),
        rexmit,
    );
    for ((from, to), l) in world.metrics.links() {
        println!(
            "link h{from}->h{to}: drops {} dups {} reorders {} corrupts {} outage {}",
            l.drops, l.dups, l.reorders, l.corrupts, l.outage_drops
        );
    }
    println!();

    // The registry handoff: bindings whose deliveries kept missing the
    // flow-table fast path would be listed here.
    for (h, host) in world.hosts.iter().enumerate() {
        let reg = &host.registry;
        println!(
            "h{h} registry: {} binding reports, {} flagged as missing the fast path",
            reg.binding_reports().len(),
            reg.flagged_bindings().len()
        );
        for b in reg.flagged_bindings() {
            println!(
                "  :{} <-> {:?}:{}  scan fallbacks {} > flow hits {}",
                b.local_port, b.remote.0, b.remote.1, b.stats.scan_fallbacks, b.stats.flow_hits
            );
        }
    }
    println!();

    // Join the journal into per-frame path traces and decompose the
    // delivered frames' end-to-end latency by pipeline stage.
    let records = unp::trace::journal_stop();
    assert!(!records.is_empty(), "the journal recorded nothing");
    let profile = Profile::build(&records);
    profile
        .check_consistency()
        .expect("profiler invariants hold");

    println!(
        "-- path outcomes ({} frames traced) --",
        profile.traces.len()
    );
    for o in PathOutcome::ALL {
        let n = profile.outcome_count(o);
        if n > 0 {
            println!("  {:<17} {n:>7}", o.label());
        }
    }
    println!();

    println!(
        "-- receive-path latency decomposition ({} delivered frames) --",
        profile.delivered()
    );
    println!(
        "{:<15} {:>7} {:>12} {:>12} {:>12} {:>7}",
        "stage", "frames", "mean", "p50", "p99", "share"
    );
    let total_ns: u128 = profile.stages.iter().map(|h| h.sum()).sum();
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let h = &profile.stages[i];
        if h.count() == 0 {
            continue;
        }
        println!(
            "{:<15} {:>7} {:>12} {:>12} {:>12} {:>6.1}%",
            stage.label(),
            h.count(),
            h.mean().map_or("-".into(), |m| fmt_nanos(m as u64)),
            h.quantile(0.5).map_or("-".into(), fmt_nanos),
            h.quantile(0.99).map_or("-".into(), fmt_nanos),
            100.0 * h.sum() as f64 / total_ns.max(1) as f64,
        );
    }
    println!(
        "{:<15} {:>7} {:>12} {:>12} {:>12}",
        "end-to-end",
        profile.end_to_end.count(),
        profile
            .end_to_end
            .mean()
            .map_or("-".into(), |m| fmt_nanos(m as u64)),
        profile
            .end_to_end
            .quantile(0.5)
            .map_or("-".into(), fmt_nanos),
        profile
            .end_to_end
            .quantile(0.99)
            .map_or("-".into(), fmt_nanos),
    );
    println!();

    println!("-- folded stacks (flamegraph input) --");
    print!("{}", profile.folded());
}
