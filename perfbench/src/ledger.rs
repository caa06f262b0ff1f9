//! The per-layer ledger of a traced run. Each layer's host cost is
//! measured by replaying the run's own traffic through that layer's
//! public function, against the world's live state after drain, and is
//! scaled by the number of times the run invoked it. The residual is the
//! traced wall time no replay covers: the `world.rs` glue.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use unp_buffers::OwnerTag;
use unp_core::world::Nic;
use unp_core::{Host, Network, World};
use unp_filter::programs::DemuxSpec;
use unp_kernel::{ChannelId, HeaderTemplate};
use unp_sim::Engine;
use unp_tcp::loopback::{ChannelModel, Loopback, Side};
use unp_tcp::TcpConfig;
use unp_timers::{TimerService, TimerWheel};
use unp_trace::Ctr;
use unp_wire::{
    EtherType, IpProtocol, Ipv4Addr, Ipv4Packet, TcpPacket, TcpRepr, AN1_HEADER_LEN,
    ETHERNET_HEADER_LEN,
};

use crate::common::median;
use crate::probe::{Captured, Probe};

/// Each replay repeats over its inputs until it has run this long.
const REPLAY_MIN: Duration = Duration::from_millis(20);

/// A TCP flow as the receiving host sees it: (local, remote) endpoints.
type Flow = ((Ipv4Addr, u16), (Ipv4Addr, u16));

fn link_header_len(network: Network) -> usize {
    match network {
        Network::Ethernet => ETHERNET_HEADER_LEN,
        Network::An1 => AN1_HEADER_LEN,
    }
}

/// The receiving host's view of a captured TCP frame.
fn flow_of(c: &Captured) -> Option<Flow> {
    let ip = Ipv4Packet::new_checked(c.bytes.get(link_header_len(c.network)..)?).ok()?;
    if ip.protocol() != IpProtocol::Tcp {
        return None;
    }
    let tcp = TcpPacket::new_checked(ip.payload()).ok()?;
    Some(((ip.dst(), tcp.dst_port()), (ip.src(), tcp.src_port())))
}

/// The world's hosts are `10.0.0.(index + 1)`.
fn host_index(ip: Ipv4Addr) -> usize {
    ip.0[3] as usize - 1
}

/// The channel the registry would create for `flow` on `host`.
pub fn connection_channel(host: &Host, flow: Flow) -> (DemuxSpec, HeaderTemplate) {
    let lhl = match host.nic {
        Nic::Lance(_) => ETHERNET_HEADER_LEN,
        Nic::An1(_) => AN1_HEADER_LEN,
    };
    let (local, remote) = flow;
    let spec = unp_registry::connection_demux_spec(lhl, local, remote);
    let template = HeaderTemplate {
        link_header_len: lhl,
        src_mac: Some(host.mac),
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: local.0,
        dst_ip: remote.0,
        src_port: local.1,
        dst_port: Some(remote.1),
        bqi: None,
    };
    (spec, template)
}

fn open_channel(w: &mut World, h: usize, flow: Flow) -> ChannelId {
    let (spec, template) = connection_channel(&w.hosts[h], flow);
    let slot = w.link.params().mtu + ETHERNET_HEADER_LEN + 8;
    let owner = OwnerTag(h as u64 + 1);
    let (id, ..) = w.hosts[h]
        .netio
        .create_channel(owner, &spec, template, 768, slot);
    w.hosts[h].netio.activate(id);
    id
}

/// Repeats `pass` until [`REPLAY_MIN`] has elapsed; returns host ns per
/// unit, where one pass does `units` units.
fn per_unit(units: u64, mut pass: impl FnMut()) -> f64 {
    if units == 0 {
        return 0.0;
    }
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed() < REPLAY_MIN {
        pass();
        passes += 1;
    }
    t.elapsed().as_nanos() as f64 / (passes * units) as f64
}

/// The replayed per-unit host costs.
#[derive(Default)]
struct Replays {
    dispatch_ns: f64,
    parse_verify_ns: f64,
    checksum_ns_per_kb: f64,
    alloc_ns: f64,
    classify_ns: f64,
    scan_ns: f64,
    churn_ns: f64,
    bqi_ns: f64,
    loopback_ns_per_segment: f64,
    timer_op_ns: f64,
}

/// How the workload drives TCP, for the loopback replay.
pub struct LoopbackShape {
    pub cfg: TcpConfig,
    /// Application write size; writes wait for delivery when `lockstep`.
    pub write: usize,
    pub lockstep: bool,
    pub loss: f64,
}

fn dispatch_ns(events: u64) -> f64 {
    fn tick(left: &mut u64, eng: &mut Engine<u64>) {
        *left -= 1;
        if *left > 0 {
            eng.after(1, tick);
        }
    }
    let n = events.clamp(1, 5_000_000);
    per_unit(n, || {
        let mut eng: Engine<u64> = Engine::new();
        let mut left = n;
        eng.at(0, tick);
        while eng.step(&mut left) {}
    })
}

fn parse_verify(c: &Captured) -> Option<TcpRepr> {
    let ip = Ipv4Packet::new_checked(&c.bytes[link_header_len(c.network)..]).ok()?;
    let pkt = TcpPacket::new_checked(ip.payload()).ok()?;
    pkt.verify_checksum(ip.src(), ip.dst())
        .then(|| TcpRepr::parse(&pkt))
}

/// Classifies each Ethernet frame on its receiving host with a sliding
/// population of connection channels no larger than that host's peak,
/// as the run had; returns (classify ns, scan ns) per frame.
fn classify_replay(w: &mut World, frames: &[&Captured], peaks: &[usize]) -> (f64, f64) {
    let mut by_host: BTreeMap<usize, Vec<(Flow, &[u8])>> = BTreeMap::new();
    for c in frames {
        let Some(flow) = flow_of(c) else { continue };
        let h = host_index(flow.0 .0);
        if h < w.hosts.len() {
            by_host.entry(h).or_default().push((flow, &c.bytes));
        }
    }
    let n: u64 = by_host.values().map(|v| v.len() as u64).sum();
    if n == 0 {
        return (0.0, 0.0);
    }
    let (mut classify, mut scan) = (Duration::ZERO, Duration::ZERO);
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed() < REPLAY_MIN {
        passes += 1;
        for (&h, frames) in &by_host {
            let cap = peaks.get(h).copied().unwrap_or(1).max(1);
            let mut pop: VecDeque<(Flow, ChannelId)> = VecDeque::new();
            let mut batch: Vec<&[u8]> = Vec::new();
            let mut flush = |w: &mut World, batch: &mut Vec<&[u8]>| {
                let netio = &w.hosts[h].netio;
                let t0 = Instant::now();
                for f in batch.iter() {
                    black_box(netio.classify(f));
                }
                let t1 = Instant::now();
                for f in batch.iter() {
                    black_box(netio.classify_scan_reference(f));
                }
                classify += t1 - t0;
                scan += t1.elapsed();
                batch.clear();
            };
            for &(flow, bytes) in frames {
                if !pop.iter().any(|(f, _)| *f == flow) {
                    flush(w, &mut batch);
                    if pop.len() == cap {
                        let (_, id) = pop.pop_front().expect("full population");
                        w.hosts[h].netio.destroy_channel(id, OwnerTag(0));
                    }
                    pop.push_back((flow, open_channel(w, h, flow)));
                }
                batch.push(bytes);
            }
            flush(w, &mut batch);
            for (_, id) in pop {
                w.hosts[h].netio.destroy_channel(id, OwnerTag(0));
            }
        }
    }
    let per = |d: Duration| d.as_nanos() as f64 / (passes * n) as f64;
    (per(classify), per(scan))
}

/// Create, activate and destroy one channel on a host that already holds
/// `population` channels; host ns per cycle.
fn churn_ns(w: &mut World, population: usize) -> f64 {
    let h = 0;
    let local = (w.hosts[h].ip, 9);
    let remote =
        |i: usize| -> (Ipv4Addr, u16) { (Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8), 1024) };
    let pop: Vec<ChannelId> = (0..population.max(1))
        .map(|i| open_channel(w, h, (local, remote(i))))
        .collect();
    let extra = (local, remote(population.max(1)));
    let ns = per_unit(64, || {
        for _ in 0..64 {
            let id = open_channel(w, h, extra);
            w.hosts[h].netio.destroy_channel(id, OwnerTag(0));
        }
    });
    for id in pop {
        w.hosts[h].netio.destroy_channel(id, OwnerTag(0));
    }
    ns
}

fn loopback_ns_per_segment(bytes: u64, shape: &LoopbackShape, seed: u64) -> f64 {
    let total = bytes.clamp(4096, 1 << 20) as usize;
    let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    let chan = if shape.loss > 0.0 {
        ChannelModel::lossy(seed, shape.loss)
    } else {
        ChannelModel::clean()
    };
    let t = Instant::now();
    let (mut segments, mut passes) = (0u64, 0u64);
    while passes == 0 || t.elapsed() < REPLAY_MIN {
        passes += 1;
        let mut lb = Loopback::new(shape.cfg.clone(), shape.cfg.clone(), chan);
        if shape.lockstep {
            for chunk in data.chunks(shape.write.max(1)) {
                let want = lb.received(Side::B).len() + chunk.len();
                lb.send(Side::A, chunk);
                lb.run_until(10_000_000, |lb| lb.received(Side::B).len() >= want);
            }
        } else {
            lb.send(Side::A, &data);
            lb.run_until(50_000_000, |lb| lb.received(Side::B).len() >= total);
        }
        segments += lb.segments_carried;
    }
    t.elapsed().as_nanos() as f64 / segments.max(1) as f64
}

fn timer_op_ns(population: usize) -> f64 {
    let mut wheel: TimerWheel<u32> = TimerWheel::new(0);
    for i in 0..population.max(1) {
        wheel.start(1_000_000 + i as u64 * 997, i as u32);
    }
    let mut k = 0u64;
    per_unit(1024, || {
        for _ in 0..1024 {
            k += 1;
            let id = wheel.start(1_000_000 + (k * 7919) % 1_000_000_000, 0);
            black_box(wheel.stop(id));
        }
    })
}

fn replay(probe: &mut Probe, shape: &LoopbackShape, seed: u64) -> Replays {
    let mut r = Replays::default();
    let span = |probe: &mut Probe, name: &'static str, t0: Instant| {
        probe.span(name, 0, 0, t0, Instant::now());
    };

    let t0 = Instant::now();
    r.dispatch_ns = dispatch_ns(probe.events);
    span(probe, "replay.sim", t0);

    let t0 = Instant::now();
    let tcp: Vec<&Captured> = probe
        .frames
        .iter()
        .filter(|c| flow_of(c).is_some())
        .collect();
    r.parse_verify_ns = per_unit(tcp.len() as u64, || {
        for c in &tcp {
            black_box(parse_verify(c));
        }
    });
    let kb = probe.frames.iter().map(|c| c.bytes.len()).sum::<usize>() as f64 / 1024.0;
    let ns_per_pass = per_unit(1, || {
        for c in &probe.frames {
            black_box(unp_wire::checksum::checksum(&c.bytes));
        }
    });
    r.checksum_ns_per_kb = if kb > 0.0 { ns_per_pass / kb } else { 0.0 };
    span(probe, "replay.wire", t0);

    let t0 = Instant::now();
    if let Some(w) = probe.live_ethernet.as_ref().or(probe.live_an1.as_ref()) {
        let pool = w.pool.clone();
        r.alloc_ns = per_unit(probe.frames.len() as u64, || {
            for c in &probe.frames {
                black_box(pool.alloc(0, &c.bytes));
            }
        });
    }
    span(probe, "replay.buffers", t0);

    let t0 = Instant::now();
    let peaks = probe.channels_peak.clone();
    let ethernet: Vec<&Captured> = probe
        .frames
        .iter()
        .filter(|c| c.network == Network::Ethernet)
        .collect();
    if let Some(w) = probe.live_ethernet.as_mut() {
        (r.classify_ns, r.scan_ns) = classify_replay(w, &ethernet, &peaks);
        r.churn_ns = churn_ns(w, peaks.iter().copied().max().unwrap_or(1));
    }
    span(probe, "replay.kernel", t0);

    let t0 = Instant::now();
    let an1: Vec<(usize, &[u8])> = probe
        .frames
        .iter()
        .filter(|c| c.network == Network::An1)
        .filter_map(|c| flow_of(c).map(|f| (host_index(f.0 .0), c.bytes.as_slice())))
        .collect();
    if let Some(w) = probe.live_an1.as_mut() {
        let n = an1.len() as u64;
        r.bqi_ns = per_unit(n, || {
            for &(h, bytes) in &an1 {
                if let Nic::An1(nic) = &mut w.hosts[h].nic {
                    black_box(nic.classify(bytes));
                }
            }
        });
    }
    span(probe, "replay.netdev", t0);

    let t0 = Instant::now();
    r.loopback_ns_per_segment = loopback_ns_per_segment(probe.payload_bytes, shape, seed);
    span(probe, "replay.tcp", t0);

    let t0 = Instant::now();
    r.timer_op_ns = timer_op_ns(probe.timers_peak);
    span(probe, "replay.timers", t0);
    r
}

/// The walls the ledger splits: the traced iteration the probe recorded
/// and the untraced iterations paired with each traced one.
pub struct Walls {
    pub traced_s: f64,
    pub overhead_ratios: Vec<f64>,
    pub monitor_live: bool,
}

/// Replays every layer and returns the per-layer metrics, in order.
pub fn per_layer(
    probe: &mut Probe,
    walls: &Walls,
    shape: &LoopbackShape,
    seed: u64,
) -> Vec<(String, f64, &'static str)> {
    let r = replay(probe, shape, seed);
    probe.live_ethernet = None;
    probe.live_an1 = None;
    probe.live_frames_end = unp_buffers::live_frames();
    let p = &*probe;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let fs = p.frame_stats;
    let allocs = fs.frames_fresh + fs.frames_recycled;
    let discards = p.get(Ctr::IpBad)
        + p.get(Ctr::TcpBadChecksum)
        + p.get(Ctr::FrameCorruptDiscards)
        + p.get(Ctr::TcpMalformed);
    let mut connect_us = p.connect_us.clone();
    connect_us.sort_by(f64::total_cmp);
    let overhead = median(&walls.overhead_ratios);

    // The ledger: replayed cost per call times calls made, per layer.
    // TCP is not a term: the loopback harness's cost per segment includes
    // its own event loop and buffers and overstates the in-world TCB cost
    // many times over (the gap ROADMAP asks to attribute), so TCB
    // processing stays in the residual with the world glue.
    let traced_ns = walls.traced_s * 1e9;
    let untraced_ns = if overhead > 0.0 {
        traced_ns / overhead
    } else {
        traced_ns
    };
    let monitor_ns_per_record = ratio(p.monitor_ns as f64, p.journal_records as f64);
    let layers: [(&str, f64); 8] = [
        ("sim", r.dispatch_ns * p.events as f64),
        (
            "wire",
            r.parse_verify_ns * p.wire_frames as f64
                + r.checksum_ns_per_kb * p.wire_bytes as f64 / 1024.0,
        ),
        ("buffers", r.alloc_ns * allocs as f64),
        ("filter", r.scan_ns * p.demux_scan as f64),
        (
            "kernel",
            r.classify_ns * p.demux_packets as f64 + r.churn_ns * p.channels_created as f64,
        ),
        ("netdev", r.bqi_ns * p.an1_rx as f64),
        ("timers", r.timer_op_ns * p.timer_starts as f64),
        (
            "trace",
            (traced_ns - untraced_ns).max(0.0)
                + if walls.monitor_live {
                    monitor_ns_per_record * p.journal_records as f64
                } else {
                    0.0
                },
        ),
    ];
    let covered: f64 = layers.iter().map(|(_, ns)| ns).sum();

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    put("sim.events", p.events as f64, "count");
    put(
        "sim.step_ns_p50",
        p.step_ns.quantile(0.5).unwrap_or(0) as f64,
        "ns",
    );
    put(
        "sim.step_ns_p99",
        p.step_ns.quantile(0.99).unwrap_or(0) as f64,
        "ns",
    );
    put("sim.dispatch_ns", r.dispatch_ns, "ns");
    put("wire.frames", p.wire_frames as f64, "count");
    put("wire.bytes", p.wire_bytes as f64, "bytes");
    put("wire.parse_verify_ns", r.parse_verify_ns, "ns");
    put("wire.checksum_ns_per_kb", r.checksum_ns_per_kb, "ns/KiB");
    put(
        "buffers.fresh_per_frame",
        ratio(fs.frames_fresh as f64, p.wire_frames as f64),
        "ratio",
    );
    put(
        "buffers.copied_per_payload_byte",
        ratio(fs.bytes_copied as f64, p.payload_bytes as f64),
        "ratio",
    );
    put("buffers.cow_copies", fs.cow_copies as f64, "count");
    put("buffers.alloc_ns", r.alloc_ns, "ns");
    put("buffers.live_frames_end", p.live_frames_end as f64, "count");
    put(
        "filter.scan_share",
        ratio(p.demux_scan as f64, p.demux_packets as f64),
        "ratio",
    );
    put("filter.scan_ns", r.scan_ns, "ns");
    put("kernel.classify_ns", r.classify_ns, "ns");
    put(
        "kernel.keyed_hit_rate",
        ratio(p.demux_keyed as f64, p.demux_packets as f64),
        "ratio",
    );
    put("kernel.ring_drops", p.get(Ctr::ChRingDrops) as f64, "count");
    put(
        "kernel.quota_drops",
        p.get(Ctr::ChQuotaDrops) as f64,
        "count",
    );
    put(
        "kernel.wakeup_frames_mean",
        ratio(p.wakeup_frames as f64, p.wakeups as f64),
        "frames",
    );
    put("kernel.churn_ns", r.churn_ns, "ns");
    put(
        "kernel.channels_peak",
        p.channels_peak.iter().copied().max().unwrap_or(0) as f64,
        "count",
    );
    put("netdev.nic_drops", p.get(Ctr::NicDrops) as f64, "count");
    put("netdev.bqi_classify_ns", r.bqi_ns, "ns");
    put("proto.discards", discards as f64, "count");
    put("tcp.segments", p.segments as f64, "count");
    put(
        "tcp.rexmit_share",
        ratio(
            p.get(Ctr::TcpRexmitSegs) as f64,
            p.get(Ctr::FramesSent) as f64,
        ),
        "ratio",
    );
    put("tcp.rtt_samples", p.get(Ctr::TcpRttSamples) as f64, "count");
    put(
        "tcp.loopback_ns_per_segment",
        r.loopback_ns_per_segment,
        "ns",
    );
    put("timers.pending_peak", p.timers_peak as f64, "count");
    put("timers.op_ns", r.timer_op_ns, "ns");
    put("registry.connects", p.connects as f64, "count");
    put(
        "registry.inherited",
        p.get(Ctr::ConnectionsInherited) as f64,
        "count",
    );
    put(
        "registry.handshake_failures",
        p.get(Ctr::HandshakeFailures) as f64,
        "count",
    );
    put("registry.ports_held", p.ports_held as f64, "count");
    put(
        "registry.connect_us_p50",
        crate::common::quantile(&connect_us, 0.5),
        "us",
    );
    put("trace.journal_records", p.journal_records as f64, "count");
    put("trace.overhead_ratio", overhead, "ratio");
    put("trace.monitor_ns_per_record", monitor_ns_per_record, "ns");
    put("trace.monitor_checks", p.monitor_checks as f64, "count");
    put("trace.violations", p.violations as f64, "count");
    put("trace.conn_scopes", p.conn_scopes as f64, "count");
    for (layer, ns) in layers {
        let name = format!("{layer}.wall_share");
        m.push((name, ratio(ns, traced_ns), "ratio"));
    }
    m.push((
        "core.residual_share".into(),
        ratio(traced_ns - covered, traced_ns),
        "ratio",
    ));
    m
}
