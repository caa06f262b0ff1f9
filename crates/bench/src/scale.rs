//! Million-channel demux scale sweep — `BENCH_demux_scale.json`.
//!
//! Pushes the churn/classify measurements past the `--profile` sweep's
//! 4096-channel ceiling into the 10^5–10^6 range the ISSUE's incremental
//! maintenance targets. At each N the module holds a mixed population
//! (exact connection bindings, fully-wildcard listen bindings, and
//! half-specified residual bindings, in the ratios a busy server would
//! see), and we measure, in host wall-clock ns/op:
//!
//! * **churn** — one create→activate→destroy cycle at population N. With
//!   incremental maintenance this is O(log N) and should stay roughly
//!   flat; the from-scratch `force_rebuild_active` oracle alongside it is
//!   O(N) and shows what every single event used to cost.
//! * **per-tier classify** — one frame resolved by each tier: exact
//!   5-tuple flow table, 3-tuple listen table, and the residual filter
//!   scan (worst case: the last residual binding).
//! * **memory** — table populations and [`NetIoModule::demux_mem_bytes`],
//!   the demux-structure footprint excluding ring payload memory.

use unp_buffers::OwnerTag;
use unp_filter::programs::DemuxSpec;
use unp_kernel::{DemuxPath, NetIoModule};
use unp_trace::json::Value;
use unp_wire::Ipv4Repr;
use unp_wire::{EtherType, EthernetRepr, IpProtocol, Ipv4Addr, MacAddr, SeqNum, TcpFlags, TcpRepr};

use crate::demux::{spec_for, template_for, time_ns};

/// The channel counts the scale sweep visits (8 → 10^6).
pub const SCALE_COUNTS: [usize; 7] = [8, 64, 512, 4096, 65_536, 262_144, 1_000_000];

/// Out of every [`MIX_PERIOD`] channels, one is a listen binding and one a
/// residual (half-specified) binding; the rest are exact connections.
const MIX_PERIOD: usize = 64;

/// One point of the scale sweep.
pub struct ScalePoint {
    /// Total active channels installed.
    pub channels: usize,
    /// One create→activate→destroy cycle (incremental maintenance).
    pub churn_ns: f64,
    /// One from-scratch `force_rebuild_active` pass (the old per-event cost).
    pub rebuild_ns: f64,
    /// Classify resolved by the exact-match flow table.
    pub flow_ns: f64,
    /// Classify resolved by the 3-tuple listen table.
    pub listen_ns: f64,
    /// Classify resolved by the residual filter scan (last binding).
    pub scan_ns: f64,
    /// Exact-match entries in the flow table.
    pub flow_table_len: usize,
    /// 3-tuple entries in the listen table.
    pub listen_table_len: usize,
    /// Demux-structure footprint in bytes (tables + scan order + Fenwick
    /// + residual set; excludes ring payload memory).
    pub mem_bytes: usize,
}

/// The spec for slot `i` of the mixed population. Every [`MIX_PERIOD`]th
/// pair of slots is a listen binding and a residual binding; each
/// category owns a disjoint local-address space so a frame aimed at one
/// tier can never be stolen by another.
pub fn mixed_spec(i: usize) -> DemuxSpec {
    let k = i / MIX_PERIOD;
    let (a, b) = ((k / 250) as u8, (k % 250) as u8);
    match i % MIX_PERIOD {
        // Listen binding: local fully specified, remote fully wildcard.
        // Slots 2/3 (not the period's tail) so even the smallest sweep
        // point (8 channels) holds every tier.
        2 => DemuxSpec {
            link_header_len: 14,
            protocol: IpProtocol::Tcp,
            local_ip: Ipv4Addr::new(10, 2, a, b),
            local_port: 81,
            remote_ip: None,
            remote_port: None,
        },
        // Residual binding: half-specified remote, undistillable.
        3 => DemuxSpec {
            link_header_len: 14,
            protocol: IpProtocol::Tcp,
            local_ip: Ipv4Addr::new(10, 3, a, b),
            local_port: 82,
            remote_ip: Some(Ipv4Addr::new(10, 9, 0, 1)),
            remote_port: None,
        },
        // Exact connection binding (the common case).
        _ => spec_for(i),
    }
}

/// A TCP frame from `remote` to `local`.
pub fn frame_to(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16)) -> Vec<u8> {
    let seg = TcpRepr {
        src_port: remote.1,
        dst_port: local.1,
        seq: SeqNum(1),
        ack_num: SeqNum(0),
        flags: TcpFlags::ack(),
        window: 8192,
        mss: None,
    }
    .build_segment(remote.0, local.0, &[0u8; 64]);
    let ip = Ipv4Repr::simple(remote.0, local.0, IpProtocol::Tcp, seg.len());
    EthernetRepr {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype: EtherType::Ipv4,
    }
    .build_frame(&ip.build_packet(&seg))
}

/// Builds the mixed-population module at size `n` (one-slot rings so the
/// measured footprint is the demux structures, not ring capacity) plus
/// one probe frame per tier.
///
/// The keyed probes target the *first*-installed exact and listen
/// bindings (ids 0 and 2, below the first residual id 3): first-match
/// semantics make any keyed hit verify no lower-id residual binding
/// shadows it, so probing early ids keeps that shadow window empty and
/// the measurement isolates pure tier cost. The scan probe targets the
/// *last* residual binding — the filter scan's worst case, walking the
/// entire residual set.
pub fn scale_module(n: usize) -> (NetIoModule, Vec<u8>, Vec<u8>, Vec<u8>) {
    assert!(n >= 4, "population must include every tier");
    let mut m = NetIoModule::new();
    let mut last_residual = 3usize;
    for i in 0..n {
        let spec = mixed_spec(i);
        let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_for_any(&spec), 1, 2048);
        m.activate(id);
        if i % MIX_PERIOD == 3 {
            last_residual = i;
        }
    }
    let exact = mixed_spec(0);
    let flow_frame = frame_to(
        (exact.local_ip, exact.local_port),
        (
            exact.remote_ip.expect("exact spec"),
            exact.remote_port.expect("exact spec"),
        ),
    );
    let listen = mixed_spec(2);
    // From a remote no exact binding names: only the listen table matches.
    let listen_frame = frame_to(
        (listen.local_ip, listen.local_port),
        (Ipv4Addr::new(10, 8, 0, 1), 9999),
    );
    let residual = mixed_spec(last_residual);
    // Matches the last residual binding's filter and nothing keyed: the
    // classify walks the whole residual set before deciding.
    let scan_frame = frame_to(
        (residual.local_ip, residual.local_port),
        (residual.remote_ip.expect("residual spec"), 9999),
    );
    (m, flow_frame, listen_frame, scan_frame)
}

/// A header template for any spec shape (wildcard remotes allowed, unlike
/// the connection-only [`template_for`]).
fn template_for_any(spec: &DemuxSpec) -> unp_kernel::template::HeaderTemplate {
    if spec.remote_ip.is_some() && spec.remote_port.is_some() {
        return template_for(spec);
    }
    unp_kernel::template::HeaderTemplate {
        link_header_len: 14,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: spec.local_ip,
        dst_ip: spec.remote_ip.unwrap_or(Ipv4Addr::new(0, 0, 0, 0)),
        src_port: spec.local_port,
        dst_port: spec.remote_port,
        bqi: None,
    }
}

/// Runs the scale sweep. O(n) operations get proportionally fewer
/// iterations so total sweep work stays near-flat; `log()`-style progress
/// goes to stdout since the 10^6 point takes a few seconds to build.
pub fn scale_sweep() -> Vec<ScalePoint> {
    SCALE_COUNTS
        .iter()
        .map(|&n| {
            let (mut m, flow_frame, listen_frame, scan_frame) = scale_module(n);
            // Sanity: each probe frame resolves on its intended tier and
            // agrees with the linear-scan oracle before we time it.
            for (frame, want) in [
                (&flow_frame, DemuxPath::FlowTable),
                (&listen_frame, DemuxPath::ListenTable),
                (&scan_frame, DemuxPath::FilterScan),
            ] {
                let (t, i, path) = m.classify(frame);
                assert_eq!(path, want, "probe frame must hit its tier at n={n}");
                assert!(t.is_some(), "probe frame must match at n={n}");
                assert_eq!((t, i), m.classify_scan_reference(frame));
            }
            // Rebuild, classify and footprint are measured *before* churn:
            // every churn cycle mints a fresh channel id, so measuring
            // churn first would grow the id space (and the Fenwick the
            // O(N) rebuild walks) by iters slots, turning the rebuild
            // column into a measurement of the benchmark's own history.
            let rebuild_iters = (2_000_000 / n as u64).max(4);
            let rebuild_ns = time_ns(|| m.force_rebuild_active(), rebuild_iters, 3);
            let keyed = |frame: &Vec<u8>| {
                time_ns(
                    || {
                        std::hint::black_box(m.classify(std::hint::black_box(frame)));
                    },
                    200_000,
                    3,
                )
            };
            let flow_ns = keyed(&flow_frame);
            let listen_ns = keyed(&listen_frame);
            let scan_iters = (2_000_000 / n as u64).max(8);
            let scan_ns = time_ns(
                || {
                    std::hint::black_box(m.classify(std::hint::black_box(&scan_frame)));
                },
                scan_iters,
                3,
            );
            let (flow_table_len, listen_table_len, mem_bytes) = (
                m.flow_table_len(),
                m.listen_table_len(),
                m.demux_mem_bytes(),
            );
            let churn_iters = 50_000u64.min((2_000_000 / n as u64).max(1_000));
            let churn_ns = time_ns(
                || {
                    let spec = spec_for(n);
                    let (id, ..) =
                        m.create_channel(OwnerTag(1), &spec, template_for(&spec), 1, 2048);
                    m.activate(id);
                    assert!(m.destroy_channel(id, OwnerTag(1)));
                },
                churn_iters,
                3,
            );
            ScalePoint {
                channels: n,
                churn_ns,
                rebuild_ns,
                flow_ns,
                listen_ns,
                scan_ns,
                flow_table_len,
                listen_table_len,
                mem_bytes,
            }
        })
        .collect()
}

/// Prints the scale report.
pub fn print_report(points: &[ScalePoint]) {
    println!("== Demux at scale: mixed population, incremental churn, per-tier classify ==");
    println!("   (host wall-clock ns/op; mem = demux structures, not ring payloads)");
    println!(
        "  {:>9} {:>11} {:>13} {:>9} {:>9} {:>12} {:>10} {:>9} {:>10}",
        "channels",
        "churn (ns)",
        "rebuild (ns)",
        "flow",
        "listen",
        "scan",
        "flow tbl",
        "lstn tbl",
        "mem (MB)"
    );
    for p in points {
        println!(
            "  {:>9} {:>11.1} {:>13.1} {:>9.1} {:>9.1} {:>12.1} {:>10} {:>9} {:>10.2}",
            p.channels,
            p.churn_ns,
            p.rebuild_ns,
            p.flow_ns,
            p.listen_ns,
            p.scan_ns,
            p.flow_table_len,
            p.listen_table_len,
            p.mem_bytes as f64 / 1e6
        );
    }
    println!();
}

/// The sweep as a JSON value — `BENCH_demux_scale.json`.
pub fn to_json(points: &[ScalePoint]) -> Value {
    let mix = Value::obj([
        ("period", MIX_PERIOD.into()),
        ("listen_per_period", 1u64.into()),
        ("residual_per_period", 1u64.into()),
    ]);
    let point = |p: &ScalePoint| {
        Value::obj([
            ("channels", p.channels.into()),
            ("churn_cycle_ns", p.churn_ns.into()),
            ("rebuild_active_ns", p.rebuild_ns.into()),
            ("flow_classify_ns", p.flow_ns.into()),
            ("listen_classify_ns", p.listen_ns.into()),
            ("scan_classify_ns", p.scan_ns.into()),
            ("flow_table_len", p.flow_table_len.into()),
            ("listen_table_len", p.listen_table_len.into()),
            ("demux_mem_bytes", p.mem_bytes.into()),
        ])
    };
    Value::obj([
        ("benchmark", "demux_scale".into()),
        ("mix", mix),
        ("points", points.iter().map(point).collect()),
    ])
}

/// The CI churn-scaling gate: per-event churn must not scale with the
/// population. We require the 4096-channel churn cycle to stay within a
/// constant factor of the 64-channel one — the seed's O(N) rebuild was
/// ~56x here (62.8 µs vs 1.1 µs rebuild inside the cycle), so the bound
/// has real teeth while leaving generous room for timer noise on loaded
/// CI hosts.
pub const CHURN_GATE_FACTOR: f64 = 8.0;

/// Runs the gate measurement (small counts only — fast enough for CI).
/// Returns `(churn_at_64, churn_at_4096)`.
pub fn churn_gate_measure() -> (f64, f64) {
    let at = |n: usize| {
        let (mut m, ..) = scale_module(n);
        time_ns(
            || {
                let spec = spec_for(n);
                let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_for(&spec), 1, 2048);
                m.activate(id);
                assert!(m.destroy_channel(id, OwnerTag(1)));
            },
            20_000,
            5,
        )
    };
    (at(64), at(4096))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_trace::json::parse;

    #[test]
    fn scale_module_tiers_resolve_and_agree() {
        for n in [64usize, 256] {
            let (m, flow_frame, listen_frame, scan_frame) = scale_module(n);
            let (t, i, path) = m.classify(&flow_frame);
            assert_eq!(path, DemuxPath::FlowTable);
            assert_eq!((t, i), m.classify_scan_reference(&flow_frame));
            let (t, i, path) = m.classify(&listen_frame);
            assert_eq!(path, DemuxPath::ListenTable);
            assert_eq!((t, i), m.classify_scan_reference(&listen_frame));
            let (t, i, path) = m.classify(&scan_frame);
            assert_eq!(path, DemuxPath::FilterScan);
            assert_eq!((t, i), m.classify_scan_reference(&scan_frame));
            assert!(m.caches_match_rebuild());
        }
    }

    #[test]
    fn scale_module_populates_every_tier() {
        let (m, ..) = scale_module(256);
        assert_eq!(m.flow_table_len(), 256 - 2 * (256 / MIX_PERIOD));
        assert_eq!(m.listen_table_len(), 256 / MIX_PERIOD);
        assert!(m.demux_mem_bytes() > 0);
    }

    #[test]
    fn json_is_shaped() {
        let points = vec![ScalePoint {
            channels: 64,
            churn_ns: 100.0,
            rebuild_ns: 1000.0,
            flow_ns: 50.0,
            listen_ns: 55.0,
            scan_ns: 400.0,
            flow_table_len: 62,
            listen_table_len: 1,
            mem_bytes: 4096,
        }];
        let v = parse(&to_json(&points).render()).expect("report parses");
        let first = v
            .get("points")
            .and_then(Value::items)
            .and_then(<[_]>::first);
        assert_eq!(
            first
                .and_then(|p| p.get("demux_mem_bytes"))
                .and_then(Value::as_u64),
            Some(4096)
        );
    }
}
