//! Differential verification of the software-demux fast path.
//!
//! The kernel's three-tier demultiplexer (exact-match 5-tuple flow table,
//! 3-tuple listen table, residual filter scan — `NetIoModule::classify`)
//! must agree with a pure linear filter scan
//! (`classify_scan_reference`) on **both** the target channel and the
//! modeled filter-instruction count, for arbitrary channel sets —
//! connected, fully-wildcard (listening), and half-wildcard bindings,
//! duplicate 5-tuples, mismatched link framing, activation subsets,
//! teardown churn — and arbitrary frames — hits, misses, fragments,
//! truncations, non-IP. On top of agreement, every hit's reported
//! [`DemuxPath`] must match the tier the winning binding distilled into
//! at creation (including the module's link-framing pin). This is the
//! invariant that lets the fast path exist at all: the reproduced tables
//! charge the 1993 scan's costs, so the mechanism underneath must be
//! unobservable except in speed.

use proptest::prelude::*;

use unp::buffers::OwnerTag;
use unp::filter::programs::DemuxSpec;
use unp::kernel::{ChannelId, DemuxPath, HeaderTemplate, NetIoModule};
use unp::wire::{
    EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags, TcpRepr,
    UdpRepr,
};

/// Small pools so generated channels and frames collide often — the
/// interesting cases are exact hits, near-misses, and duplicate bindings,
/// not a sea of unrelated addresses.
const IPS: [Ipv4Addr; 3] = [
    Ipv4Addr::new(10, 0, 0, 1),
    Ipv4Addr::new(10, 0, 0, 2),
    Ipv4Addr::new(10, 0, 0, 3),
];
const PORTS: [u16; 4] = [80, 7, 5000, 5001];

/// One generated binding: protocol choice, local/remote endpoints drawn
/// from the pools, remote-wildcard shape, link framing, and lifecycle
/// (activated? torn down again?).
#[derive(Debug, Clone, Copy)]
struct ChanGen {
    tcp: bool,
    local: (usize, usize),
    remote: (usize, usize),
    /// How much of the remote endpoint the binding specifies: 0 = both
    /// (exact-match, flow-table tier), 1 = neither (listening socket,
    /// listen-table tier), 2 = ip only and 3 = port only (half-wildcard,
    /// residual scan tier).
    remote_kind: u8,
    /// Ethernet (14) for most; occasionally AN1 framing (16) to exercise
    /// the mismatched-link-header scan-tier fallback.
    link_header_len: usize,
    active: bool,
    destroy: bool,
}

/// One generated frame: endpoints from the pools plus a shape knob —
/// 0 = normal, 1 = non-first fragment, 2 = non-IPv4 EtherType,
/// 3 = truncated mid-header.
#[derive(Debug, Clone, Copy)]
struct FrameGen {
    tcp: bool,
    src: (usize, usize),
    dst: (usize, usize),
    shape: u8,
}

fn arb_chan() -> impl Strategy<Value = ChanGen> {
    (
        any::<bool>(),
        (0usize..IPS.len(), 0usize..PORTS.len()),
        ((0usize..IPS.len(), 0usize..PORTS.len()), 0u8..4),
        prop_oneof![Just(14usize), Just(14usize), Just(14usize), Just(16usize)],
        any::<bool>(),
        0u8..8,
    )
        .prop_map(
            |(tcp, local, (remote, remote_kind), link_header_len, active, d)| ChanGen {
                tcp,
                local,
                remote,
                remote_kind,
                link_header_len,
                active,
                destroy: d == 0, // ~1 in 8 channels is torn down again
            },
        )
}

fn arb_frame() -> impl Strategy<Value = FrameGen> {
    (
        any::<bool>(),
        (0usize..IPS.len(), 0usize..PORTS.len()),
        (0usize..IPS.len(), 0usize..PORTS.len()),
        0u8..8,
    )
        .prop_map(|(tcp, src, dst, shape)| FrameGen {
            tcp,
            src,
            dst,
            shape: shape.min(3), // bias toward normal frames
        })
}

fn spec_of(c: &ChanGen) -> DemuxSpec {
    let (ri, rp) = c.remote;
    DemuxSpec {
        link_header_len: c.link_header_len,
        protocol: if c.tcp {
            IpProtocol::Tcp
        } else {
            IpProtocol::Udp
        },
        local_ip: IPS[c.local.0],
        local_port: PORTS[c.local.1],
        remote_ip: (c.remote_kind == 0 || c.remote_kind == 2).then(|| IPS[ri]),
        remote_port: (c.remote_kind == 0 || c.remote_kind == 3).then(|| PORTS[rp]),
    }
}

/// The tier each binding distilled into at creation, replayed from the
/// same rules the module applies: exact 5-tuple → flow table, fully
/// wildcard remote → listen table, anything else → residual scan; and
/// the first *distillable* spec pins the module's key-extraction framing,
/// demoting later distillable specs with different framing to the scan
/// tier. A hit's reported [`DemuxPath`] must equal the winner's tier.
fn expected_tiers(chans: &[ChanGen]) -> Vec<DemuxPath> {
    let mut pinned: Option<usize> = None;
    chans
        .iter()
        .map(|c| {
            let spec = spec_of(c);
            let keyed = if spec.distill().is_some() {
                DemuxPath::FlowTable
            } else if spec.distill_listen().is_some() {
                DemuxPath::ListenTable
            } else {
                return DemuxPath::FilterScan;
            };
            if *pinned.get_or_insert(spec.link_header_len) == spec.link_header_len {
                keyed
            } else {
                DemuxPath::FilterScan
            }
        })
        .collect()
}

/// Delivery tests never transmit, so the template content is irrelevant;
/// it just has to be well-formed for `create_channel`.
fn template_of(spec: &DemuxSpec) -> HeaderTemplate {
    HeaderTemplate {
        link_header_len: spec.link_header_len,
        src_mac: None,
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: spec.protocol,
        src_ip: spec.local_ip,
        dst_ip: spec.remote_ip.unwrap_or(Ipv4Addr::new(0, 0, 0, 0)),
        src_port: spec.local_port,
        dst_port: spec.remote_port,
        bqi: None,
    }
}

/// Builds the Ethernet frame bytes for a generated frame. All frames use
/// Ethernet framing (the module under test serves an Ethernet device);
/// AN1-framed *channels* are the mismatch case, not AN1 frames.
fn build_frame(f: &FrameGen) -> Vec<u8> {
    let src = IPS[f.src.0];
    let dst = IPS[f.dst.0];
    let payload = if f.tcp {
        TcpRepr {
            src_port: PORTS[f.src.1],
            dst_port: PORTS[f.dst.1],
            seq: SeqNum(1),
            ack_num: SeqNum(0),
            flags: TcpFlags::ack(),
            window: 1000,
            mss: None,
        }
        .build_segment(src, dst, b"x")
    } else {
        UdpRepr {
            src_port: PORTS[f.src.1],
            dst_port: PORTS[f.dst.1],
        }
        .build_datagram(src, dst, b"x")
    };
    let proto = if f.tcp {
        IpProtocol::Tcp
    } else {
        IpProtocol::Udp
    };
    let mut ip = Ipv4Repr::simple(src, dst, proto, payload.len());
    if f.shape == 1 {
        // Non-first fragment: ports live in fragment zero only, so demux
        // (both tiers) must refuse to read them here.
        ip.frag_offset = 64;
    }
    let ethertype = if f.shape == 2 {
        EtherType::Arp
    } else {
        EtherType::Ipv4
    };
    let mut bytes = EthernetRepr {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype,
    }
    .build_frame(&ip.build_packet(&payload));
    if f.shape == 3 {
        // Truncated mid-IP-header: too short for any port comparison.
        bytes.truncate(14 + 8);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every generated module population and frame, the two-tier
    /// demux and the pure linear scan return the same `(target,
    /// filter_instrs)` — the fast path is unobservable except in speed.
    #[test]
    fn flow_table_demux_equals_linear_scan(
        chans in proptest::collection::vec(arb_chan(), 1..12),
        frames in proptest::collection::vec(arb_frame(), 1..24),
    ) {
        let mut m = NetIoModule::new();
        let tiers = expected_tiers(&chans);
        let mut ids: Vec<(ChannelId, ChanGen)> = Vec::new();
        for c in &chans {
            let spec = spec_of(c);
            let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_of(&spec), 8, 2048);
            ids.push((id, *c));
        }
        for &(id, c) in &ids {
            if c.active {
                m.activate(id);
            }
        }
        // Teardown churn: flow-table and scan caches must stay coherent
        // through destroys, not just installs.
        for &(id, c) in &ids {
            if c.destroy {
                m.destroy_channel(id, OwnerTag(1));
            }
        }
        for f in &frames {
            let bytes = build_frame(f);
            let (fast_target, fast_instrs, path) = m.classify(&bytes);
            let (scan_target, scan_instrs) = m.classify_scan_reference(&bytes);
            prop_assert_eq!(
                fast_target, scan_target,
                "target diverged for {:?} over {:?}", f, chans
            );
            prop_assert_eq!(
                fast_instrs, scan_instrs,
                "modeled cost diverged for {:?} over {:?}", f, chans
            );
            // Tier attribution: a hit reports the tier the winner
            // distilled into at creation; a miss is charged to the scan.
            match fast_target {
                Some(id) => prop_assert_eq!(
                    path, tiers[id.0 as usize],
                    "tier diverged for {:?} over {:?}", f, chans
                ),
                None => prop_assert_eq!(
                    path, DemuxPath::FilterScan,
                    "a miss must report the scan tier for {:?}", f
                ),
            }
        }
    }

    /// Same agreement under interleaved churn: deliveries between
    /// activations and teardowns, so every intermediate cache state is
    /// exercised, not just the final population.
    #[test]
    fn agreement_holds_at_every_churn_step(
        chans in proptest::collection::vec(arb_chan(), 1..10),
        frame in arb_frame(),
    ) {
        let mut m = NetIoModule::new();
        let bytes = build_frame(&frame);
        // Valid at every prefix of the churn: a channel's tier is fixed at
        // its own creation by the already-created channels (the framing
        // pin), never by later ones, and teardown does not unpin.
        let tiers = expected_tiers(&chans);
        let check = |m: &NetIoModule| -> Result<(), TestCaseError> {
            let (ft, fi, path) = m.classify(&bytes);
            let (st, si) = m.classify_scan_reference(&bytes);
            prop_assert_eq!((ft, fi), (st, si), "diverged over {:?}", chans);
            match ft {
                Some(id) => prop_assert_eq!(
                    path, tiers[id.0 as usize],
                    "tier diverged over {:?}", chans
                ),
                None => prop_assert_eq!(path, DemuxPath::FilterScan, "miss must report scan"),
            }
            Ok(())
        };
        // The keyed-table sizes the module keeps must equal a recount of
        // the live bindings per tier, duplicated keys counted once each.
        let check_sizes = |m: &NetIoModule, live: &[usize]| -> Result<(), TestCaseError> {
            let keyed = |tier| live.iter().filter(|&&i| tiers[i] == tier).count();
            prop_assert_eq!(
                (m.flow_table_len(), m.listen_table_len()),
                (keyed(DemuxPath::FlowTable), keyed(DemuxPath::ListenTable)),
                "table sizes diverged over {:?}", chans
            );
            prop_assert!(m.caches_match_rebuild(), "caches diverged over {:?}", chans);
            Ok(())
        };
        let mut ids = Vec::new();
        let mut live = Vec::new();
        for (i, c) in chans.iter().enumerate() {
            let spec = spec_of(c);
            let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_of(&spec), 8, 2048);
            live.push(i);
            check(&m)?;
            check_sizes(&m, &live)?;
            if c.active {
                m.activate(id);
                check(&m)?;
                check_sizes(&m, &live)?;
            }
            ids.push((id, *c));
        }
        for (i, &(id, c)) in ids.iter().enumerate() {
            if c.destroy {
                m.destroy_channel(id, OwnerTag(1));
                live.retain(|&j| j != i);
                check(&m)?;
                check_sizes(&m, &live)?;
            }
        }
    }
}

/// A deterministic unique spec for the large-population oracle: every
/// 64th pair of slots is a listening binding and a half-wildcard
/// (residual) binding, the rest exact connections — each category in a
/// disjoint local-address space so the intended winner is unambiguous.
fn scale_spec(i: usize) -> DemuxSpec {
    let k = i / 64;
    let (a, b) = ((k / 250) as u8, (k % 250) as u8);
    let (local_ip, local_port, remote_ip, remote_port) = match i % 64 {
        2 => (Ipv4Addr::new(10, 2, a, b), 81, None, None),
        3 => (
            Ipv4Addr::new(10, 3, a, b),
            82,
            Some(Ipv4Addr::new(10, 9, 0, 1)),
            None,
        ),
        _ => {
            let (hi, lo) = (i / 60_000, i % 60_000);
            (
                Ipv4Addr::new(10, 0, 0, 2),
                80,
                Some(Ipv4Addr::new(
                    10,
                    1 + hi as u8,
                    (lo / 250) as u8,
                    (lo % 250) as u8,
                )),
                Some(1024 + lo as u16),
            )
        }
    };
    DemuxSpec {
        link_header_len: 14,
        protocol: IpProtocol::Tcp,
        local_ip,
        local_port,
        remote_ip,
        remote_port,
    }
}

/// A TCP frame from `remote` to `local` for the oracle probes.
fn probe_frame(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16)) -> Vec<u8> {
    let seg = TcpRepr {
        src_port: remote.1,
        dst_port: local.1,
        seq: SeqNum(1),
        ack_num: SeqNum(0),
        flags: TcpFlags::ack(),
        window: 1000,
        mss: None,
    }
    .build_segment(remote.0, local.0, b"x");
    let ip = Ipv4Repr::simple(remote.0, local.0, IpProtocol::Tcp, seg.len());
    EthernetRepr {
        dst: MacAddr::from_host_index(2),
        src: MacAddr::from_host_index(1),
        ethertype: EtherType::Ipv4,
    }
    .build_frame(&ip.build_packet(&seg))
}

/// The differential oracle at the ISSUE's 10^5-channel scale: build a
/// mixed population incrementally, churn a slice of it back out, and
/// verify (a) the incremental caches equal a from-scratch rebuild and
/// (b) `classify` agrees with the linear scan — with correct tier
/// attribution — for a probe on each tier plus a miss. Release-only: the
/// debug build's per-event cache validation plus the O(n) scan oracle
/// make this minutes-slow under `cargo test` without optimization.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn oracle_holds_at_one_hundred_thousand_channels() {
    const N: usize = 100_000;
    let mut m = NetIoModule::new();
    let mut ids = Vec::with_capacity(N);
    for i in 0..N {
        let spec = scale_spec(i);
        let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_of(&spec), 1, 2048);
        // Most channels active; every 13th left installed-but-inactive so
        // the active subset differs from the installed set.
        if i % 13 != 5 {
            m.activate(id);
        }
        ids.push(id);
    }
    // Teardown churn across all three tiers (every 17th channel), then
    // the incremental caches must still equal a from-scratch rebuild.
    for (i, &id) in ids.iter().enumerate() {
        if i % 17 == 9 {
            assert!(m.destroy_channel(id, OwnerTag(1)));
        }
    }
    assert!(
        m.caches_match_rebuild(),
        "incremental caches diverged from the rebuild oracle after churn"
    );

    // One probe per tier plus a guaranteed miss. Winners chosen away from
    // the churned (i % 17 == 9) and inactive (i % 13 == 5) slices.
    let exact = scale_spec(0);
    let listen = scale_spec(2);
    // The highest-id residual binding still installed and active.
    let mut ri = N - 1;
    while ri % 64 != 3 || ri % 17 == 9 || ri % 13 == 5 {
        ri -= 1;
    }
    let residual = scale_spec(ri);
    let probes = [
        (
            probe_frame(
                (exact.local_ip, exact.local_port),
                (exact.remote_ip.unwrap(), exact.remote_port.unwrap()),
            ),
            DemuxPath::FlowTable,
        ),
        (
            probe_frame(
                (listen.local_ip, listen.local_port),
                (Ipv4Addr::new(10, 8, 0, 1), 9999),
            ),
            DemuxPath::ListenTable,
        ),
        (
            probe_frame(
                (residual.local_ip, residual.local_port),
                (residual.remote_ip.unwrap(), 9999),
            ),
            DemuxPath::FilterScan,
        ),
        (
            probe_frame(
                (Ipv4Addr::new(10, 250, 0, 1), 4444),
                (Ipv4Addr::new(10, 250, 0, 2), 5555),
            ),
            DemuxPath::FilterScan,
        ),
    ];
    for (i, (frame, want_path)) in probes.iter().enumerate() {
        let (target, instrs, path) = m.classify(frame);
        assert_eq!(
            (target, instrs),
            m.classify_scan_reference(frame),
            "probe {i} diverged from the linear-scan oracle"
        );
        assert_eq!(path, *want_path, "probe {i} resolved on the wrong tier");
        // The last probe is the miss; everything else must land.
        assert_eq!(target.is_some(), i < 3, "probe {i} hit/miss shape");
    }
}
