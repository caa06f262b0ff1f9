//! The simulated world: hosts, organizations, and the full data path.
//!
//! See the crate docs for the organization taxonomy. The central design
//! rule: **state machines mutate at event time, observable effects pay
//! their way** — every trap, IPC, copy, checksum, filter run, semaphore
//! signal, and context switch on the path of a packet is charged to the
//! owning host's CPU via [`host_exec`], and the packet's next hop happens
//! at the charge's completion time. The protocol code itself
//! (`unp-tcp`/`unp-proto`) is identical across organizations.

use std::collections::HashMap;

use unp_buffers::{Frame, FramePool, OwnerTag};
use unp_kernel::{Capability, ChannelId, ChannelStats, Delivery, HeaderTemplate, NetIoModule};
use unp_netdev::{An1Nic, LanceNic, Link, StationId};
use unp_proto::arp::ArpResult;
use unp_proto::{icmp_input, ArpCache, IpEndpoint, IpRecv, UdpLayer};
use unp_registry::{HsId, RegistryAction, RegistryServer};
use unp_sim::{CostModel, Cpu, DemuxPath, Engine, EventId, LinkParams, Nanos};
use unp_tcp::{ListenTcb, Tcb, TcpAction, TcpConfig, TcpTimer};
use unp_timers::{TimerId, TimerService, TimerWheel};
use unp_trace::{ConnKey, Ctr, Gauge, Hist, Metrics};
use unp_wire::{
    An1Frame, An1Repr, ArpPacket, ArpRepr, EtherType, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr,
    MacAddr, TcpPacket, TcpRepr, AN1_HEADER_LEN, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN,
};

/// The engine type for this world.
pub type Eng = Engine<World>;

/// Which network the hosts share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// 10 Mb/s shared Ethernet with Lance-style PIO interfaces.
    Ethernet,
    /// 100 Mb/s AN1 point-to-point segment with BQI DMA interfaces.
    An1,
}

/// The protocol organizations of the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgKind {
    /// Monolithic in-kernel (Ultrix 4.2A).
    InKernel,
    /// Mach 3.0 + UX single server, device mapped into the server.
    SingleServer,
    /// Single server with in-kernel device management behind a message
    /// interface (the slower variant the paper describes).
    SingleServerMsg,
    /// One server per protocol stack plus a device server.
    DedicatedServer,
    /// The paper's user-level library + registry + network I/O module.
    UserLibrary,
}

impl OrgKind {
    /// Human-readable label used in reports (paper terminology).
    pub fn label(&self) -> &'static str {
        match self {
            OrgKind::InKernel => "Ultrix 4.2A (in-kernel)",
            OrgKind::SingleServer => "Mach 3.0/UX (mapped)",
            OrgKind::SingleServerMsg => "Mach 3.0/UX (message)",
            OrgKind::DedicatedServer => "Dedicated servers",
            OrgKind::UserLibrary => "User-level library (ours)",
        }
    }

    fn is_user_library(&self) -> bool {
        matches!(self, OrgKind::UserLibrary)
    }
}

/// Host-network interface state.
pub enum Nic {
    /// Lance-style Ethernet interface.
    Lance(LanceNic),
    /// AN1 interface with BQI table.
    An1(An1Nic),
}

/// Timer wheel token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerToken {
    /// A connection timer in the library/kernel stack.
    Conn(u32, TcpTimer),
    /// A registry-held handshake or inherited-connection timer.
    Registry(u64, TcpTimer),
}

/// A listening endpoint: configuration plus an application factory invoked
/// per accepted connection.
pub struct Listener {
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn crate::app::AppLogic>>,
}

/// Per-connection channel state (UserLibrary organization).
pub struct ChanInfo {
    /// Kernel channel id.
    pub id: ChannelId,
    /// Send capability (template-checked transmission).
    pub send_cap: Capability,
    /// Receive capability (ring consumption).
    pub recv_cap: Capability,
    /// The BQI the peer must stamp for hardware demux to reach us (AN1).
    pub our_bqi: u16,
    /// The BQI we stamp on outgoing data frames (announced by the peer).
    pub peer_bqi: Option<u16>,
}

/// One live connection endpoint.
pub struct Conn {
    /// The TCP state (the paper's "TCP state transferred to user level").
    pub tcb: Tcb,
    /// The owning application.
    pub app: Box<dyn crate::app::AppLogic>,
    /// Channel info when running under the UserLibrary organization.
    pub chan: Option<ChanInfo>,
    /// App bytes the library holds beyond the TCB's send buffer.
    pending_tx: std::collections::VecDeque<u8>,
    /// The app requested close once `pending_tx` drains.
    close_pending: bool,
    /// Wheel handles for armed timers.
    timer_ids: HashMap<TcpTimer, TimerId>,
    /// Typical application write size (the experiments' "user packet
    /// size"), used by per-organization copy-elimination rules.
    pub write_size: usize,
}

/// An in-flight handshake's pre-created channel (UserLibrary org).
struct HsSetup {
    chan: ChanInfo,
    key: (u16, Ipv4Addr, u16),
    /// True once the registry emitted `Complete` and finalization is in
    /// flight: frames arriving in this window are parked, not fed back to
    /// the registry (which no longer tracks the connection).
    completing: bool,
}

/// One simulated workstation.
pub struct Host {
    /// Index in the world.
    pub idx: usize,
    /// Protocol organization this host runs.
    pub org: OrgKind,
    /// The single CPU.
    pub cpu: Cpu,
    /// Station address.
    pub mac: MacAddr,
    /// IP address.
    pub ip: Ipv4Addr,
    /// The host-network interface.
    pub nic: Nic,
    /// ARP state (kernel-resident in all organizations for simplicity; the
    /// cost difference is negligible and identical across orgs).
    pub arp: ArpCache,
    /// IP endpoint state (routing, reassembly).
    pub ip_ep: IpEndpoint,
    /// UDP protocol state.
    pub udp: UdpLayer,
    /// The network I/O module (UserLibrary organization).
    pub netio: NetIoModule,
    /// The registry server (UserLibrary organization).
    pub registry: RegistryServer,
    /// The UDP protocol's registry server ("a dedicated registry server
    /// for each protocol").
    pub udp_registry: unp_registry::UdpRegistry,
    /// The timing wheel driving all protocol timers on this host.
    pub wheel: TimerWheel<TimerToken>,
    wheel_event: Option<(Nanos, EventId)>,
    /// Live connections.
    pub conns: HashMap<u32, Conn>,
    next_conn: u32,
    conn_index: HashMap<(u16, Ipv4Addr, u16), u32>,
    listeners: HashMap<u16, Listener>,
    // --- UserLibrary bookkeeping ---
    chan_to_conn: HashMap<ChannelId, u32>,
    hs_setup: HashMap<u64, HsSetup>,
    hs_by_chan: HashMap<ChannelId, u64>,
    pending_apps: HashMap<u64, Box<dyn crate::app::AppLogic>>,
    pending_write_sizes: HashMap<u64, usize>,
    /// Tenant override per listening port ([`listen_as`]); absent ports
    /// belong to the host's default single-app tenant.
    listener_tenants: HashMap<u16, OwnerTag>,
    /// Tenant override per in-flight active handshake ([`connect_as`]),
    /// keyed by raw hs id.
    pending_tenants: HashMap<u64, OwnerTag>,
    /// Revoked capabilities the byzantine capability-storm replays, one
    /// per hostile tenant (minted from a destroyed scratch channel on the
    /// storm's first tick).
    stale_caps: HashMap<u64, Capability>,
    /// Peer BQI announcements keyed by (local port, remote ip, remote port).
    announced: HashMap<(u16, Ipv4Addr, u16), u16>,
    reg_timers: HashMap<(u64, TcpTimer), TimerId>,
    /// Frames that arrived on the kernel path for a connection whose
    /// Complete is still being finalized (the activation race the paper's
    /// overlap of setup with transmission creates); delivered to the
    /// library when the channel activates.
    parked: HashMap<(u16, Ipv4Addr, u16), Vec<Frame>>,
    // --- monolithic bookkeeping ---
    next_port: u16,
    next_iss: u32,
    /// IP packets awaiting ARP resolution, keyed by next-hop IP. Each is
    /// held as a refcounted frame whose headroom (when present) receives
    /// the link header once the MAC is known.
    arp_wait: HashMap<Ipv4Addr, Vec<(IpProtocol, Frame)>>,
}

impl Host {
    fn owner(&self) -> OwnerTag {
        // One application process per host in these experiments.
        OwnerTag(self.idx as u64 + 1)
    }

    fn link_header_len(&self) -> usize {
        match self.nic {
            Nic::Lance(_) => ETHERNET_HEADER_LEN,
            Nic::An1(_) => AN1_HEADER_LEN,
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        p
    }

    fn alloc_iss(&mut self) -> u32 {
        self.next_iss = self.next_iss.wrapping_add(64_000);
        self.next_iss
    }
}

/// The complete simulation state.
pub struct World {
    /// Calibrated operation costs.
    pub costs: CostModel,
    /// Network type.
    pub network: Network,
    /// The shared link.
    pub link: Link,
    /// Hosts on the link.
    pub hosts: Vec<Host>,
    /// Typed measurement registry: counters, gauges, histograms, and the
    /// per-connection/per-channel scopes filled at teardown.
    pub metrics: Metrics,
    /// Ablation: disable notification batching (post a semaphore and take
    /// a thread switch for every delivered packet).
    pub ablate_batching: bool,
    /// Ablation: disable the library's copy-eliminating buffer
    /// organization (charge user↔buffer copies like the monolithic
    /// stacks).
    pub ablate_zero_copy: bool,
    /// The frame pool backing the zero-copy data path: outgoing segments
    /// are built once in a pooled buffer (headers prepended into
    /// headroom) and the buffer is recycled when the last refcounted
    /// handle drops. Replace with [`FramePool::disabled`] to measure the
    /// allocation behavior of the pre-pool path.
    pub pool: FramePool,
    /// Promiscuous packet taps — the Packet Filter's original use case
    /// ("user-level network code" for monitoring): each tap's BPF program
    /// runs over every frame on the wire and counts matches.
    taps: Vec<Tap>,
    /// The active fault-injection schedule. Disabled by default
    /// ([`crate::faults::FaultPlan::none`]): no RNG draw happens and the
    /// data path is byte-identical to a build without fault injection.
    /// Install an enabled plan with [`install_faults`].
    pub faults: crate::faults::FaultPlan,
}

/// A promiscuous capture tap: a named BPF program applied to all traffic.
pub struct Tap {
    name: &'static str,
    program: unp_filter::BpfProgram,
    /// Matched (time, frame-length) samples.
    pub matches: Vec<(Nanos, usize)>,
    /// Full frames, kept only for capture taps. Each entry is a refcount
    /// on the wire frame, not a copy.
    pub frames: Vec<(Nanos, Frame)>,
    capture: bool,
}

impl World {
    /// Installs a monitoring tap. Returns its index for later inspection
    /// via [`World::tap_matches`].
    pub fn add_tap(&mut self, name: &'static str, program: unp_filter::BpfProgram) -> usize {
        self.taps.push(Tap {
            name,
            program,
            matches: Vec::new(),
            frames: Vec::new(),
            capture: false,
        });
        self.taps.len() - 1
    }

    /// Installs a *capturing* tap: matched frames are stored in full and
    /// can be exported with [`crate::pcap::write_pcap`] for analysis in
    /// standard tools.
    pub fn add_capture_tap(
        &mut self,
        name: &'static str,
        program: unp_filter::BpfProgram,
    ) -> usize {
        let idx = self.add_tap(name, program);
        self.taps[idx].capture = true;
        idx
    }

    /// The full frames captured by a capture tap.
    pub fn tap_frames(&self, idx: usize) -> &[(Nanos, Frame)] {
        &self.taps[idx].frames
    }

    /// The frames a tap matched so far, as (time, length) pairs.
    pub fn tap_matches(&self, idx: usize) -> &[(Nanos, usize)] {
        &self.taps[idx].matches
    }

    fn run_taps(&mut self, now: Nanos, frame: &Frame) {
        use unp_filter::Demux;
        for tap in &mut self.taps {
            if tap.program.matches(frame) {
                tap.matches.push((now, frame.len()));
                if tap.capture {
                    tap.frames.push((now, frame.clone()));
                }
                let _ = tap.name;
            }
        }
    }
}

/// Builds a two-host world (the paper's testbed: two DECstation 5000/200s
/// on an otherwise idle network), both hosts running `org`, with static
/// ARP seeded (the measurements exclude ARP traffic).
pub fn build_two_hosts(network: Network, org: OrgKind) -> (World, Eng) {
    build_hosts(2, network, org)
}

/// Builds an `n`-host world on one link, all hosts running `org`, with a
/// full static ARP mesh. Host `i` is `10.0.0.(i+1)`. (AN1 is modeled as a
/// switchless point-to-point segment and supports exactly two hosts.)
pub fn build_hosts(n: usize, network: Network, org: OrgKind) -> (World, Eng) {
    assert!(n >= 2);
    assert!(
        network == Network::Ethernet || n == 2,
        "the AN1 segment is point-to-point"
    );
    let params = match network {
        Network::Ethernet => LinkParams::ethernet_10mbps(),
        Network::An1 => LinkParams::an1_100mbps(),
    };
    let mut link = Link::new(params);
    let mut hosts = Vec::new();
    for idx in 0..n {
        let mac = MacAddr::from_host_index(idx as u32 + 1);
        let ip = Ipv4Addr::new(10, 0, 0, idx as u8 + 1);
        let nic = match network {
            Network::Ethernet => Nic::Lance(LanceNic::new(mac)),
            Network::An1 => Nic::An1(An1Nic::new(mac, 64, unp_buffers::RingId(0))),
        };
        link.attach(StationId(idx), mac);
        let mut arp = ArpCache::new(mac, ip);
        // Static entries for every peer.
        for peer_idx in 0..n {
            if peer_idx != idx {
                arp.insert_static(
                    Ipv4Addr::new(10, 0, 0, peer_idx as u8 + 1),
                    MacAddr::from_host_index(peer_idx as u32 + 1),
                );
            }
        }
        hosts.push(Host {
            idx,
            org,
            cpu: Cpu::new(),
            mac,
            ip,
            nic,
            arp,
            ip_ep: IpEndpoint::new(ip, 24, None),
            udp: UdpLayer::new(),
            netio: NetIoModule::new(),
            registry: RegistryServer::new(ip),
            udp_registry: unp_registry::UdpRegistry::new(),
            wheel: TimerWheel::new(0),
            wheel_event: None,
            conns: HashMap::new(),
            next_conn: 1,
            conn_index: HashMap::new(),
            listeners: HashMap::new(),
            chan_to_conn: HashMap::new(),
            hs_setup: HashMap::new(),
            hs_by_chan: HashMap::new(),
            pending_apps: HashMap::new(),
            pending_write_sizes: HashMap::new(),
            listener_tenants: HashMap::new(),
            pending_tenants: HashMap::new(),
            stale_caps: HashMap::new(),
            announced: HashMap::new(),
            reg_timers: HashMap::new(),
            parked: HashMap::new(),
            next_port: 2000 + idx as u16 * 8000,
            next_iss: 0x100 + idx as u32,
            arp_wait: HashMap::new(),
        });
    }
    // Pool buffers cover a maximum-sized frame (MTU plus the larger link
    // header) with slack for TCP options; oversize allocations degrade to
    // fresh heap buffers that are simply not recycled.
    let buf_size = link.params().mtu + AN1_HEADER_LEN + 46;
    let world = World {
        costs: CostModel::calibrated_1993(),
        network,
        link,
        hosts,
        metrics: Metrics::new(),
        ablate_batching: false,
        ablate_zero_copy: false,
        pool: FramePool::new(buf_size, 256),
        taps: Vec::new(),
        faults: crate::faults::FaultPlan::none(),
    };
    (world, Engine::new())
}

/// Installs a fault plan: stores it on the world and schedules its
/// application-crash events. Call once after [`build_hosts`], before
/// running the engine.
pub fn install_faults(w: &mut World, eng: &mut Eng, plan: crate::faults::FaultPlan) {
    for c in &plan.crashes {
        let host = c.host;
        eng.at(c.at, move |w, eng| crash_host(w, eng, host));
    }
    // Periodic byzantine-tenant behaviours become deterministic tick
    // trains; window-shaped kinds (ring flood, wedged registry) are
    // consulted in place by the data path and need no events.
    for b in &plan.byzantine {
        use crate::faults::ByzantineKind;
        let (host, tenant, end) = (b.host, b.tenant, b.end);
        match b.kind {
            ByzantineKind::TransmitFlood { period, .. }
            | ByzantineKind::CapabilityStorm { period }
            | ByzantineKind::StaleBqi { period } => {
                assert!(period > 0, "byzantine period must be positive");
                let kind = b.kind;
                eng.at(b.start, move |w, eng| {
                    byzantine_tick(w, eng, host, tenant, kind, end);
                });
            }
            ByzantineKind::RingFlood | ByzantineKind::WedgedRegistry => {}
        }
    }
    w.faults = plan;
}

/// One firing of a periodic byzantine behaviour; reschedules itself until
/// the window closes. Every action is resource-bounded by the tenant's
/// own budget — that containment is precisely what the isolation oracle
/// measures.
fn byzantine_tick(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    tenant: u64,
    kind: crate::faults::ByzantineKind,
    end: Nanos,
) {
    use crate::faults::ByzantineKind;
    let now = eng.now();
    if now >= end || !w.faults.enabled {
        return;
    }
    // The hostile tenant abuses its own established connection — the
    // lowest-numbered one, so the pick is deterministic across runs.
    let target = w.hosts[host]
        .conns
        .iter()
        .filter_map(|(&cid, c)| {
            let ci = c.chan.as_ref()?;
            (w.hosts[host].netio.channel_owner(ci.id) == Some(OwnerTag(tenant))).then(|| {
                (
                    cid,
                    ci.send_cap,
                    ci.peer_bqi.unwrap_or(0),
                    c.tcb.local(),
                    c.tcb.remote(),
                )
            })
        })
        .min_by_key(|&(cid, ..)| cid)
        .map(|(_, cap, bqi, l, r)| (cap, bqi, l, r));
    if let Some((send_cap, bqi, local, remote)) = target {
        match kind {
            ByzantineKind::TransmitFlood { burst, .. } => {
                // A burst of template-valid empty ACKs: each passes the
                // kernel's checks and burns wire + CPU + tx credit until
                // the tenant's per-window allowance runs dry.
                let repr = TcpRepr {
                    src_port: local.1,
                    dst_port: remote.1,
                    seq: unp_wire::SeqNum(0),
                    ack_num: unp_wire::SeqNum(0),
                    flags: unp_wire::TcpFlags::ack(),
                    window: 0,
                    mss: None,
                };
                for _ in 0..burst {
                    send_tcp_frame(
                        w,
                        eng,
                        host,
                        &repr,
                        &[],
                        remote.0,
                        bqi,
                        0,
                        Some(send_cap),
                        true,
                    );
                }
            }
            ByzantineKind::CapabilityStorm { .. } => {
                // A replayed revoked capability (BadCapability) plus a
                // template-violating transmit on the real one (spoofed
                // source port): both die inside the kernel, charged to
                // the tenant's credit, never reaching the wire.
                let stale = stale_cap_for(w, host, tenant);
                let frame_len = w.hosts[host].link_header_len() + IPV4_HEADER_LEN + 20;
                let junk = vec![0u8; frame_len];
                let _ = w.hosts[host].netio.transmit(stale, &junk);
                w.hosts[host].netio.advance_tx_window(now);
                let spoof = TcpRepr {
                    src_port: local.1.wrapping_add(1),
                    dst_port: remote.1,
                    seq: unp_wire::SeqNum(0),
                    ack_num: unp_wire::SeqNum(0),
                    flags: unp_wire::TcpFlags::ack(),
                    window: 0,
                    mss: None,
                };
                send_tcp_frame(
                    w,
                    eng,
                    host,
                    &spoof,
                    &[],
                    remote.0,
                    bqi,
                    0,
                    Some(send_cap),
                    true,
                );
                let c = w.costs.trap;
                w.hosts[host].cpu.charge(now, c);
            }
            ByzantineKind::StaleBqi { .. } => {
                // Replay a stale BQI announcement into the peer host's
                // pending-announce map. Announcements are only consumed
                // at connection finalization, so a post-establishment
                // replay must change nothing for anyone — the oracle's
                // baseline comparison proves it.
                if let Some(peer) = w.hosts.iter().position(|p| p.ip == remote.0) {
                    let local_ip = w.hosts[host].ip;
                    let key = (remote.1, local_ip, local.1);
                    w.hosts[peer].announced.insert(key, bqi);
                }
            }
            ByzantineKind::RingFlood | ByzantineKind::WedgedRegistry => unreachable!(),
        }
    }
    let period = match kind {
        ByzantineKind::TransmitFlood { period, .. }
        | ByzantineKind::CapabilityStorm { period }
        | ByzantineKind::StaleBqi { period } => period,
        _ => return,
    };
    let next = now + period;
    if next < end {
        eng.at(next, move |w, eng| {
            byzantine_tick(w, eng, host, tenant, kind, end);
        });
    }
}

/// The revoked capability a capability-storm tenant replays: minted once
/// from a scratch channel that is created and immediately destroyed, so
/// every later use is a genuine use-after-revoke the kernel must refuse.
fn stale_cap_for(w: &mut World, host: usize, tenant: u64) -> Capability {
    if let Some(&c) = w.hosts[host].stale_caps.get(&tenant) {
        return c;
    }
    let lhl = w.hosts[host].link_header_len();
    let local_ip = w.hosts[host].ip;
    let scratch_remote = Ipv4Addr::new(203, 0, 113, 254); // TEST-NET-3: never a sim host
    let spec = unp_registry::connection_demux_spec(lhl, (local_ip, 7), (scratch_remote, 7));
    let template = HeaderTemplate {
        link_header_len: lhl,
        src_mac: Some(w.hosts[host].mac),
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: local_ip,
        dst_ip: scratch_remote,
        src_port: 7,
        dst_port: Some(7),
        bqi: None,
    };
    // Prefer minting under the hostile tenant itself; if its channel cap
    // is already exhausted (part of the attack surface), fall back to a
    // kernel-owned scratch — the replay is equally dead either way.
    let created = w.hosts[host]
        .netio
        .try_create_channel(OwnerTag(tenant), &spec, template.clone(), 2, 256)
        .unwrap_or_else(|| {
            w.hosts[host]
                .netio
                .create_channel(OwnerTag(0), &spec, template, 2, 256)
        });
    let (id, send_cap, ..) = created;
    w.hosts[host].netio.destroy_channel(id, OwnerTag(0));
    w.hosts[host].stale_caps.insert(tenant, send_cap);
    send_cap
}

/// Charges `cost` to host `h`'s CPU and schedules `f` at completion.
pub fn host_exec<F>(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, f: F)
where
    F: FnOnce(&mut World, &mut Eng) + 'static,
{
    let done = w.hosts[h].cpu.charge(eng.now(), cost);
    // Attribute everything the scheduled work emits to this host: deep
    // protocol paths (TCB transitions, registry setup) have no other way
    // to know whose CPU they run on. Inner scopes still nest.
    eng.at(done, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        f(w, eng);
    });
}

/// Like [`host_exec`] but at interrupt priority: device interrupt service
/// preempts process/library work instead of queueing behind it (otherwise
/// NIC staging buffers overflow whenever user-level processing is slower
/// than the wire — a receive livelock real interrupt-driven kernels do not
/// exhibit at these rates).
pub fn host_exec_intr<F>(w: &mut World, eng: &mut Eng, h: usize, cost: Nanos, f: F)
where
    F: FnOnce(&mut World, &mut Eng) + 'static,
{
    let done = w.hosts[h].cpu.charge_priority(eng.now(), cost);
    eng.at(done, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        f(w, eng);
    });
}

// ---------------------------------------------------------------------
// Public API: listen / connect
// ---------------------------------------------------------------------

/// Registers a listener on `host`:`port`. `factory` builds the per-
/// connection application.
pub fn listen(
    w: &mut World,
    host: usize,
    port: u16,
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn crate::app::AppLogic>>,
) {
    let owner = w.hosts[host].owner();
    listen_as(w, host, owner, port, cfg, factory);
}

/// [`listen`] for an explicit tenant: the listening port, its registry
/// binding, and every channel accepted through it are owned by `tenant`
/// instead of the host's default single-app owner, so multiple tenants
/// can share one host's network I/O module under separate budgets.
pub fn listen_as(
    w: &mut World,
    host: usize,
    tenant: OwnerTag,
    port: u16,
    cfg: TcpConfig,
    factory: Box<dyn FnMut() -> Box<dyn crate::app::AppLogic>>,
) {
    if w.hosts[host].org.is_user_library() {
        w.hosts[host]
            .registry
            .listen(tenant, port, cfg.clone())
            .expect("listen port free");
    }
    if tenant != w.hosts[host].owner() {
        w.hosts[host].listener_tenants.insert(port, tenant);
    }
    w.hosts[host]
        .listeners
        .insert(port, Listener { cfg, factory });
}

/// Opens a connection from `host` to `remote`, running `app` over it.
/// `write_size` is the application's write granularity (the experiments'
/// user packet size), which copy-elimination rules consult.
pub fn connect(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn crate::app::AppLogic>,
    write_size: usize,
) {
    connect_as(w, eng, host, None, remote, cfg, app, write_size);
}

/// [`connect`] for an explicit tenant (UserLibrary organization): the
/// registry binding and the connection's channel are owned by `tenant`,
/// so its ring slots and transmit credit draw on that tenant's budget.
/// `None` keeps the host's default single-app owner.
#[allow(clippy::too_many_arguments)]
pub fn connect_as(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    tenant: Option<OwnerTag>,
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,
    app: Box<dyn crate::app::AppLogic>,
    write_size: usize,
) {
    match w.hosts[host].org {
        OrgKind::UserLibrary => {
            // App → registry RPC, then non-overlapped outbound processing.
            let cost = w.costs.registry_rpc + w.costs.registry_connect_processing;
            host_exec(w, eng, host, cost, move |w, eng| {
                let owner = tenant.unwrap_or_else(|| w.hosts[host].owner());
                let now = eng.now();
                let (hs, actions) = w.hosts[host]
                    .registry
                    .connect(owner, remote, cfg, now)
                    .expect("ports available");
                w.hosts[host].pending_apps.insert(hs.0, app);
                w.hosts[host].pending_write_sizes.insert(hs.0, write_size);
                if owner != w.hosts[host].owner() {
                    w.hosts[host].pending_tenants.insert(hs.0, owner);
                }
                apply_registry_actions(w, eng, host, actions);
            });
        }
        _ => {
            // Monolithic: the connect call traps into the stack directly,
            // allocating socket + PCB state.
            let cost = app_boundary_cost(w, host) + w.costs.pcb_setup + w.costs.tcp_per_segment;
            host_exec(w, eng, host, cost, move |w, eng| {
                let local_port = w.hosts[host].alloc_port();
                let iss = w.hosts[host].alloc_iss();
                let local_ip = w.hosts[host].ip;
                let now = eng.now();
                let (tcb, actions) = Tcb::connect((local_ip, local_port), remote, cfg, iss, now);
                let c = install_conn(w, host, tcb, app, None, write_size);
                apply_tcp_actions(w, eng, host, c, None, actions);
            });
        }
    }
}

fn install_conn(
    w: &mut World,
    h: usize,
    tcb: Tcb,
    app: Box<dyn crate::app::AppLogic>,
    chan: Option<ChanInfo>,
    write_size: usize,
) -> u32 {
    w.metrics.gauge_inc(Gauge::ActiveConnections);
    let host = &mut w.hosts[h];
    let id = host.next_conn;
    host.next_conn += 1;
    let key = (tcb.local().1, tcb.remote().0, tcb.remote().1);
    host.conn_index.insert(key, id);
    if let Some(ci) = &chan {
        host.chan_to_conn.insert(ci.id, id);
    }
    host.conns.insert(
        id,
        Conn {
            tcb,
            app,
            chan,
            pending_tx: std::collections::VecDeque::new(),
            close_pending: false,
            timer_ids: HashMap::new(),
            write_size,
        },
    );
    id
}

// ---------------------------------------------------------------------
// Per-organization cost rules
// ---------------------------------------------------------------------

/// Cost of one application↔protocol boundary crossing.
fn app_boundary_cost(w: &World, h: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        OrgKind::InKernel => c.trap + c.socket_layer,
        OrgKind::SingleServer | OrgKind::SingleServerMsg => c.ux_syscall,
        OrgKind::DedicatedServer => c.ux_syscall + c.mach_ipc_one_way,
        OrgKind::UserLibrary => c.library_call,
    }
}

/// Cost of moving `len` app bytes into the protocol on a write.
fn tx_copy_cost(w: &World, h: usize, len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        // Ultrix's copy-eliminating buffer path "is invoked only when the
        // user packet size is 1024 bytes or larger".
        OrgKind::InKernel => {
            if len >= 1024 {
                0
            } else {
                c.copy(len)
            }
        }
        // IPC to the server copies the data; the server copies into mbufs.
        OrgKind::SingleServer | OrgKind::SingleServerMsg | OrgKind::DedicatedServer => {
            2 * c.copy(len)
        }
        // "Our implementation uses a buffer organization that eliminates
        // byte copying" — writes land in the pinned shared region.
        OrgKind::UserLibrary => {
            if w.ablate_zero_copy {
                c.copy(len)
            } else {
                0
            }
        }
    }
}

/// Cost of handing `len` received bytes to the application.
fn rx_copy_cost(w: &World, h: usize, len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].org {
        // The copy-eliminating buffer organization engages at ≥1024 bytes.
        OrgKind::InKernel => {
            if len >= 1024 {
                c.socket_layer
            } else {
                c.copy(len) + c.socket_layer
            }
        }
        OrgKind::SingleServer | OrgKind::SingleServerMsg | OrgKind::DedicatedServer => {
            c.copy(len) + c.ux_data_per_byte * len as Nanos + c.socket_layer
        }
        OrgKind::UserLibrary => {
            if w.ablate_zero_copy {
                c.copy(len)
            } else {
                0
            }
        }
    }
}

/// Per-frame device-access cost on transmit (after protocol processing).
fn tx_device_cost(w: &World, h: usize, frame_len: usize) -> Nanos {
    let c = &w.costs;
    let dev = match w.hosts[h].nic {
        Nic::Lance(_) => c.pio(frame_len),
        Nic::An1(_) => c.dma_setup,
    };
    match w.hosts[h].org {
        OrgKind::InKernel => dev,
        // Mapped device: the server drives it directly.
        OrgKind::SingleServer => dev,
        // Message-based device access adds an IPC per packet.
        OrgKind::SingleServerMsg => dev + c.mach_ipc_one_way,
        // Protocol server → device server hop.
        OrgKind::DedicatedServer => dev + c.mach_ipc_one_way,
        // Specialized kernel entry + template check + ring bookkeeping.
        OrgKind::UserLibrary => dev + c.fast_trap + c.template_check + c.ring_op,
    }
}

/// Per-frame cost from wire arrival to the protocol input routine,
/// *excluding* demux and notification (charged separately where they
/// differ structurally).
fn rx_device_cost(w: &World, h: usize, frame_len: usize) -> Nanos {
    let c = &w.costs;
    match w.hosts[h].nic {
        Nic::Lance(_) => c.interrupt + c.pio(frame_len),
        Nic::An1(_) => c.interrupt,
    }
}

/// Protocol-processing cost for one TCP segment (identical across
/// organizations — same code).
fn tcp_seg_cost(w: &World, payload_and_hdr: usize) -> Nanos {
    let c = &w.costs;
    c.tcp_per_segment + c.ip_per_packet + c.checksum(payload_and_hdr)
}

// ---------------------------------------------------------------------
// Frame construction & transmission
// ---------------------------------------------------------------------

/// Emits the link header for `h`'s network into `buf` (the first
/// link-header-length bytes).
fn emit_link_header(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    bqi: u16,
    announce: u16,
    buf: &mut [u8],
) {
    let host = &w.hosts[h];
    match &host.nic {
        Nic::Lance(_) => EthernetRepr {
            dst: dst_mac,
            src: host.mac,
            ethertype: EtherType::Ipv4,
        }
        .emit(buf)
        .expect("link headroom"),
        Nic::An1(_) => An1Repr {
            dst: dst_mac,
            src: host.mac,
            ethertype: EtherType::Ipv4,
            bqi,
            announce,
        }
        .emit(buf)
        .expect("link headroom"),
    }
}

/// Prepends the link header onto an IP-packet frame: in place when the
/// frame carries link headroom (the zero-copy tx path), by copy into a
/// fresh buffer otherwise.
fn encap_link(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    mut ip_packet: Frame,
    bqi: u16,
    announce: u16,
) -> Frame {
    let lhl = w.hosts[h].link_header_len();
    if ip_packet.headroom() < lhl {
        return Frame::from_vec(build_link_frame(w, h, dst_mac, &ip_packet, bqi, announce));
    }
    emit_link_header(w, h, dst_mac, bqi, announce, ip_packet.prepend(lhl));
    ip_packet
}

/// Wraps an IP packet in the link header for `h`'s network, copying into
/// a fresh buffer ([`encap_link`]'s slow path).
fn build_link_frame(
    w: &World,
    h: usize,
    dst_mac: MacAddr,
    ip_packet: &[u8],
    bqi: u16,
    announce: u16,
) -> Vec<u8> {
    let host = &w.hosts[h];
    match &host.nic {
        Nic::Lance(_) => EthernetRepr {
            dst: dst_mac,
            src: host.mac,
            ethertype: EtherType::Ipv4,
        }
        .build_frame(ip_packet),
        Nic::An1(_) => An1Repr {
            dst: dst_mac,
            src: host.mac,
            ethertype: EtherType::Ipv4,
            bqi,
            announce,
        }
        .build_frame(ip_packet),
    }
}

/// Resolves the next hop MAC, queueing behind ARP if needed. Returns
/// `None` when resolution is pending (the IP packet is parked — a
/// refcount bump, not a copy — and a request broadcast).
fn resolve_mac(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    dst_ip: Ipv4Addr,
    proto: IpProtocol,
    ip_packet: &Frame,
) -> Option<MacAddr> {
    if dst_ip.is_broadcast() {
        return Some(MacAddr::BROADCAST);
    }
    let now = eng.now();
    match w.hosts[h].arp.resolve(dst_ip, now) {
        ArpResult::Hit(mac) => Some(mac),
        ArpResult::Miss { request } => {
            w.hosts[h]
                .arp_wait
                .entry(dst_ip)
                .or_default()
                .push((proto, ip_packet.clone()));
            if let Some(req) = request {
                let frame = build_arp_frame(w, h, &req);
                let cost = w.costs.ip_per_packet + tx_device_cost(w, h, frame.len());
                host_exec(w, eng, h, cost, move |w, eng| {
                    transmit_frame(w, eng, h, frame);
                });
            }
            None
        }
    }
}

fn build_arp_frame(w: &World, h: usize, arp: &ArpRepr) -> Frame {
    let host = &w.hosts[h];
    let dst = if arp.target_mac == MacAddr::ZERO {
        MacAddr::BROADCAST
    } else {
        arp.target_mac
    };
    let payload = arp.build();
    Frame::from_vec(match &host.nic {
        Nic::Lance(_) => EthernetRepr {
            dst,
            src: host.mac,
            ethertype: EtherType::Arp,
        }
        .build_frame(&payload),
        Nic::An1(_) => An1Repr {
            dst,
            src: host.mac,
            ethertype: EtherType::Arp,
            bqi: 0,
            announce: 0,
        }
        .build_frame(&payload),
    })
}

/// Puts a frame on the wire: reserves the link and schedules arrival at
/// each recipient. Taps and recipients share the one frame by refcount —
/// no per-recipient copy.
fn transmit_frame(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let now = eng.now();
    let (start, arrival) = w.link.reserve(StationId(h), now, frame.len());
    let dst = MacAddr([frame[0], frame[1], frame[2], frame[3], frame[4], frame[5]]);
    w.metrics.bump(Ctr::FramesSent);
    unp_trace::emit_at(h as u16, Some(frame.id()), || unp_trace::Event::NicTx {
        len: frame.len() as u32,
    });
    // The wire-hop span for the causal tracer: time waiting for link
    // access vs serialization + propagation. The split telescopes with
    // the receiver's `nic_rx` timestamp (any residue is injected reorder
    // delay), so journey latency decomposes exactly.
    unp_trace::emit_at(h as u16, Some(frame.id()), || unp_trace::Event::LinkTx {
        queue: start - now,
        wire: arrival - start,
    });
    w.run_taps(now, &frame);
    if !w.faults.enabled {
        for rcpt in w.link.recipients(StationId(h), dst) {
            let bytes = frame.clone();
            eng.at(arrival, move |w, eng| frame_arrives(w, eng, rcpt.0, bytes));
        }
        return;
    }
    for rcpt in w.link.recipients(StationId(h), dst) {
        inject_and_deliver(w, eng, h, rcpt.0, arrival, now, &frame);
    }
}

/// Applies the fault plan's verdict to one recipient's copy of a frame
/// and schedules the surviving arrivals.
fn inject_and_deliver(
    w: &mut World,
    eng: &mut Eng,
    from: usize,
    to: usize,
    arrival: Nanos,
    now: Nanos,
    frame: &Frame,
) {
    use unp_trace::FaultKind;
    let fate = w.faults.fate(from, to, now);
    let (f16, t16) = (from as u16, to as u16);
    let emit_fault = |kind: FaultKind| {
        unp_trace::emit_at(f16, Some(frame.id()), || unp_trace::Event::FaultInject {
            kind,
            from: f16,
            to: t16,
        });
    };
    if fate.outage {
        w.metrics.bump(Ctr::FaultOutageDrops);
        w.metrics.link(f16, t16).outage_drops += 1;
        emit_fault(FaultKind::Outage);
        return;
    }
    if fate.drop {
        w.metrics.bump(Ctr::FaultDrops);
        w.metrics.link(f16, t16).drops += 1;
        emit_fault(FaultKind::Drop);
        return;
    }
    let mut bytes = frame.clone();
    if fate.corrupt {
        // Flip one byte past the link header: the TCP checksum catches it
        // at the receiver. Link-header corruption on AN1 could flip the
        // BQI field and *misdeliver* a checksum-valid segment — a
        // different fault class than in-flight payload damage, so it is
        // deliberately out of range. The clone diverges copy-on-write, so
        // taps and other recipients keep the pristine frame.
        let lhl = w.hosts[to].link_header_len();
        if bytes.len() > lhl {
            let idx = lhl + w.faults.pick(bytes.len() - lhl);
            bytes.as_mut_slice()[idx] ^= 0x20;
            w.metrics.bump(Ctr::FaultCorrupts);
            w.metrics.link(f16, t16).corrupts += 1;
            emit_fault(FaultKind::Corrupt);
        }
    }
    if fate.delays.len() > 1 {
        w.metrics.bump(Ctr::FaultDups);
        w.metrics.link(f16, t16).dups += 1;
        emit_fault(FaultKind::Duplicate);
    }
    for &extra in &fate.delays {
        if extra > 0 {
            w.metrics.bump(Ctr::FaultReorders);
            w.metrics.link(f16, t16).reorders += 1;
            emit_fault(FaultKind::Reorder);
        }
        let copy = bytes.clone();
        eng.at(arrival + extra, move |w, eng| {
            frame_arrives(w, eng, to, copy);
        });
    }
}

/// Encapsulates and transmits IP packets built by the copying slow paths
/// (UDP, ICMP, TCP fragmentation): each is staged once into a pooled
/// frame with link headroom, then the link header is prepended in place.
fn send_ip_packets(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    dst_ip: Ipv4Addr,
    proto: IpProtocol,
    pkts: Vec<Vec<u8>>,
) {
    let lhl = w.hosts[h].link_header_len();
    for ip_packet in pkts {
        let ipf = w.pool.alloc(lhl, &ip_packet);
        let Some(mac) = resolve_mac(w, eng, h, dst_ip, proto, &ipf) else {
            continue;
        };
        let frame = encap_link(w, h, mac, ipf, 0, 0);
        let cost = tx_device_cost(w, h, frame.len());
        host_exec(w, eng, h, cost, move |w, eng| {
            transmit_frame(w, eng, h, frame);
        });
    }
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

/// Entry point for a frame reaching host `h`'s interface.
pub fn frame_arrives(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    w.metrics.bump(Ctr::FramesReceived);
    let _attr = unp_trace::host_scope(h as u16);
    let cost = rx_device_cost(w, h, frame.len());
    match &mut w.hosts[h].nic {
        Nic::Lance(nic) => {
            if !nic.frame_arrived(frame, eng.now()) {
                w.metrics.bump(Ctr::NicDrops);
                return;
            }
            host_exec_intr(w, eng, h, cost, move |w, eng| {
                if let Nic::Lance(nic) = &mut w.hosts[h].nic {
                    if let Some(staged) = nic.host_take_frame() {
                        kernel_input(w, eng, h, staged.bytes, None);
                    }
                }
            });
        }
        Nic::An1(nic) => {
            // Hardware classification happens in the controller before the
            // completion interrupt.
            let ring = nic.classify_frame(&frame);
            host_exec_intr(w, eng, h, cost, move |w, eng| {
                kernel_input(w, eng, h, frame, Some(ring));
            });
        }
    }
}

/// Kernel-side input processing after interrupt (+PIO) costs.
/// `hw_ring` is `Some` on AN1 (the controller's BQI classification).
fn kernel_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    frame: Frame,
    hw_ring: Option<unp_buffers::RingId>,
) {
    let _attr = unp_trace::host_scope(h as u16);
    let lhl = w.hosts[h].link_header_len();
    if frame.len() < lhl {
        return;
    }
    let ethertype = EtherType::from_u16(u16::from_be_bytes([frame[12], frame[13]]));
    match ethertype {
        EtherType::Arp => arp_input(w, eng, h, &frame[lhl..]),
        EtherType::Ipv4 => {
            if w.hosts[h].org.is_user_library() {
                userlib_ip_input(w, eng, h, frame, hw_ring);
            } else {
                monolithic_ip_input(w, eng, h, frame);
            }
        }
        EtherType::Other(_) => w.metrics.bump(Ctr::UnknownEthertype),
    }
}

fn arp_input(w: &mut World, eng: &mut Eng, h: usize, payload: &[u8]) {
    let Ok(pkt) = ArpPacket::new_checked(payload) else {
        return;
    };
    let Ok(repr) = ArpRepr::parse(&pkt) else {
        return;
    };
    let now = eng.now();
    let reply = w.hosts[h].arp.input(&repr, now);
    if let Some(rep) = reply {
        let frame = build_arp_frame(w, h, &rep);
        let cost = w.costs.ip_per_packet + tx_device_cost(w, h, frame.len());
        host_exec(w, eng, h, cost, move |w, eng| {
            transmit_frame(w, eng, h, frame);
        });
    }
    // Flush packets that were waiting on this resolution.
    if let Some(waiting) = w.hosts[h].arp_wait.remove(&repr.sender_ip) {
        let mac = repr.sender_mac;
        for (_proto, ip_packet) in waiting {
            let frame = encap_link(w, h, mac, ip_packet, 0, 0);
            let cost = tx_device_cost(w, h, frame.len());
            host_exec(w, eng, h, cost, move |w, eng| {
                transmit_frame(w, eng, h, frame);
            });
        }
    }
}

// ------------------------- monolithic input ---------------------------

fn monolithic_ip_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let lhl = w.hosts[h].link_header_len();
    let now = eng.now();
    // Zero-copy fast path: a complete unfragmented TCP datagram for us is
    // sliced out of the wire frame (a window over the same backing buffer)
    // instead of copied out by `receive`.
    if let Some((src, IpProtocol::Tcp, range)) =
        w.hosts[h].ip_ep.receive_in_place(&frame[lhl..], now)
    {
        let payload = frame.slice(lhl + range.start, lhl + range.end);
        return tcp_input_direct(w, eng, h, src, payload);
    }
    let recv = w.hosts[h].ip_ep.receive(&frame[lhl..], now);
    match recv {
        IpRecv::Complete {
            protocol: IpProtocol::Tcp,
            src,
            payload,
            ..
        } => tcp_input_direct(w, eng, h, src, Frame::from_vec(payload)),
        IpRecv::Complete {
            protocol: IpProtocol::Udp,
            src,
            dst,
            payload,
        } => {
            // Keep the original datagram header around in case an ICMP
            // destination-unreachable must be generated.
            let orig = frame[lhl..].to_vec();
            udp_input(w, eng, h, src, dst, payload, orig);
        }
        IpRecv::Complete {
            protocol: IpProtocol::Icmp,
            src,
            payload,
            ..
        } => icmp_input_host(w, eng, h, src, &payload),
        IpRecv::Complete { .. } => w.metrics.bump(Ctr::IpUnknownProto),
        IpRecv::FragmentHeld => w.metrics.bump(Ctr::IpFragmentsHeld),
        IpRecv::NotForUs => w.metrics.bump(Ctr::IpNotForUs),
        IpRecv::Bad(_) => w.metrics.bump(Ctr::IpBad),
    }
}

/// Counts and journals a TCP segment discarded because its checksum
/// failed — damage in flight. The frame is dropped, not an error path:
/// the sender's retransmission recovers the data.
fn frame_corrupt_discard(w: &mut World, h: usize, frame: Option<u64>, len: usize) {
    w.metrics.bump(Ctr::TcpBadChecksum);
    w.metrics.bump(Ctr::FrameCorruptDiscards);
    unp_trace::emit_at(h as u16, frame, || unp_trace::Event::FrameCorruptDiscard {
        len: len as u32,
    });
}

/// TCP input for the monolithic organizations: in-kernel (or in-server)
/// PCB lookup and processing. `payload` is the IP payload, usually a
/// zero-copy window over the wire frame.
fn tcp_input_direct(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, payload: Frame) {
    let local_ip = w.hosts[h].ip;
    let Ok(pkt) = TcpPacket::new_checked(&payload[..]) else {
        w.metrics.bump(Ctr::TcpMalformed);
        return;
    };
    if !pkt.verify_checksum(src, local_ip) {
        frame_corrupt_discard(w, h, Some(payload.id()), payload.len());
        return;
    }
    let repr = TcpRepr::parse(&pkt);
    let data = payload.slice(pkt.header_len(), payload.len());
    // Per-segment stack cost, plus the kernel→server dispatch for the
    // server-based organizations.
    let c = &w.costs;
    let mut cost = tcp_seg_cost(w, payload.len());
    cost += match w.hosts[h].org {
        OrgKind::SingleServer | OrgKind::SingleServerMsg => c.ux_pkt_dispatch,
        OrgKind::DedicatedServer => c.ux_pkt_dispatch + c.mach_ipc_one_way,
        // Sub-1024-byte segments take the small-mbuf path in the stock
        // kernel (the copy-eliminating organization needs ≥1024).
        OrgKind::InKernel if data.len() < 1024 && !data.is_empty() => c.small_pkt_overhead,
        _ => 0,
    };
    // The AN1 controller's inherent device-management cost applies to the
    // kernel's BQI-0 ring exactly as to user rings (paper Table 5).
    if matches!(w.hosts[h].nic, Nic::An1(_)) {
        cost += c.bqi_demux;
    }
    host_exec(w, eng, h, cost, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        let key = (repr.dst_port, src, repr.src_port);
        let now = eng.now();
        if let Some(&cid) = w.hosts[h].conn_index.get(&key) {
            let actions = {
                let conn = w.hosts[h].conns.get_mut(&cid).expect("indexed");
                conn.tcb.on_segment(&repr, &data, now)
            };
            apply_tcp_actions(w, eng, h, cid, Some(data.id()), actions);
            return;
        }
        // New connection to a listener?
        if w.hosts[h].listeners.contains_key(&repr.dst_port) {
            // Socket + PCB creation for the accepted connection.
            w.hosts[h].cpu.charge(now, w.costs.pcb_setup);
            let local_ip = w.hosts[h].ip;
            let iss = w.hosts[h].alloc_iss();
            let listener = w.hosts[h]
                .listeners
                .get_mut(&repr.dst_port)
                .expect("checked");
            let cfg = listener.cfg.clone();
            let app = (listener.factory)();
            let ltcb = ListenTcb::new((local_ip, repr.dst_port), cfg);
            if let Some((tcb, actions)) = ltcb.on_syn((src, repr.src_port), &repr, iss, now) {
                let write_size = 4096;
                let cid = install_conn(w, h, tcb, app, None, write_size);
                apply_tcp_actions(w, eng, h, cid, None, actions);
            }
            return;
        }
        // Stray: RST.
        if !repr.flags.rst {
            let rst = Tcb::rst_for((w.hosts[h].ip, repr.dst_port), &repr, data.len());
            send_tcp_segment(w, eng, h, None, rst, Vec::new(), src);
        }
    });
}

/// Registers and binds a UDP port on `host` through the UDP registry
/// server (name allocation is privileged; the data path then uses the
/// bound `UdpLayer` directly).
pub fn bind_udp(w: &mut World, host: usize, port: u16) -> bool {
    let owner = w.hosts[host].owner();
    if w.hosts[host].udp_registry.bind(owner, port).is_err() {
        return false;
    }
    w.hosts[host].udp.bind(port)
}

/// Sends a UDP datagram from `host` (source port must be bound via
/// [`bind_udp`] for replies to be deliverable).
pub fn send_udp(
    w: &mut World,
    eng: &mut Eng,
    host: usize,
    src_port: u16,
    dst: (Ipv4Addr, u16),
    payload: Vec<u8>,
) {
    let cost =
        app_boundary_cost(w, host) + w.costs.udp_per_packet + w.costs.checksum(payload.len());
    host_exec(w, eng, host, cost, move |w, eng| {
        let src_ip = w.hosts[host].ip;
        let dgram = w.hosts[host]
            .udp
            .send(src_ip, src_port, dst.0, dst.1, &payload);
        let pkts = {
            let mtu = w.link.params().mtu;
            w.hosts[host]
                .ip_ep
                .send(IpProtocol::Udp, dst.0, &dgram, mtu)
        };
        send_ip_packets(w, eng, host, dst.0, IpProtocol::Udp, pkts);
    });
}

/// Sends an ICMP echo request from `host` to `dst`. The reply is counted
/// in the trace under `icmp_echo_reply_received`.
pub fn send_ping(w: &mut World, eng: &mut Eng, host: usize, dst: Ipv4Addr, ident: u16, seq: u16) {
    let msg = unp_wire::IcmpRepr::Echo {
        request: true,
        ident,
        seq,
        data: b"unp ping".to_vec(),
    }
    .build();
    let cost = w.costs.ip_per_packet + w.costs.checksum(msg.len());
    host_exec(w, eng, host, cost, move |w, eng| {
        let pkts = {
            let mtu = w.link.params().mtu;
            w.hosts[host].ip_ep.send(IpProtocol::Icmp, dst, &msg, mtu)
        };
        send_ip_packets(w, eng, host, dst, IpProtocol::Icmp, pkts);
    });
}

fn udp_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    payload: Vec<u8>,
    orig_ip_packet: Vec<u8>,
) {
    let cost = w.costs.udp_per_packet + w.costs.checksum(payload.len());
    host_exec(w, eng, h, cost, move |w, eng| {
        use unp_proto::udp::UdpRecv;
        match w.hosts[h].udp.receive(src, dst, &payload) {
            UdpRecv::Delivered { .. } => w.metrics.bump(Ctr::UdpDelivered),
            UdpRecv::PortUnreachable => {
                w.metrics.bump(Ctr::UdpUnreachable);
                // "In response to a packet arriving at a port without a
                // listening socket, an ICMP destination unreachable
                // message is generated."
                let icmp = unp_proto::icmp::port_unreachable(&orig_ip_packet).build();
                let cost = w.costs.ip_per_packet + w.costs.checksum(icmp.len());
                host_exec(w, eng, h, cost, move |w, eng| {
                    let pkts = {
                        let mtu = w.link.params().mtu;
                        w.hosts[h].ip_ep.send(IpProtocol::Icmp, src, &icmp, mtu)
                    };
                    send_ip_packets(w, eng, h, src, IpProtocol::Icmp, pkts);
                });
            }
            UdpRecv::Bad(_) => w.metrics.bump(Ctr::UdpBad),
        }
    });
}

fn icmp_input_host(w: &mut World, eng: &mut Eng, h: usize, src: Ipv4Addr, payload: &[u8]) {
    let cost = w.costs.ip_per_packet + w.costs.checksum(payload.len());
    match icmp_input(payload) {
        Ok(Some(reply)) => {
            let bytes = reply.build();
            host_exec(w, eng, h, cost, move |w, eng| {
                let pkts = {
                    let mtu = w.link.params().mtu;
                    w.hosts[h].ip_ep.send(IpProtocol::Icmp, src, &bytes, mtu)
                };
                send_ip_packets(w, eng, h, src, IpProtocol::Icmp, pkts);
                w.metrics.bump(Ctr::IcmpEchoReplies);
            });
        }
        Ok(None) => {
            // Classify for the trace: echo replies (our pings coming
            // back) and destination-unreachable errors.
            match unp_wire::IcmpPacket::new_checked(payload)
                .ok()
                .map(|p| p.icmp_type())
            {
                Some(unp_wire::IcmpType::EchoReply) => w.metrics.bump(Ctr::IcmpEchoReplyReceived),
                Some(unp_wire::IcmpType::DestUnreachable(_)) => {
                    w.metrics.bump(Ctr::IcmpDestUnreachableReceived)
                }
                _ => w.metrics.bump(Ctr::IcmpOther),
            }
        }
        Err(_) => w.metrics.bump(Ctr::IcmpBad),
    }
}

// ------------------------- user-library input -------------------------

fn userlib_ip_input(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    frame: Frame,
    hw_ring: Option<unp_buffers::RingId>,
) {
    // Only TCP goes through connection channels; other IP protocols take
    // the kernel path (same handling as monolithic — they are not part of
    // the paper's measurements but keep the host fully functional).
    let lhl = w.hosts[h].link_header_len();
    let is_tcp = frame.len() > lhl + 9 && frame[lhl + 9] == IpProtocol::Tcp.to_u8();
    if !is_tcp {
        monolithic_ip_input(w, eng, h, frame);
        return;
    }
    // Slow-consumer windows from the fault plan clamp the effective ring
    // capacity for the delivery below (None clears any previous clamp; a
    // disabled plan always yields None). Overflow drops recover through
    // normal TCP retransmission.
    let cap = w.faults.ring_cap(h, eng.now());
    w.hosts[h].netio.set_pressure_cap(cap);
    let delivery = match hw_ring {
        Some(ring) => w.hosts[h].netio.deliver_hardware(ring, &frame),
        None => w.hosts[h].netio.deliver_software(&frame),
    };
    let c = &w.costs;
    // The modeled demux cost. Software deliveries charge the filter-scan
    // model whether the host mechanism was the flow table or the scan
    // (`filter_instrs` is scan-equivalent by construction): the compared
    // 1993 systems interpret a filter per packet, and the tables must not
    // move when the reproduction's own hot path gets faster. See
    // `CostModel::flow_demux` for the modeled fast-path constant ablations
    // use.
    let model_path = if hw_ring.is_some() {
        DemuxPath::Hardware
    } else {
        DemuxPath::FilterScan
    };
    match delivery {
        Delivery::Channel {
            id,
            signal,
            filter_instrs,
            path,
            depth,
        } => {
            let demux_cost = c.demux_cost(model_path, filter_instrs);
            w.metrics.bump(Ctr::ChDeliveries);
            // Live tier/occupancy telemetry: which machinery actually
            // decided the delivery (unlike `model_path`, which is what
            // the 1993 cost model charges), and the ring backlog after
            // the push — what a windowed sampler watches.
            match path {
                DemuxPath::FlowTable => w.metrics.bump(Ctr::ChFlowHits),
                DemuxPath::ListenTable => w.metrics.bump(Ctr::ChListenHits),
                DemuxPath::FilterScan => w.metrics.bump(Ctr::ChScanFallbacks),
                DemuxPath::Hardware => {}
            }
            w.metrics.sample(Hist::RingDepth, depth as u64);
            // Byzantine ring-flood: the hostile tenant's library "never
            // wakes up", so its rings fill until the per-tenant quota
            // sheds further deliveries. Only the demux bookkeeping is
            // charged — exactly the batched path's cost shape.
            if let Some(owner) = w.hosts[h].netio.channel_owner(id) {
                if w.faults.ring_flood_active(h, owner.0, eng.now()) {
                    w.hosts[h]
                        .cpu
                        .charge_priority(eng.now(), demux_cost + c.ring_op);
                    return;
                }
            }
            let signal = signal || w.ablate_batching;
            if signal {
                let cost = demux_cost
                    + c.ring_op
                    + c.semaphore_signal
                    + c.wakeup_resched
                    + c.thread_switch;
                host_exec_intr(w, eng, h, cost, move |w, eng| {
                    library_wakeup(w, eng, h, id);
                });
            } else {
                // Batched: no interrupt taken; the running library thread
                // will consume this frame from the ring. Only the demux
                // machinery's bookkeeping costs.
                w.metrics.bump(Ctr::ChBatched);
                w.hosts[h]
                    .cpu
                    .charge_priority(eng.now(), demux_cost + c.ring_op);
            }
        }
        Delivery::KernelDefault { filter_instrs, .. } => {
            let demux_cost = c.demux_cost(model_path, filter_instrs);
            host_exec(w, eng, h, demux_cost, move |w, eng| {
                registry_tcp_input(w, eng, h, frame);
            });
        }
        Delivery::Dropped => w.metrics.bump(Ctr::ChRingDrops),
        // The channel had room but its tenant's aggregate ring budget was
        // exhausted — charged to the tenant, recovered by TCP like any
        // other ring drop.
        Delivery::QuotaDropped { .. } => w.metrics.bump(Ctr::ChQuotaDrops),
    }
}

/// The library thread wakes: consume every queued frame, run the protocol
/// over each, deliver to the application.
fn library_wakeup(w: &mut World, eng: &mut Eng, h: usize, chan: ChannelId) {
    let _attr = unp_trace::host_scope(h as u16);
    // Pre-establishment hardware deliveries land here with no conn yet:
    // feed them back through the registry.
    let Some(&cid) = w.hosts[h].chan_to_conn.get(&chan) else {
        let hs = w.hosts[h].hs_by_chan.get(&chan).copied();
        if let Some(hs) = hs {
            let recv_cap = w.hosts[h].hs_setup[&hs].chan.recv_cap;
            if let Ok(frames) = w.hosts[h].netio.consume(recv_cap) {
                for f in frames {
                    registry_tcp_input(w, eng, h, f);
                }
            }
        }
        return;
    };
    let recv_cap = match &w.hosts[h].conns.get(&cid).and_then(|c| c.chan.as_ref()) {
        Some(ci) => ci.recv_cap,
        None => return,
    };
    // Consume without clearing the notification: packets arriving while
    // the library thread is processing are picked up by the same wakeup
    // (the paper's signal batching).
    let Ok(frames) = w.hosts[h].netio.consume_batch(recv_cap) else {
        return;
    };
    if frames.is_empty() {
        let _ = w.hosts[h].netio.end_wakeup(recv_cap);
        return;
    }
    w.metrics
        .sample(Hist::WakeupBatchFrames, frames.len() as u64);
    // Process the consumed batch one frame at a time, each charged
    // individually, so acknowledgments flow as segments are handled (the
    // batching amortizes only the semaphore/thread-switch, not the
    // protocol work — processing a batch "atomically" would stall the
    // sender's ACK clock).
    library_process_chain(w, eng, h, cid, frames.into());
}

fn library_process_chain(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    mut frames: std::collections::VecDeque<Frame>,
) {
    let Some(frame) = frames.pop_front() else {
        // Batch done: re-check the ring; more may have arrived while we
        // were processing (they were batched, not signalled).
        let recv_cap = w.hosts[h]
            .conns
            .get(&cid)
            .and_then(|c| c.chan.as_ref())
            .map(|ci| ci.recv_cap);
        if let Some(cap) = recv_cap {
            if let Ok(done) = w.hosts[h].netio.end_wakeup(cap) {
                if !done {
                    library_wakeup_continue(w, eng, h, cid, cap);
                }
            }
        }
        return;
    };
    let lhl = w.hosts[h].link_header_len();
    let len = frame.len().saturating_sub(lhl);
    // On the software-demux (Ethernet) path, the shared-region crossing
    // under user-level synchronization costs extra per byte (paper: +0.8 ms
    // for a maximum-sized packet vs Ultrix); the AN1 hardware path is
    // "comparable" to the in-kernel path and is not charged.
    let sw_extra = match w.hosts[h].nic {
        Nic::Lance(_) => w.costs.lib_sw_rx_per_byte * len as Nanos,
        Nic::An1(_) => 0,
    };
    let cost = tcp_seg_cost(w, len) + w.costs.library_call + w.costs.lib_upcall_sync + sw_extra;
    host_exec(w, eng, h, cost, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        let local_ip = w.hosts[h].ip;
        'one: {
            if frame.len() <= lhl {
                break 'one;
            }
            // The library runs its own IP input (frag handled by the
            // shared IP library). The common case — a complete
            // unfragmented datagram — is sliced out of the ring frame
            // without copying.
            let now = eng.now();
            let (src, payload) = match w.hosts[h].ip_ep.receive_in_place(&frame[lhl..], now) {
                Some((src, IpProtocol::Tcp, range)) => {
                    (src, frame.slice(lhl + range.start, lhl + range.end))
                }
                _ => {
                    let recv = w.hosts[h].ip_ep.receive(&frame[lhl..], now);
                    let IpRecv::Complete {
                        protocol: IpProtocol::Tcp,
                        src,
                        payload,
                        ..
                    } = recv
                    else {
                        w.metrics.bump(Ctr::LibNonTcp);
                        break 'one;
                    };
                    (src, Frame::from_vec(payload))
                }
            };
            let Ok(pkt) = TcpPacket::new_checked(&payload[..]) else {
                break 'one;
            };
            if !pkt.verify_checksum(src, local_ip) {
                frame_corrupt_discard(w, h, Some(payload.id()), payload.len());
                break 'one;
            }
            let repr = TcpRepr::parse(&pkt);
            let data = payload.slice(pkt.header_len(), payload.len());
            unp_trace::emit(Some(frame.id()), || unp_trace::Event::TcpSegment {
                dir: unp_trace::Dir::Rx,
                local_port: repr.dst_port,
                remote_port: repr.src_port,
                remote_ip: src.0,
                seq: repr.seq.0,
                ack: repr.ack_num.0,
                wnd: u32::from(repr.window),
                flags: seg_flags(&repr),
                payload: data.len() as u32,
                wire: (frame.len() - lhl) as u32,
            });
            let actions = {
                let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
                    break 'one;
                };
                conn.tcb.on_segment(&repr, &data, now)
            };
            apply_tcp_actions(w, eng, h, cid, Some(frame.id()), actions);
        }
        library_process_chain(w, eng, h, cid, frames);
    });
}

/// Continues a wakeup that found more packets queued at the end of its
/// batch (no new semaphore signal was posted for them).
fn library_wakeup_continue(w: &mut World, eng: &mut Eng, h: usize, cid: u32, recv_cap: Capability) {
    let _attr = unp_trace::host_scope(h as u16);
    if let Ok(frames) = w.hosts[h].netio.consume_batch(recv_cap) {
        if frames.is_empty() {
            let _ = w.hosts[h].netio.end_wakeup(recv_cap);
        } else {
            w.metrics
                .sample(Hist::WakeupBatchFrames, frames.len() as u64);
            library_process_chain(w, eng, h, cid, frames.into());
        }
    }
}

/// Kernel-default TCP traffic: handshakes and strays, handled by the
/// registry server (one address-space crossing away).
fn registry_tcp_input(w: &mut World, eng: &mut Eng, h: usize, frame: Frame) {
    let lhl = w.hosts[h].link_header_len();
    // Record any BQI announcement riding the AN1 link header.
    if let Nic::An1(_) = w.hosts[h].nic {
        if let Ok(f) = An1Frame::new_checked(&frame[..]) {
            let ann = f.announce();
            if ann != 0 {
                // Key by our (local port, remote ip, remote port).
                if let Peek::Tcp(src, repr) = peek_tcp_quiet(w, h, &frame) {
                    w.hosts[h]
                        .announced
                        .insert((repr.dst_port, src, repr.src_port), ann);
                }
            }
        }
    }
    let Some((src, repr)) = peek_tcp(w, h, &frame) else {
        return;
    };
    let Ok(pkt) = TcpPacket::new_checked(&frame[lhl + 20..]) else {
        return;
    };
    let data = frame.slice(lhl + 20 + pkt.header_len(), frame.len());
    // Charge the protocol cost now; the routing decision happens at
    // completion time so it sees the registry/connection state as of when
    // the segment is actually examined (the arrival-time state may change
    // while the segment waits its turn on the CPU).
    let cost = tcp_seg_cost(w, frame.len() - lhl);
    host_exec(w, eng, h, cost, move |w, eng| {
        let _attr = unp_trace::host_scope(h as u16);
        let key = (repr.dst_port, src, repr.src_port);
        let now = eng.now();
        // An established connection whose binding the frame missed (e.g. a
        // handshake retransmission racing activation): to the library.
        if let Some(&cid) = w.hosts[h].conn_index.get(&key) {
            let actions = {
                let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
                    return;
                };
                conn.tcb.on_segment(&repr, &data, now)
            };
            apply_tcp_actions(w, eng, h, cid, Some(data.id()), actions);
            return;
        }
        // A connection mid-Complete: the kernel holds the frame until the
        // library's channel activates.
        if w.hosts[h]
            .hs_setup
            .values()
            .any(|s| s.key == key && s.completing)
        {
            w.hosts[h].parked.entry(key).or_default().push(frame);
            w.metrics.bump(Ctr::FramesParked);
            return;
        }
        // Registry path (handshakes, inherited connections, strays): the
        // registry's device access is by Mach IPC, not shared memory.
        w.hosts[h].cpu.charge(now, w.costs.registry_pkt_op);
        let actions = w.hosts[h].registry.on_segment(src, &repr, &data, now);
        apply_registry_actions(w, eng, h, actions);
    });
}

/// What [`peek_tcp_quiet`] saw in a frame.
enum Peek {
    /// A checksum-valid TCP segment.
    Tcp(Ipv4Addr, TcpRepr),
    /// A TCP segment whose checksum failed (damaged in flight); carries
    /// the segment length for the discard journal entry.
    BadChecksum(usize),
    /// Not an unfragmented TCP segment at all.
    NotTcp,
}

/// Parses (src ip, tcp header) out of a frame without consuming reassembly
/// state (handshake segments are never fragmented) and without touching
/// metrics — the BQI-announcement probe runs this on frames the main path
/// will classify again.
fn peek_tcp_quiet(w: &World, h: usize, frame: &[u8]) -> Peek {
    let lhl = w.hosts[h].link_header_len();
    let Ok(ip) = unp_wire::Ipv4Packet::new_checked(&frame[lhl..]) else {
        return Peek::NotTcp;
    };
    if ip.protocol() != IpProtocol::Tcp || ip.more_frags() || ip.frag_offset() != 0 {
        return Peek::NotTcp;
    }
    let src = ip.src();
    let dst = ip.dst();
    let Ok(pkt) = TcpPacket::new_checked(ip.payload()) else {
        return Peek::NotTcp;
    };
    if !pkt.verify_checksum(src, dst) {
        return Peek::BadChecksum(ip.payload().len());
    }
    Peek::Tcp(src, TcpRepr::parse(&pkt))
}

/// [`peek_tcp_quiet`] plus accounting: a checksum failure is counted and
/// journaled as a corrupt-frame discard instead of vanishing silently.
fn peek_tcp(w: &mut World, h: usize, frame: &Frame) -> Option<(Ipv4Addr, TcpRepr)> {
    match peek_tcp_quiet(w, h, &frame[..]) {
        Peek::Tcp(src, repr) => Some((src, repr)),
        Peek::BadChecksum(len) => {
            frame_corrupt_discard(w, h, Some(frame.id()), len);
            None
        }
        Peek::NotTcp => None,
    }
}

// ---------------------------------------------------------------------
// Registry action routing
// ---------------------------------------------------------------------

fn apply_registry_actions(w: &mut World, eng: &mut Eng, h: usize, actions: Vec<RegistryAction>) {
    for action in actions {
        match action {
            RegistryAction::Send {
                hs,
                repr,
                payload,
                remote,
            } => {
                ensure_hs_setup(w, h, hs, &repr, remote);
                // Announce our BQI on AN1 handshake segments.
                let announce = w.hosts[h]
                    .hs_setup
                    .get(&hs.0)
                    .map(|s| s.chan.our_bqi)
                    .unwrap_or(0);
                let c = &w.costs;
                let cost = c.registry_pkt_op + tcp_seg_cost(w, repr.header_len() + payload.len());
                host_exec(w, eng, h, cost, move |w, eng| {
                    emit_tcp_segment(w, eng, h, &repr, &payload, remote, 0, announce, None);
                });
            }
            RegistryAction::SetTimer(hs, t, deadline) => {
                if let Some(old) = w.hosts[h].reg_timers.remove(&(hs.0, t)) {
                    w.hosts[h].wheel.stop(old);
                }
                let id = w.hosts[h]
                    .wheel
                    .start(deadline, TimerToken::Registry(hs.0, t));
                w.hosts[h].reg_timers.insert((hs.0, t), id);
                resched_wheel(w, eng, h);
            }
            RegistryAction::CancelTimer(hs, t) => {
                if let Some(old) = w.hosts[h].reg_timers.remove(&(hs.0, t)) {
                    w.hosts[h].wheel.stop(old);
                    resched_wheel(w, eng, h);
                }
            }
            RegistryAction::Complete { hs, tcb, .. } => {
                if let Some(setup) = w.hosts[h].hs_setup.get_mut(&hs.0) {
                    setup.completing = true;
                }
                // Channel finalization + TCP state transfer + reply RPC.
                let c = &w.costs;
                let mut cost = c.channel_setup + c.state_transfer + c.registry_rpc;
                if matches!(w.hosts[h].nic, Nic::An1(_)) {
                    cost += c.bqi_setup; // programming the BQI machinery
                }
                host_exec(w, eng, h, cost, move |w, eng| {
                    finalize_user_conn(w, eng, h, hs, *tcb);
                });
            }
            RegistryAction::Failed { hs, .. } => {
                w.metrics.bump(Ctr::HandshakeFailures);
                if let Some(setup) = w.hosts[h].hs_setup.remove(&hs.0) {
                    w.hosts[h].hs_by_chan.remove(&setup.chan.id);
                    w.hosts[h].netio.destroy_channel(setup.chan.id, OwnerTag(0));
                    w.metrics.gauge_dec(Gauge::OpenChannels);
                }
                w.hosts[h].pending_tenants.remove(&hs.0);
                if let Some(mut app) = w.hosts[h].pending_apps.remove(&hs.0) {
                    let view = crate::app::AppView {
                        now: eng.now(),
                        send_space: 0,
                        pending_tx: 0,
                        local: None,
                        remote: None,
                    };
                    app.on_reset(&view);
                }
            }
        }
    }
}

/// Creates the channel, template, and (on AN1) BQI for a handshake the
/// first time the registry sends a segment for it. "Before initiating
/// connection the server requests the network I/O module for a BQI that
/// the remote node can use."
fn ensure_hs_setup(w: &mut World, h: usize, hs: HsId, repr: &TcpRepr, remote: Ipv4Addr) {
    if hs.0 == 0 || w.hosts[h].hs_setup.contains_key(&hs.0) {
        return; // hs 0 is the registry's stray-RST pseudo-connection
    }
    // Channels exist only for connections headed to an application; the
    // registry's inherited closers (FIN/RST/ACK traffic, never SYN) stay
    // on the kernel path.
    if !repr.flags.syn {
        return;
    }
    let local_ip = w.hosts[h].ip;
    let local_port = repr.src_port;
    let remote_port = repr.dst_port;
    let lhl = w.hosts[h].link_header_len();
    // Fully specified by construction, so the binding distills into the
    // kernel's exact-match flow table (see `connection_demux_spec`).
    let spec =
        unp_registry::connection_demux_spec(lhl, (local_ip, local_port), (remote, remote_port));
    let template = HeaderTemplate {
        link_header_len: lhl,
        src_mac: Some(w.hosts[h].mac),
        dst_mac: None,
        ethertype: EtherType::Ipv4,
        protocol: IpProtocol::Tcp,
        src_ip: local_ip,
        dst_ip: remote,
        src_port: local_port,
        dst_port: Some(remote_port),
        bqi: None,
    };
    // Channel ownership: an active open's tenant was pinned at connect
    // time; a passive open inherits the listening port's tenant. Both
    // default to the host's single-app owner.
    let owner = w.hosts[h]
        .pending_tenants
        .get(&hs.0)
        .or_else(|| w.hosts[h].listener_tenants.get(&local_port))
        .copied()
        .unwrap_or_else(|| w.hosts[h].owner());
    let mtu = w.link.params().mtu;
    // The pinned region must cover a full advertised window of segments
    // (paper: "this memory is kept pinned for the duration of the
    // connection"). The window is byte-based (≤64 kB) but the ring is
    // slot-based, so size it for the worst case of small segments: a
    // 64 kB window of ~100-byte no-Nagle dribble segments.
    let Some((chan_id, send_cap, recv_cap, ring)) =
        w.hosts[h]
            .netio
            .try_create_channel(owner, &spec, template, 768, mtu + lhl + 8)
    else {
        // The tenant is at its channel cap: no channel, no hs record. The
        // handshake can never finalize at the library level; the peer's
        // retransmits run out and the connection fails — contained to the
        // over-cap tenant.
        return;
    };
    w.metrics.gauge_inc(Gauge::OpenChannels);
    let our_bqi = match &mut w.hosts[h].nic {
        Nic::An1(nic) => nic.bqi_table.allocate(owner, ring).unwrap_or(0),
        Nic::Lance(_) => 0,
    };
    let key = (local_port, remote, remote_port);
    w.hosts[h].hs_by_chan.insert(chan_id, hs.0);
    w.hosts[h].hs_setup.insert(
        hs.0,
        HsSetup {
            chan: ChanInfo {
                id: chan_id,
                send_cap,
                recv_cap,
                our_bqi,
                peer_bqi: None,
            },
            key,
            completing: false,
        },
    );
}

/// The handshake completed: activate the channel, fix the template's BQI,
/// install the connection in the application's library, and upcall it.
fn finalize_user_conn(w: &mut World, eng: &mut Eng, h: usize, hs: HsId, tcb: Tcb) {
    let Some(setup) = w.hosts[h].hs_setup.remove(&hs.0) else {
        return;
    };
    w.hosts[h].hs_by_chan.remove(&setup.chan.id);
    let mut chan = setup.chan;
    // Peer's announced BQI (AN1): required on our outgoing data frames.
    chan.peer_bqi = w.hosts[h].announced.get(&setup.key).copied();
    if let Some(bqi) = chan.peer_bqi {
        w.hosts[h].netio.set_template_bqi(chan.id, bqi);
    }
    w.hosts[h].netio.activate(chan.id);
    // The app: active opens registered it; passive opens use the listener
    // factory.
    let port = tcb.local().1;
    let app = match w.hosts[h].pending_apps.remove(&hs.0) {
        Some(app) => Some(app),
        None => w.hosts[h].listeners.get_mut(&port).map(|l| (l.factory)()),
    };
    let Some(app) = app else {
        // The listener was torn down while the handshake was completing.
        // The channel is already activated and the peer believes it is
        // connected, so this cannot just drop on the floor: release the
        // channel and reset the peer.
        listener_vanished(w, eng, h, chan, tcb);
        return;
    };
    let write_size = w.hosts[h].pending_write_sizes.remove(&hs.0).unwrap_or(4096);
    w.hosts[h].pending_tenants.remove(&hs.0);
    let cid = install_conn(w, h, tcb, app, Some(chan), write_size);
    w.metrics.bump(Ctr::ConnectionsEstablished);
    // Frames the kernel parked while the channel was being finalized.
    if let Some(frames) = w.hosts[h].parked.remove(&setup.key) {
        let lhl = w.hosts[h].link_header_len();
        for f in frames {
            let cost = tcp_seg_cost(w, f.len().saturating_sub(lhl));
            host_exec(w, eng, h, cost, move |w, eng| {
                deliver_frame_to_conn(w, eng, h, cid, f);
            });
        }
    }
    // Deliver the Connected upcall.
    let cost = app_boundary_cost(w, h);
    host_exec(w, eng, h, cost, move |w, eng| {
        app_event(w, eng, h, cid, AppEvent::Connected);
    });
}

/// A handshake completed for a listener that no longer exists (the
/// accepting process unlistened or died mid-completion). The channel was
/// already activated, so release it and its BQI, forget frames parked
/// under the key, and hand the established TCB to the registry, which
/// resets the peer on the vanished application's behalf (the §3.4
/// trusted-agent role).
fn listener_vanished(w: &mut World, eng: &mut Eng, h: usize, chan: ChanInfo, tcb: Tcb) {
    w.metrics.bump(Ctr::ListenerVanished);
    w.metrics.bump(Ctr::ResourceReclaims);
    let port = tcb.local().1;
    let owner32 = w.hosts[h].owner().0 as u32;
    unp_trace::emit_at(h as u16, None, || unp_trace::Event::ResourceReclaim {
        kind: unp_trace::ReclaimKind::Connection,
        owner: owner32,
        id: port as u32,
    });
    let key = (port, tcb.remote().0, tcb.remote().1);
    w.hosts[h].parked.remove(&key);
    w.hosts[h].announced.remove(&key);
    let stats = w.hosts[h].netio.channel_stats(chan.id);
    w.hosts[h].netio.destroy_channel(chan.id, OwnerTag(0));
    if let Nic::An1(nic) = &mut w.hosts[h].nic {
        nic.bqi_table
            .free(chan.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
    }
    w.metrics.gauge_dec(Gauge::OpenChannels);
    if let Some(cs) = stats {
        w.hosts[h]
            .registry
            .record_channel_stats(port, tcb.remote(), cs);
    }
    let owner = w.hosts[h].owner();
    let now = eng.now();
    let actions = w.hosts[h].registry.app_exit(owner, vec![tcb], true, now);
    apply_registry_actions(w, eng, h, actions);
}

/// Parses a frame and feeds it to an installed connection (parked-frame
/// delivery path; costs already charged).
fn deliver_frame_to_conn(w: &mut World, eng: &mut Eng, h: usize, cid: u32, frame: Frame) {
    let _attr = unp_trace::host_scope(h as u16);
    let Some((src, repr)) = peek_tcp(w, h, &frame) else {
        return;
    };
    let lhl = w.hosts[h].link_header_len();
    let Ok(pkt) = TcpPacket::new_checked(&frame[lhl + 20..]) else {
        return;
    };
    let data = frame.slice(lhl + 20 + pkt.header_len(), frame.len());
    let _ = src;
    let now = eng.now();
    let actions = {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        conn.tcb.on_segment(&repr, &data, now)
    };
    apply_tcp_actions(w, eng, h, cid, Some(frame.id()), actions);
}

// ---------------------------------------------------------------------
// TCP action routing (library / in-kernel stack, post-establishment)
// ---------------------------------------------------------------------

/// Routes one batch of TCP actions. `frame` is the id of the received
/// frame that produced them (None for timer fires and app-initiated
/// sends) — it stamps the `app_deliver` journal record so the profiler
/// can join the final stage of the frame's path.
fn apply_tcp_actions(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: u32,
    frame: Option<u64>,
    actions: Vec<TcpAction>,
) {
    // Harvest the connection's counter increments into the live registry
    // so windowed samplers see retransmit/RTT activity as it happens, not
    // at teardown. The cumulative per-connection stats are untouched.
    if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
        let d = conn.tcb.take_stats_delta();
        w.metrics.add(Ctr::TcpRexmitBytes, d.bytes_rexmit);
        w.metrics.add(Ctr::TcpRexmitSegs, d.rexmits);
        w.metrics.add(Ctr::TcpRttSamples, d.rtt_samples);
    }
    for action in actions {
        if !w.hosts[h].conns.contains_key(&cid) {
            return; // connection reaped mid-sequence
        }
        match action {
            TcpAction::Send(repr, payload) => {
                let remote = w.hosts[h].conns[&cid].tcb.remote().0;
                send_tcp_segment(w, eng, h, Some(cid), repr, payload, remote);
            }
            TcpAction::SetTimer(t, deadline) => {
                let host = &mut w.hosts[h];
                let conn = host.conns.get_mut(&cid).expect("checked");
                if let Some(old) = conn.timer_ids.remove(&t) {
                    host.wheel.stop(old);
                }
                let id = host.wheel.start(deadline, TimerToken::Conn(cid, t));
                host.conns
                    .get_mut(&cid)
                    .expect("checked")
                    .timer_ids
                    .insert(t, id);
                resched_wheel(w, eng, h);
            }
            TcpAction::CancelTimer(t) => {
                let host = &mut w.hosts[h];
                if let Some(conn) = host.conns.get_mut(&cid) {
                    if let Some(old) = conn.timer_ids.remove(&t) {
                        host.wheel.stop(old);
                        resched_wheel(w, eng, h);
                    }
                }
            }
            TcpAction::Connected => {
                let cost = app_boundary_cost(w, h);
                host_exec(w, eng, h, cost, move |w, eng| {
                    app_event(w, eng, h, cid, AppEvent::Connected);
                });
            }
            TcpAction::DataAvailable => {
                // Drain the receive buffer and upcall the application.
                let now = eng.now();
                let (key, (data, more_actions)) = {
                    let conn = w.hosts[h].conns.get_mut(&cid).expect("checked");
                    (conn_key(h, &conn.tcb), conn.tcb.recv(usize::MAX, now))
                };
                apply_tcp_actions(w, eng, h, cid, frame, more_actions);
                if !data.is_empty() {
                    w.metrics.sample(Hist::AppDeliverBytes, data.len() as u64);
                    w.metrics.conn(key).bytes_to_app += data.len() as u64;
                    unp_trace::emit_at(h as u16, frame, || unp_trace::Event::AppDeliver {
                        conn: cid as u64,
                        bytes: data.len() as u32,
                    });
                    let cost = app_boundary_cost(w, h) + rx_copy_cost(w, h, data.len());
                    host_exec(w, eng, h, cost, move |w, eng| {
                        app_event(w, eng, h, cid, AppEvent::Data(data));
                    });
                }
            }
            TcpAction::SendSpace => {
                flush_conn_tx(w, eng, h, cid);
                if w.hosts[h].conns.contains_key(&cid) {
                    let cost = w.costs.library_call;
                    host_exec(w, eng, h, cost, move |w, eng| {
                        app_event(w, eng, h, cid, AppEvent::SendSpace);
                    });
                }
            }
            TcpAction::PeerClosed => {
                let cost = app_boundary_cost(w, h);
                host_exec(w, eng, h, cost, move |w, eng| {
                    app_event(w, eng, h, cid, AppEvent::PeerClosed);
                });
            }
            TcpAction::Reset => {
                w.metrics.bump(Ctr::ConnectionsReset);
                if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
                    let view = crate::app::AppView {
                        now: eng.now(),
                        send_space: 0,
                        pending_tx: 0,
                        local: Some(conn.tcb.local()),
                        remote: Some(conn.tcb.remote()),
                    };
                    conn.app.on_reset(&view);
                }
            }
            TcpAction::ConnClosed => {
                reap_conn(w, h, cid);
            }
        }
    }
}

/// The journaled control-flag summary of a segment (what the online
/// conformance checkers key their ack/dup-ACK/incarnation logic on).
fn seg_flags(repr: &TcpRepr) -> unp_trace::SegFlags {
    unp_trace::SegFlags {
        syn: repr.flags.syn,
        fin: repr.flags.fin,
        rst: repr.flags.rst,
        ack: repr.flags.ack,
    }
}

/// Builds one TCP segment's IP packet(s) and hands them to the link
/// layer. Unfragmented segments — the entire measured workload — take
/// the zero-copy path: the payload is staged once into a pooled frame
/// and the TCP, IP, and (after ARP) link headers are prepended into its
/// headroom, so no intermediate segment/packet vectors exist. Oversize
/// segments fall back to [`IpEndpoint::send`] fragmentation.
#[allow(clippy::too_many_arguments)]
fn emit_tcp_segment(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    repr: &TcpRepr,
    payload: &[u8],
    remote: Ipv4Addr,
    bqi: u16,
    announce: u16,
    send_cap: Option<Capability>,
) {
    send_tcp_frame(
        w, eng, h, repr, payload, remote, bqi, announce, send_cap, false,
    );
}

/// [`emit_tcp_segment`] with `fabricated` exposed: a byzantine tenant's
/// raw transmit parses as TCP on the wire but was built by no TCB, so it
/// must not be journaled as a `tcp_segment` (the record means "a TCP
/// endpoint produced this") — only its NIC/template-check chain is real.
/// The conformance monitor depends on this honesty: per-connection
/// invariants like ACK monotonicity hold for the library's segments, not
/// for arbitrary bytes a template happens to pass.
#[allow(clippy::too_many_arguments)]
fn send_tcp_frame(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    repr: &TcpRepr,
    payload: &[u8],
    remote: Ipv4Addr,
    bqi: u16,
    announce: u16,
    send_cap: Option<Capability>,
    fabricated: bool,
) {
    let _attr = unp_trace::host_scope(h as u16);
    let local_ip = w.hosts[h].ip;
    let mtu = w.link.params().mtu;
    let hlen = repr.header_len();
    let lhl = w.hosts[h].link_header_len();
    let mut ip_frames: Vec<Frame> = Vec::with_capacity(1);
    if IPV4_HEADER_LEN + hlen + payload.len() <= mtu {
        let mut f = w.pool.alloc(lhl + IPV4_HEADER_LEN + hlen, payload);
        f.prepend(hlen);
        repr.emit_into(f.as_mut_slice(), local_ip, remote)
            .expect("segment sized for its headroom");
        let ident = w.hosts[h].ip_ep.alloc_ident();
        let ip_repr = Ipv4Repr {
            ident,
            ..Ipv4Repr::simple(local_ip, remote, IpProtocol::Tcp, hlen + payload.len())
        };
        ip_repr
            .emit(f.prepend(IPV4_HEADER_LEN))
            .expect("headroom covers the IP header");
        ip_frames.push(f);
    } else {
        let seg = repr.build_segment(local_ip, remote, payload);
        let pkts = w.hosts[h].ip_ep.send(IpProtocol::Tcp, remote, &seg, mtu);
        ip_frames.extend(pkts.iter().map(|p| w.pool.alloc(lhl, p)));
    }
    for ipf in ip_frames {
        let Some(mac) = resolve_mac(w, eng, h, remote, IpProtocol::Tcp, &ipf) else {
            continue;
        };
        let frame = encap_link(w, h, mac, ipf, bqi, announce);
        if !fabricated {
            unp_trace::emit(Some(frame.id()), || unp_trace::Event::TcpSegment {
                dir: unp_trace::Dir::Tx,
                local_port: repr.src_port,
                remote_port: repr.dst_port,
                remote_ip: remote.0,
                seq: repr.seq.0,
                ack: repr.ack_num.0,
                wnd: u32::from(repr.window),
                flags: seg_flags(repr),
                payload: payload.len() as u32,
                wire: (frame.len() - lhl) as u32,
            });
        }
        // UserLibrary: the template check really runs. Transmit-credit
        // windows roll forward first so a budgeted tenant's refill
        // instants depend only on sim time, never on call order.
        if let Some(cap) = send_cap {
            let now = eng.now();
            w.hosts[h].netio.advance_tx_window(now);
            match w.hosts[h].netio.transmit_frame(cap, &frame) {
                Ok(_) => {}
                Err(unp_kernel::TxError::QuotaExceeded) => {
                    w.metrics.bump(Ctr::TxQuotaRejections);
                    continue;
                }
                Err(_) => {
                    w.metrics.bump(Ctr::TxTemplateRejections);
                    continue;
                }
            }
        }
        let cost = tx_device_cost(w, h, frame.len());
        host_exec(w, eng, h, cost, move |w, eng| {
            transmit_frame(w, eng, h, frame);
        });
    }
}

/// Builds and transmits one TCP segment, charging the full org-specific
/// path. `cid` is `None` for connectionless RSTs from the kernel.
fn send_tcp_segment(
    w: &mut World,
    eng: &mut Eng,
    h: usize,
    cid: Option<u32>,
    repr: TcpRepr,
    payload: Vec<u8>,
    remote: Ipv4Addr,
) {
    let cost = tcp_seg_cost(w, repr.header_len() + payload.len());
    host_exec(w, eng, h, cost, move |w, eng| {
        // Data frames stamp the peer's announced BQI (hardware demux).
        let bqi = cid
            .and_then(|c| w.hosts[h].conns.get(&c))
            .and_then(|c| c.chan.as_ref())
            .and_then(|ci| ci.peer_bqi)
            .unwrap_or(0);
        let send_cap = if w.hosts[h].org.is_user_library() {
            cid.and_then(|c| w.hosts[h].conns.get(&c))
                .and_then(|c| c.chan.as_ref())
                .map(|ci| ci.send_cap)
        } else {
            None
        };
        emit_tcp_segment(w, eng, h, &repr, &payload, remote, bqi, 0, send_cap);
    });
}

fn reap_conn(w: &mut World, h: usize, cid: u32) {
    let host = &mut w.hosts[h];
    let Some(conn) = host.conns.remove(&cid) else {
        return;
    };
    for (_, id) in conn.timer_ids {
        host.wheel.stop(id);
    }
    let key = (conn.tcb.local().1, conn.tcb.remote().0, conn.tcb.remote().1);
    host.conn_index.remove(&key);
    let chan_stats = conn
        .chan
        .as_ref()
        .and_then(|ci| Some((ci.id, host.netio.channel_stats(ci.id)?)));
    if let Some(ci) = &conn.chan {
        host.chan_to_conn.remove(&ci.id);
        host.netio.destroy_channel(ci.id, OwnerTag(0));
        if let Nic::An1(nic) = &mut host.nic {
            nic.bqi_table
                .free(ci.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
        }
    }
    retire_conn_stats(w, h, &conn.tcb, chan_stats);
    w.metrics.bump(Ctr::ConnectionsClosed);
}

/// The metrics scope key for a live connection on host `h`.
fn conn_key(h: usize, tcb: &Tcb) -> ConnKey {
    let (remote_ip, remote_port) = tcb.remote();
    ConnKey {
        host: h as u16,
        local_port: tcb.local().1,
        remote_ip: remote_ip.0,
        remote_port,
    }
}

/// Rolls a dying connection's TCP counters and (when it had a channel) the
/// kernel channel's demux/delivery counters into the metrics scopes, and
/// hands the channel stats to the registry server, which flags bindings
/// that missed the flow-table fast path.
fn retire_conn_stats(
    w: &mut World,
    h: usize,
    tcb: &Tcb,
    chan_stats: Option<(ChannelId, ChannelStats)>,
) {
    let key = conn_key(h, tcb);
    let ts = tcb.stats();
    {
        let scope = w.metrics.conn(key);
        scope.segs_out = ts.segs_out;
        scope.segs_in = ts.segs_in;
        scope.bytes_rexmit = ts.bytes_rexmit;
        scope.rto_fires = ts.rto_fires;
        scope.fast_rexmit = ts.fast_rexmit;
        scope.dup_acks_in = ts.dup_acks_in;
        scope.probes = ts.probes;
        scope.srtt = tcb.srtt();
    }
    if let Some(srtt) = tcb.srtt() {
        w.metrics.sample(Hist::ConnSrtt, srtt);
    }
    w.metrics.gauge_dec(Gauge::ActiveConnections);
    if let Some((chid, cs)) = chan_stats {
        {
            let scope = w.metrics.conn(key);
            scope.rx_delivered = cs.delivered;
            scope.rx_batched = cs.batched;
            scope.flow_hits = cs.flow_hits;
            scope.listen_hits = cs.listen_hits;
            scope.scan_fallbacks = cs.scan_fallbacks;
        }
        let ch = w.metrics.channel(key.host, chid.0);
        ch.delivered = cs.delivered;
        ch.batched = cs.batched;
        ch.flow_hits = cs.flow_hits;
        ch.listen_hits = cs.listen_hits;
        ch.scan_fallbacks = cs.scan_fallbacks;
        w.metrics.gauge_dec(Gauge::OpenChannels);
        w.hosts[h]
            .registry
            .record_channel_stats(key.local_port, tcb.remote(), cs);
    }
}

// ---------------------------------------------------------------------
// Application plumbing
// ---------------------------------------------------------------------

enum AppEvent {
    Connected,
    Data(Vec<u8>),
    SendSpace,
    PeerClosed,
}

fn app_event(w: &mut World, eng: &mut Eng, h: usize, cid: u32, ev: AppEvent) {
    let ops = {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        let view = crate::app::AppView {
            now: eng.now(),
            send_space: conn.tcb.send_space(),
            pending_tx: conn.pending_tx.len(),
            local: Some(conn.tcb.local()),
            remote: Some(conn.tcb.remote()),
        };
        match ev {
            AppEvent::Connected => conn.app.on_connected(&view),
            AppEvent::Data(d) => conn.app.on_data(&d, &view),
            AppEvent::SendSpace => conn.app.on_send_space(&view),
            AppEvent::PeerClosed => conn.app.on_peer_closed(&view),
        }
    };
    apply_app_ops(w, eng, h, cid, ops);
}

fn apply_app_ops(w: &mut World, eng: &mut Eng, h: usize, cid: u32, ops: Vec<crate::app::AppOp>) {
    for op in ops {
        if !w.hosts[h].conns.contains_key(&cid) {
            return;
        }
        match op {
            crate::app::AppOp::Send(data) => {
                // Charge the write boundary + any copy the org performs.
                let cost = app_boundary_cost(w, h) + tx_copy_cost(w, h, data.len());
                w.hosts[h].cpu.charge(eng.now(), cost);
                w.hosts[h]
                    .conns
                    .get_mut(&cid)
                    .expect("checked")
                    .pending_tx
                    .extend(data);
                flush_conn_tx(w, eng, h, cid);
            }
            crate::app::AppOp::Close => {
                if let Some(conn) = w.hosts[h].conns.get_mut(&cid) {
                    conn.close_pending = true;
                }
                flush_conn_tx(w, eng, h, cid);
            }
            crate::app::AppOp::Abort => {
                let actions = {
                    let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
                        return;
                    };
                    conn.tcb.abort()
                };
                apply_tcp_actions(w, eng, h, cid, None, actions);
            }
        }
    }
}

/// Moves pending app bytes into the TCB and issues a deferred close.
fn flush_conn_tx(w: &mut World, eng: &mut Eng, h: usize, cid: u32) {
    let now = eng.now();
    loop {
        let (actions, progressed) = {
            let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
                return;
            };
            let take = conn.pending_tx.len().min(conn.tcb.send_space());
            if take == 0 {
                break;
            }
            let chunk = &conn.pending_tx.make_contiguous()[..take];
            match conn.tcb.send(chunk, now) {
                Ok((n, actions)) => {
                    conn.pending_tx.drain(..n);
                    (actions, n > 0)
                }
                Err(_) => break,
            }
        };
        apply_tcp_actions(w, eng, h, cid, None, actions);
        if !progressed {
            break;
        }
    }
    // Deferred close once everything is queued.
    let close_now = {
        let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
            return;
        };
        conn.close_pending && conn.pending_tx.is_empty() && conn.tcb.state().is_synchronized()
    };
    if close_now {
        let actions = {
            let conn = w.hosts[h].conns.get_mut(&cid).expect("checked");
            conn.close_pending = false;
            conn.tcb.close(now).unwrap_or_default()
        };
        apply_tcp_actions(w, eng, h, cid, None, actions);
    }
}

/// Re-delivers a send-space upcall to a connection's application — used by
/// the socket facade to kick a connection whose application has queued new
/// data outside an upcall (e.g. `Socket::send` between engine steps).
pub fn poke_conn(w: &mut World, eng: &mut Eng, host: usize, cid: u32) {
    if !w.hosts[host].conns.contains_key(&cid) {
        return;
    }
    let cost = app_boundary_cost(w, host);
    host_exec(w, eng, host, cost, move |w, eng| {
        app_event(w, eng, host, cid, AppEvent::SendSpace);
    });
}

/// Looks up a live connection id by its (local port, remote) key — the
/// socket facade's bridge from handles to connections.
pub fn find_conn(w: &World, host: usize, local_port: u16, remote: (Ipv4Addr, u16)) -> Option<u32> {
    w.hosts[host]
        .conn_index
        .get(&(local_port, remote.0, remote.1))
        .copied()
}

/// A terminated application: ignores every event.
struct ExitedApp;

impl crate::app::AppLogic for ExitedApp {}

/// The application owning connection `cid` on `host` exits while the
/// connection is open. Under the user-library organization "the registry
/// server inherits the connections and ensures that the protocol
/// specified delay period is maintained"; on an abnormal exit "the
/// protocol server issues a reset message to the remote peer" (§3.4).
/// Monolithic organizations close or abort in the kernel.
pub fn app_exit(w: &mut World, eng: &mut Eng, host: usize, cid: u32, abnormal: bool) {
    let now = eng.now();
    if !w.hosts[host].org.is_user_library() {
        let actions = {
            let Some(conn) = w.hosts[host].conns.get_mut(&cid) else {
                return;
            };
            conn.app = Box::new(ExitedApp);
            if abnormal {
                conn.tcb.abort()
            } else {
                conn.tcb.close(now).unwrap_or_default()
            }
        };
        apply_tcp_actions(w, eng, host, cid, None, actions);
        return;
    }
    // Tear the connection out of the library: cancel its timers, revoke
    // its channel (the shared region is reclaimed), and hand the TCP
    // state back to the registry.
    let Some(conn) = w.hosts[host].conns.remove(&cid) else {
        return;
    };
    // The registry tracks the connection under the tenant that opened it
    // (the channel's owner); default single-app conns resolve to the
    // host owner as before. Captured before the channel is destroyed.
    let owner = conn
        .chan
        .as_ref()
        .and_then(|ci| w.hosts[host].netio.channel_owner(ci.id))
        .unwrap_or_else(|| w.hosts[host].owner());
    let chan_stats = {
        let hostref = &mut w.hosts[host];
        for id in conn.timer_ids.values() {
            hostref.wheel.stop(*id);
        }
        let key = (conn.tcb.local().1, conn.tcb.remote().0, conn.tcb.remote().1);
        hostref.conn_index.remove(&key);
        let chan_stats = conn
            .chan
            .as_ref()
            .and_then(|ci| Some((ci.id, hostref.netio.channel_stats(ci.id)?)));
        if let Some(ci) = &conn.chan {
            hostref.chan_to_conn.remove(&ci.id);
            hostref.netio.destroy_channel(ci.id, OwnerTag(0));
            if let Nic::An1(nic) = &mut hostref.nic {
                nic.bqi_table
                    .free(ci.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
            }
        }
        chan_stats
    };
    retire_conn_stats(w, host, &conn.tcb, chan_stats);
    resched_wheel(w, eng, host);
    // The registry's inheritance work (reset or orderly close) costs one
    // app↔server interaction plus its usual per-packet device path.
    let cost = w.costs.registry_rpc;
    let tcb = conn.tcb;
    host_exec(w, eng, host, cost, move |w, eng| {
        let now = eng.now();
        let actions = w.hosts[host]
            .registry
            .app_exit(owner, vec![tcb], abnormal, now);
        w.metrics.bump(Ctr::ConnectionsInherited);
        apply_registry_actions(w, eng, host, actions);
    });
}

/// The application process on `host` dies abruptly at the current
/// simulation time (the fault plan's [`crate::faults::Crash`] event;
/// also callable directly from tests). Everything the process owned is
/// reclaimed, in three stages (DESIGN.md §10):
///
/// 1. **World app state** — upcall targets are purged first so no event
///    reaches the dead process, and in-flight handshake channels are
///    destroyed (they can never be handed to an application now).
/// 2. **Registry (the trusted agent)** — established connections are
///    inherited and reset (RST to each peer), pending handshakes are
///    aborted, and the process's listening-port reservations released.
/// 3. **Kernel backstop** — [`NetIoModule::reclaim_owner`] and the BQI
///    table sweep anything still tagged with the dead owner (normally
///    nothing; every sweep hit is journaled, so a nonzero backstop count
///    in a trace points at a reclamation-ordering bug).
pub fn crash_host(w: &mut World, eng: &mut Eng, host: usize) {
    use unp_trace::ReclaimKind;
    let _attr = unp_trace::host_scope(host as u16);
    let h16 = host as u16;
    w.metrics.bump(Ctr::AppCrashes);
    unp_trace::emit_at(h16, None, || unp_trace::Event::FaultInject {
        kind: unp_trace::FaultKind::Crash,
        from: h16,
        to: h16,
    });
    let owner = w.hosts[host].owner();
    let owner32 = owner.0 as u32;
    let reclaim = |w: &mut World, kind: ReclaimKind, id: u32| {
        w.metrics.bump(Ctr::ResourceReclaims);
        unp_trace::emit_at(h16, None, || unp_trace::Event::ResourceReclaim {
            kind,
            owner: owner32,
            id,
        });
    };
    // Local listener factories die with the process in every organization.
    let mut ports: Vec<u16> = w.hosts[host].listeners.keys().copied().collect();
    ports.sort_unstable();
    w.hosts[host].listeners.clear();
    for &port in &ports {
        reclaim(w, ReclaimKind::Listener, port as u32);
    }
    if !w.hosts[host].org.is_user_library() {
        // Monolithic: protocol state lives in the kernel, which aborts
        // every connection the process had open; nothing else can leak.
        let mut cids: Vec<u32> = w.hosts[host].conns.keys().copied().collect();
        cids.sort_unstable();
        for cid in cids {
            reclaim(w, ReclaimKind::Connection, cid);
            app_exit(w, eng, host, cid, true);
        }
        return;
    }
    // Stage 1: world app state. Purged before any registry action runs so
    // the Failed/reset paths find no dead-process upcall target.
    w.hosts[host].pending_apps.clear();
    w.hosts[host].pending_write_sizes.clear();
    w.hosts[host].parked.clear();
    // In-flight handshake channels are destroyed now: they can never
    // reach an application. The registry aborts below then find
    // `hs_setup` already empty, so their Failed actions skip the channel
    // teardown (no double accounting), and a Complete already in flight
    // finds no setup and is dropped.
    let mut hss: Vec<u64> = w.hosts[host].hs_setup.keys().copied().collect();
    hss.sort_unstable();
    for hs in hss {
        let setup = w.hosts[host].hs_setup.remove(&hs).expect("collected above");
        w.hosts[host].hs_by_chan.remove(&setup.chan.id);
        w.hosts[host]
            .netio
            .destroy_channel(setup.chan.id, OwnerTag(0));
        if let Nic::An1(nic) = &mut w.hosts[host].nic {
            nic.bqi_table
                .free(setup.chan.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
        }
        w.metrics.gauge_dec(Gauge::OpenChannels);
        reclaim(w, ReclaimKind::Channel, setup.chan.id.0);
    }
    // Stage 2a: established connections take the normal abnormal-exit
    // inheritance path — the registry resets each peer (§3.4).
    let mut cids: Vec<u32> = w.hosts[host].conns.keys().copied().collect();
    cids.sort_unstable();
    for cid in cids {
        reclaim(w, ReclaimKind::Connection, cid);
        app_exit(w, eng, host, cid, true);
    }
    // Stage 2b: the registry aborts the dead process's pending handshakes
    // (RST where synchronized) and releases its port reservations.
    let (actions, report) = w.hosts[host].registry.owner_died(owner);
    for &port in &report.listeners {
        reclaim(w, ReclaimKind::Port, port as u32);
    }
    for &(hs, _port) in &report.handshakes {
        reclaim(w, ReclaimKind::Handshake, hs as u32);
    }
    apply_registry_actions(w, eng, host, actions);
    // Stage 3: kernel backstop sweep.
    let swept = w.hosts[host].netio.reclaim_owner(owner);
    for (id, _ring) in swept {
        w.hosts[host].chan_to_conn.remove(&id);
        w.hosts[host].hs_by_chan.remove(&id);
        w.metrics.gauge_dec(Gauge::OpenChannels);
        reclaim(w, ReclaimKind::Channel, id.0);
    }
    let freed = match &mut w.hosts[host].nic {
        Nic::An1(nic) => nic.bqi_table.reclaim_owner(owner),
        Nic::Lance(_) => Vec::new(),
    };
    for slot in freed {
        reclaim(w, ReclaimKind::Bqi, slot as u32);
    }
    resched_wheel(w, eng, host);
}

/// One tenant's process on `host` dies abruptly; the host's other tenants
/// keep running. The reclamation mirrors [`crash_host`]'s three stages,
/// restricted to state tagged with `tenant` — unless the fault plan marks
/// the tenant [`wedged`](crate::faults::FaultPlan::tenant_wedged), in
/// which case the library-side sweep (stage 1 and the per-connection
/// inheritance RPCs) never runs and only the registry death notice plus
/// the kernel/BQI owner-reclaim backstop clean up after it. The isolation
/// oracle asserts both routes end with zero leaked resources.
pub fn crash_tenant(w: &mut World, eng: &mut Eng, host: usize, tenant: OwnerTag) {
    use unp_trace::ReclaimKind;
    let _attr = unp_trace::host_scope(host as u16);
    let h16 = host as u16;
    let wedged = w.faults.tenant_wedged(host, tenant.0);
    w.metrics.bump(Ctr::AppCrashes);
    unp_trace::emit_at(h16, None, || unp_trace::Event::FaultInject {
        kind: unp_trace::FaultKind::Crash,
        from: h16,
        to: h16,
    });
    let owner32 = tenant.0 as u32;
    let reclaim = |w: &mut World, kind: ReclaimKind, id: u32| {
        w.metrics.bump(Ctr::ResourceReclaims);
        unp_trace::emit_at(h16, None, || unp_trace::Event::ResourceReclaim {
            kind,
            owner: owner32,
            id,
        });
    };
    // The tenant's listener factories die with it.
    let mut ports: Vec<u16> = w.hosts[host]
        .listener_tenants
        .iter()
        .filter(|(_, &t)| t == tenant)
        .map(|(&p, _)| p)
        .collect();
    ports.sort_unstable();
    for &port in &ports {
        w.hosts[host].listeners.remove(&port);
        w.hosts[host].listener_tenants.remove(&port);
        reclaim(w, ReclaimKind::Listener, port as u32);
    }
    if !wedged {
        // Stage 1: the library sweep. Pending-app state for the tenant's
        // in-flight active opens is purged, its handshake channels are
        // destroyed, and each established connection takes the normal
        // abnormal-exit inheritance path (registry resets the peer).
        let mut hss: Vec<u64> = w.hosts[host]
            .pending_tenants
            .iter()
            .filter(|(_, &t)| t == tenant)
            .map(|(&hs, _)| hs)
            .collect();
        hss.sort_unstable();
        for hs in &hss {
            w.hosts[host].pending_apps.remove(hs);
            w.hosts[host].pending_write_sizes.remove(hs);
            w.hosts[host].pending_tenants.remove(hs);
        }
        let mut doomed_hs: Vec<u64> = w.hosts[host]
            .hs_setup
            .iter()
            .filter(|(_, s)| w.hosts[host].netio.channel_owner(s.chan.id) == Some(tenant))
            .map(|(&hs, _)| hs)
            .collect();
        doomed_hs.sort_unstable();
        for hs in doomed_hs {
            let setup = w.hosts[host].hs_setup.remove(&hs).expect("collected above");
            w.hosts[host].hs_by_chan.remove(&setup.chan.id);
            w.hosts[host].parked.remove(&setup.key);
            w.hosts[host]
                .netio
                .destroy_channel(setup.chan.id, OwnerTag(0));
            if let Nic::An1(nic) = &mut w.hosts[host].nic {
                nic.bqi_table
                    .free(setup.chan.our_bqi, unp_buffers::BqiTable::KERNEL_OWNER);
            }
            w.metrics.gauge_dec(Gauge::OpenChannels);
            reclaim(w, ReclaimKind::Channel, setup.chan.id.0);
        }
        let mut cids: Vec<u32> = w.hosts[host]
            .conns
            .iter()
            .filter(|(_, c)| {
                c.chan
                    .as_ref()
                    .and_then(|ci| w.hosts[host].netio.channel_owner(ci.id))
                    == Some(tenant)
            })
            .map(|(&cid, _)| cid)
            .collect();
        cids.sort_unstable();
        for cid in cids {
            reclaim(w, ReclaimKind::Connection, cid);
            app_exit(w, eng, host, cid, true);
        }
    }
    // Stage 2: the registry's death notice — abort the tenant's pending
    // handshakes, release its port reservations.
    let (actions, report) = w.hosts[host].registry.owner_died(tenant);
    for &port in &report.listeners {
        reclaim(w, ReclaimKind::Port, port as u32);
    }
    for &(hs, _port) in &report.handshakes {
        reclaim(w, ReclaimKind::Handshake, hs as u32);
    }
    apply_registry_actions(w, eng, host, actions);
    // Stage 3: kernel backstop sweep. For a wedged tenant this is the
    // only thing standing between its channels and a leak; the world-side
    // records of any swept connection are dropped here too (their upcall
    // target is gone, their timers must not fire into revoked caps), and
    // their TCBs are handed to the registry, which resets each peer on
    // the dead tenant's behalf — inheritance from the kernel sweep, not
    // from the (wedged) library.
    let swept = w.hosts[host].netio.reclaim_owner(tenant);
    let mut orphan_tcbs: Vec<Tcb> = Vec::new();
    for (id, _ring) in swept {
        if let Some(cid) = w.hosts[host].chan_to_conn.remove(&id) {
            if let Some(conn) = w.hosts[host].conns.remove(&cid) {
                for tid in conn.timer_ids.values() {
                    w.hosts[host].wheel.stop(*tid);
                }
                let key = (conn.tcb.local().1, conn.tcb.remote().0, conn.tcb.remote().1);
                w.hosts[host].conn_index.remove(&key);
                w.hosts[host].parked.remove(&key);
                retire_conn_stats(w, host, &conn.tcb, None);
                w.metrics.bump(Ctr::ConnectionsClosed);
                orphan_tcbs.push(conn.tcb);
            }
        }
        if let Some(hs) = w.hosts[host].hs_by_chan.remove(&id) {
            if let Some(setup) = w.hosts[host].hs_setup.remove(&hs) {
                w.hosts[host].parked.remove(&setup.key);
            }
        }
        w.metrics.gauge_dec(Gauge::OpenChannels);
        reclaim(w, ReclaimKind::Channel, id.0);
    }
    if !orphan_tcbs.is_empty() {
        let now = eng.now();
        for _ in &orphan_tcbs {
            w.metrics.bump(Ctr::ConnectionsInherited);
        }
        let actions = w.hosts[host]
            .registry
            .app_exit(tenant, orphan_tcbs, true, now);
        apply_registry_actions(w, eng, host, actions);
    }
    let freed = match &mut w.hosts[host].nic {
        Nic::An1(nic) => nic.bqi_table.reclaim_owner(tenant),
        Nic::Lance(_) => Vec::new(),
    };
    for slot in freed {
        reclaim(w, ReclaimKind::Bqi, slot as u32);
    }
    resched_wheel(w, eng, host);
}

// ---------------------------------------------------------------------
// Timer wheel ↔ engine coupling
// ---------------------------------------------------------------------

fn resched_wheel(w: &mut World, eng: &mut Eng, h: usize) {
    let next = w.hosts[h].wheel.next_deadline();
    match (next, w.hosts[h].wheel_event) {
        (Some(d), Some((cur, _))) if d == cur => {}
        (Some(d), prev) => {
            if let Some((_, ev)) = prev {
                eng.cancel(ev);
            }
            let ev = eng.at(d, move |w, eng| wheel_fire(w, eng, h));
            w.hosts[h].wheel_event = Some((d, ev));
        }
        (None, Some((_, ev))) => {
            eng.cancel(ev);
            w.hosts[h].wheel_event = None;
        }
        (None, None) => {}
    }
}

fn wheel_fire(w: &mut World, eng: &mut Eng, h: usize) {
    let _attr = unp_trace::host_scope(h as u16);
    w.hosts[h].wheel_event = None;
    let now = eng.now();
    let mut fired = Vec::new();
    w.hosts[h].wheel.advance(now, &mut fired);
    for token in fired {
        match token {
            TimerToken::Conn(cid, t) => {
                let actions = {
                    let Some(conn) = w.hosts[h].conns.get_mut(&cid) else {
                        continue;
                    };
                    conn.timer_ids.remove(&t);
                    conn.tcb.on_timer(t, now)
                };
                apply_tcp_actions(w, eng, h, cid, None, actions);
            }
            TimerToken::Registry(hs, t) => {
                w.hosts[h].reg_timers.remove(&(hs, t));
                let actions = w.hosts[h].registry.on_timer(HsId(hs), t, now);
                apply_registry_actions(w, eng, h, actions);
            }
        }
    }
    resched_wheel(w, eng, h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{BulkSender, EchoApp, PingPongApp, SinkApp, TransferStats};

    const ALL_ORGS: [OrgKind; 5] = [
        OrgKind::InKernel,
        OrgKind::SingleServer,
        OrgKind::SingleServerMsg,
        OrgKind::DedicatedServer,
        OrgKind::UserLibrary,
    ];

    fn run_transfer(
        network: Network,
        org: OrgKind,
        total: u64,
        chunk: usize,
    ) -> (World, std::rc::Rc<std::cell::RefCell<TransferStats>>) {
        let (mut w, mut eng) = build_two_hosts(network, org);
        let stats = TransferStats::new_shared();
        let st = std::rc::Rc::clone(&stats);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(std::rc::Rc::clone(&st)))),
        );
        connect(
            &mut w,
            &mut eng,
            0,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            TcpConfig::default(),
            Box::new(BulkSender::new(total, chunk)),
            chunk,
        );
        assert!(eng.run(&mut w, 5_000_000), "simulation did not drain");
        (w, stats)
    }

    #[test]
    fn transfer_completes_under_every_org_on_ethernet() {
        for org in ALL_ORGS {
            let (w, stats) = run_transfer(Network::Ethernet, org, 100_000, 4096);
            let s = stats.borrow();
            assert_eq!(s.bytes_received, 100_000, "{org:?} lost data");
            assert!(s.peer_closed, "{org:?} missed FIN");
            assert!(!s.reset, "{org:?} reset");
            assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
        }
    }

    #[test]
    fn transfer_completes_under_every_org_on_an1() {
        for org in ALL_ORGS {
            let (w, stats) = run_transfer(Network::An1, org, 100_000, 4096);
            let s = stats.borrow();
            assert_eq!(s.bytes_received, 100_000, "{org:?} lost data on AN1");
            assert!(!s.reset, "{org:?} reset");
            let _ = w;
        }
    }

    #[test]
    fn user_library_actually_uses_its_mechanisms() {
        let (w, _stats) = run_transfer(Network::Ethernet, OrgKind::UserLibrary, 200_000, 4096);
        // Frames flowed through channels, and batching happened.
        assert!(w.metrics.get(Ctr::ChDeliveries) > 50);
        assert!(
            w.hosts[1].netio.default_deliveries > 0,
            "handshake via registry"
        );
        assert_eq!(w.metrics.get(Ctr::TxTemplateRejections), 0);
    }

    #[test]
    fn an1_hardware_demux_is_used_for_data() {
        let (w, _stats) = run_transfer(Network::An1, OrgKind::UserLibrary, 200_000, 4096);
        assert!(
            w.metrics.get(Ctr::ChDeliveries) > 50,
            "hardware path unused"
        );
        // On AN1 the data path must not fall back to software filters:
        // deliveries arrive via BQI rings.
        if let Nic::An1(nic) = &w.hosts[1].nic {
            assert!(nic.rx_frames > 50);
        } else {
            panic!("expected AN1 nic");
        }
    }

    #[test]
    fn ping_pong_works_under_every_org() {
        for org in ALL_ORGS {
            let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
            let stats = TransferStats::new_shared();
            listen(
                &mut w,
                1,
                80,
                TcpConfig::low_latency(),
                Box::new(|| Box::new(EchoApp)),
            );
            connect(
                &mut w,
                &mut eng,
                0,
                (Ipv4Addr::new(10, 0, 0, 2), 80),
                TcpConfig::low_latency(),
                Box::new(PingPongApp::new(512, 5, std::rc::Rc::clone(&stats))),
                512,
            );
            assert!(eng.run(&mut w, 2_000_000), "{org:?} did not drain");
            let s = stats.borrow();
            assert_eq!(s.rtts.len(), 5, "{org:?} rounds incomplete");
            assert!(s.rtts.iter().all(|&r| r > 0));
        }
    }

    #[test]
    fn faster_orgs_have_lower_latency() {
        let mean_rtt = |org| {
            let (mut w, mut eng) = build_two_hosts(Network::Ethernet, org);
            let stats = TransferStats::new_shared();
            listen(
                &mut w,
                1,
                80,
                TcpConfig::low_latency(),
                Box::new(|| Box::new(EchoApp)),
            );
            connect(
                &mut w,
                &mut eng,
                0,
                (Ipv4Addr::new(10, 0, 0, 2), 80),
                TcpConfig::low_latency(),
                Box::new(PingPongApp::new(1, 10, std::rc::Rc::clone(&stats))),
                1,
            );
            eng.run(&mut w, 2_000_000);
            let m = stats.borrow().mean_rtt().expect("rtts measured");
            m
        };
        let ultrix = mean_rtt(OrgKind::InKernel);
        let ours = mean_rtt(OrgKind::UserLibrary);
        let mach = mean_rtt(OrgKind::SingleServer);
        let dedicated = mean_rtt(OrgKind::DedicatedServer);
        assert!(
            ultrix < ours,
            "paper: Ultrix beats the library ({ultrix} vs {ours})"
        );
        assert!(
            ours < mach,
            "paper: the library beats Mach/UX ({ours} vs {mach})"
        );
        assert!(mach < dedicated, "dedicated servers are worst");
    }

    #[test]
    fn listener_vanished_mid_handshake_resets_peer_and_reclaims() {
        let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
        let stats = TransferStats::new_shared();
        let st = std::rc::Rc::clone(&stats);
        listen(
            &mut w,
            1,
            80,
            TcpConfig::default(),
            Box::new(move || Box::new(SinkApp::new(std::rc::Rc::clone(&st)))),
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
        // Step until the server's handshake enters completion, then tear
        // the listener down in the window before `finalize_user_conn`
        // runs — the race the silent `// listener vanished` return used
        // to swallow.
        let mut steps = 0;
        while !w.hosts[1].hs_setup.values().any(|s| s.completing)
            && eng.step(&mut w)
            && steps < 1_000_000
        {
            steps += 1;
        }
        assert!(
            w.hosts[1].hs_setup.values().any(|s| s.completing),
            "handshake never reached completion"
        );
        w.hosts[1].listeners.clear();
        assert!(eng.run(&mut w, 5_000_000), "did not drain");

        assert_eq!(w.metrics.get(Ctr::ListenerVanished), 1);
        assert!(w.metrics.get(Ctr::ResourceReclaims) >= 1);
        // The activated channel was released, the registry no longer
        // tracks the connection, and the peer was reset (its conn torn
        // down) instead of hanging half-open.
        assert_eq!(w.hosts[1].netio.channel_count(), 0);
        assert_eq!(w.hosts[1].registry.tracked(), 0);
        assert!(w.hosts[0].conns.is_empty(), "peer never saw the RST");
        assert_eq!(w.metrics.gauge(Gauge::OpenChannels), 0);
        assert_eq!(stats.borrow().bytes_received, 0, "no app ever ran");
    }
}
