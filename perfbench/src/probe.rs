//! The traced run's collector. Everything here sits outside the program:
//! it times calls into the crates' public functions, attaches the
//! existing journal and a capture tap, and reads public state after each
//! world drains. Spans stay in memory until the run ends.

use std::io::Write;
use std::time::{Duration, Instant};

use unp_core::world::Nic;
use unp_core::{Eng, Network, World};
use unp_filter::bpf::{BpfInstr, BpfProgram};
use unp_registry::ports::{EPHEMERAL_BASE, EPHEMERAL_LIMIT};
use unp_timers::TimerService;
use unp_trace::{Ctr, Hist, Histogram, Monitor};

/// Frames copied out of each world's capture tap for the layer replays.
/// The counts that scale the replays come from every frame, not just
/// the copied ones.
const FRAMES_PER_WORLD: usize = 4096;

/// One recorded span, in nanoseconds since the run started. Spans of one
/// transfer or transaction share `id`; `parent` is the enclosing span's
/// id (0 for none).
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A frame copied from the wire, with the link it crossed.
pub struct Captured {
    pub network: Network,
    pub bytes: Vec<u8>,
}

/// The counts and samples of one traced iteration.
pub struct Probe {
    origin: Instant,
    tap: Option<usize>,
    pub spans: Vec<Span>,
    pub step_ns: Histogram,
    pub events: u64,
    pub timers_peak: usize,
    /// Peak open kernel channels per host index, over every world.
    pub channels_peak: Vec<usize>,
    pub frames: Vec<Captured>,
    pub wire_frames: u64,
    pub wire_bytes: u64,
    pub counters: Vec<u64>,
    pub wakeups: u64,
    pub wakeup_frames: u128,
    pub demux_packets: u64,
    pub demux_keyed: u64,
    pub demux_scan: u64,
    pub an1_rx: u64,
    pub timer_starts: u64,
    pub segments: u64,
    pub conn_scopes: u64,
    pub connects: u64,
    pub connect_us: Vec<f64>,
    pub journal_records: u64,
    pub monitor_ns: u128,
    pub monitor_checks: u64,
    pub violations: u64,
    /// Ephemeral ports the registries still hold after drain, over every
    /// world: every connection the library closed keeps its port.
    pub ports_held: u64,
    /// Kernel channels created, over every host of every world.
    pub channels_created: u64,
    /// Frame-pool activity of the untraced twin of the traced iteration.
    pub frame_stats: unp_buffers::FrameStats,
    pub payload_bytes: u64,
    /// `live_frames()` once every world of the run is dropped.
    pub live_frames_end: u64,
    /// The last drained world of each link type, kept for the replays.
    pub live_ethernet: Option<World>,
    pub live_an1: Option<World>,
    /// Host time spent here between worlds; the traced wall excludes it.
    pub excluded: Duration,
}

impl Probe {
    pub fn new(origin: Instant) -> Probe {
        Probe {
            origin,
            tap: None,
            spans: Vec::new(),
            step_ns: Histogram::new(),
            events: 0,
            timers_peak: 0,
            channels_peak: Vec::new(),
            frames: Vec::new(),
            wire_frames: 0,
            wire_bytes: 0,
            counters: vec![0; Ctr::ALL.len()],
            wakeups: 0,
            wakeup_frames: 0,
            demux_packets: 0,
            demux_keyed: 0,
            demux_scan: 0,
            an1_rx: 0,
            timer_starts: 0,
            segments: 0,
            conn_scopes: 0,
            connects: 0,
            connect_us: Vec::new(),
            journal_records: 0,
            monitor_ns: 0,
            monitor_checks: 0,
            violations: 0,
            ports_held: 0,
            channels_created: 0,
            frame_stats: unp_buffers::FrameStats::default(),
            payload_bytes: 0,
            live_frames_end: 0,
            live_ethernet: None,
            live_an1: None,
            excluded: Duration::ZERO,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn span(&mut self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// A connection's `connect` call and its `Connected` upcall, as a
    /// child of transaction `id`.
    pub fn connected(&mut self, id: u64, call: Instant, up: Instant) {
        self.connects += 1;
        self.connect_us.push((up - call).as_secs_f64() * 1e6);
        self.span("connect", id, id, call, up);
    }

    /// Call before building a world: starts the journal, which also
    /// zeroes the frame-id mint so identical runs journal identically.
    pub fn begin_world(&mut self) {
        unp_trace::journal_start();
    }

    /// Call after building a world: attaches a tap that captures every
    /// frame put on the wire.
    pub fn attach(&mut self, w: &mut World) {
        let all = BpfProgram::new(vec![BpfInstr::Ret(u32::MAX)]).expect("accept-all program");
        self.tap = Some(w.add_capture_tap("perfbench", all));
        if self.channels_peak.len() < w.hosts.len() {
            self.channels_peak.resize(w.hosts.len(), 0);
        }
    }

    /// One timed `Engine::step`, then the populations it left behind.
    pub fn step(&mut self, w: &mut World, eng: &mut Eng) -> bool {
        let t = Instant::now();
        let more = eng.step(w);
        let ns = t.elapsed().as_nanos() as u64;
        if more {
            self.events += 1;
            self.step_ns.record(ns);
            for h in &w.hosts {
                self.timers_peak = self.timers_peak.max(h.wheel.pending());
                let peak = &mut self.channels_peak[h.idx];
                *peak = (*peak).max(h.netio.channel_count());
            }
        }
        more
    }

    /// Harvests a drained world: stops the journal and replays it into a
    /// fresh conformance monitor, copies captured frames, folds the
    /// world's counters in, and keeps the world as live replay state.
    pub fn end_world(&mut self, mut w: World) {
        let t0 = Instant::now();
        let records = unp_trace::journal_stop();
        self.journal_records += records.len() as u64;
        let m0 = Instant::now();
        let mon = Monitor::new().run_over(&records);
        let m1 = Instant::now();
        self.monitor_ns += (m1 - m0).as_nanos();
        self.span("replay.trace.monitor", 0, 0, m0, m1);
        let c = mon.checked();
        self.monitor_checks += c.tcp_acks
            + c.transitions
            + c.rexmits
            + c.ring_events
            + c.pool_events
            + c.demux_classifies
            + c.quota_drops;
        self.violations += mon.total_violations();
        drop(records);

        if let Some(tap) = self.tap.take() {
            let frames = w.tap_frames(tap);
            self.wire_frames += frames.len() as u64;
            self.wire_bytes += frames.iter().map(|(_, f)| f.len() as u64).sum::<u64>();
            self.frames
                .extend(frames.iter().take(FRAMES_PER_WORLD).map(|(_, f)| Captured {
                    network: w.network,
                    bytes: f.to_vec(),
                }));
        }
        for (i, &c) in Ctr::ALL.iter().enumerate() {
            self.counters[i] += w.metrics.get(c);
        }
        let wake = w.metrics.hist(Hist::WakeupBatchFrames);
        self.wakeups += wake.count();
        self.wakeup_frames += wake.sum();
        self.conn_scopes += w.metrics.conns().count() as u64;
        self.segments += w.metrics.conns().map(|(_, s)| s.segs_out).sum::<u64>();
        let now = unp_trace::time();
        for h in &mut w.hosts {
            self.ports_held += (EPHEMERAL_BASE..=EPHEMERAL_LIMIT)
                .filter(|&p| !h.registry.port_free(p, now))
                .count() as u64;
            let d = h.netio.demux_stats();
            self.demux_packets += d.packets;
            self.demux_keyed += d.flow_hits + d.listen_hits;
            self.demux_scan += d.scan_fallbacks;
            if let Nic::An1(nic) = &h.nic {
                self.an1_rx += nic.rx_frames;
            }
            // Timer ids are minted in sequence, so a fresh id counts the
            // timers this wheel started; the probe timer is stopped again.
            let id = h.wheel.start(
                u64::MAX,
                unp_core::world::TimerToken::Registry(0, unp_tcp::TcpTimer::Retransmit),
            );
            self.timer_starts += id.0;
            h.wheel.stop(id);
            // Channel ids are minted in sequence too.
            let (spec, template) = crate::ledger::connection_channel(
                h,
                ((h.ip, 9), (unp_wire::Ipv4Addr::new(10, 1, 255, 255), 1)),
            );
            let owner = unp_buffers::OwnerTag(h.idx as u64 + 1);
            let (ch, ..) = h.netio.create_channel(owner, &spec, template, 1, 64);
            self.channels_created += ch.0 as u64;
            h.netio.destroy_channel(ch, unp_buffers::OwnerTag(0));
        }
        match w.network {
            Network::Ethernet => self.live_ethernet = Some(w),
            Network::An1 => self.live_an1 = Some(w),
        }
        self.excluded += t0.elapsed();
    }

    /// Every count this probe holds, for exact comparison across runs.
    #[cfg(test)]
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let mut v = vec![
            ("sim.events", self.events),
            ("timers.pending_peak", self.timers_peak as u64),
            (
                "kernel.channels_peak",
                self.channels_peak.iter().copied().max().unwrap_or(0) as u64,
            ),
            ("wire.frames", self.wire_frames),
            ("wire.bytes", self.wire_bytes),
            ("kernel.wakeups", self.wakeups),
            ("kernel.demux_packets", self.demux_packets),
            ("kernel.demux_keyed", self.demux_keyed),
            ("kernel.demux_scan", self.demux_scan),
            ("kernel.channels_created", self.channels_created),
            ("netdev.an1_rx", self.an1_rx),
            ("timers.starts", self.timer_starts),
            ("tcp.segments", self.segments),
            ("trace.conn_scopes", self.conn_scopes),
            ("registry.connects", self.connects),
            ("registry.ports_held", self.ports_held),
            ("trace.journal_records", self.journal_records),
            ("trace.monitor_checks", self.monitor_checks),
            ("trace.violations", self.violations),
        ];
        v.extend(Ctr::ALL.iter().map(|c| (c.name(), self.get(*c))));
        v
    }

    pub fn get(&self, c: Ctr) -> u64 {
        self.counters[Ctr::ALL
            .iter()
            .position(|&x| x == c)
            .expect("listed counter")]
    }

    /// Writes the spans, one JSON object per line, plus the folded
    /// `Engine::step` histogram.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        let h = &self.step_ns;
        writeln!(
            out,
            "{{\"name\":\"engine.step\",\"folded\":true,\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            h.count(),
            h.sum(),
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max().unwrap_or(0)
        )?;
        out.flush()
    }
}
