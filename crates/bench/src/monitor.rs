//! `--monitor` / `--monitor-gate`: the streaming conformance monitor
//! exercised as a benchmark artifact — `BENCH_monitor.json`.
//!
//! Four measurements, each a leg of the checker-soundness argument:
//!
//! * **golden** — the seeded lossy Table-2 journal (the causal gate's
//!   workload), a clean variant, and a *live* attached bulk run must all
//!   produce zero violations while every checker validates real events
//!   (the non-vacuity counts in [`unp_trace::CheckStats`]).
//! * **mutations** — every [`mutations::BugClass`] injected into the
//!   lossy journal must surface as its expected
//!   [`unp_trace::ViolationKind`]: zero violations on conformant runs
//!   means nothing unless each checker still catches its bug class.
//! * **overhead** — wall-clock of the bulk workload with the monitor
//!   attached (journal off) over the same run with no observers; the
//!   gate bounds the ratio at [`OVERHEAD_BOUND`].
//! * **scale** — the 8→10^6-channel mixed population from
//!   [`crate::scale`], monitor attached and journal off, delivering a
//!   fixed [`SCALE_SAMPLE`] of probe frames per point: observer memory
//!   ([`unp_trace::Monitor::memory_bytes`]) must track the *touched*
//!   state (rings seen, connections seen), not the population.

use std::rc::Rc;
use std::time::Instant;

use unp_buffers::Frame;
use unp_core::faults::FaultPlan;
use unp_core::world::{connect, install_faults, listen};
use unp_core::{build_two_hosts, BulkSender, Network, OrgKind, SinkApp, TransferStats};
use unp_kernel::Delivery;
use unp_tcp::TcpConfig;
use unp_trace::json::Value;
use unp_trace::monitor::mutations::{self, BugClass};
use unp_trace::{CheckStats, Monitor, Record};
use unp_wire::Ipv4Addr;

use crate::causal::{lossy_journal, workload_json, CAUSAL_PACKET, CAUSAL_SEED, CAUSAL_TOTAL};
use crate::scale::{frame_to, mixed_spec, scale_module, SCALE_COUNTS};

/// Monitor-on wall-clock must stay within this factor of monitor-off on
/// the bulk workload (the ISSUE's ≤5% overhead budget).
pub const OVERHEAD_BOUND: f64 = 1.05;
/// Timing attempts before the overhead gate gives up (wall-clock on a
/// loaded CI host is noisy; any attempt within the bound passes).
pub const OVERHEAD_ATTEMPTS: usize = 3;
/// Interleaved (off, on) timing pairs per attempt; each side keeps its
/// minimum.
const OVERHEAD_PAIRS: usize = 5;
/// Bytes of the overhead-timing bulk transfer.
const OVERHEAD_TOTAL: u64 = 1_000_000;
/// Probe frames delivered per scale-sweep point — fixed, so observer
/// memory growing with the population (rather than with this sample)
/// would be visible immediately.
pub const SCALE_SAMPLE: usize = 256;
/// Flight-recorder per-host window used for the postmortem demo.
pub const DEMO_RECORDER_CAP: usize = 64;

/// One scale-sweep point: population vs what the monitor held.
pub struct ScaleMonPoint {
    /// Channels installed in the module.
    pub channels: usize,
    /// Probe frames actually delivered (≤ [`SCALE_SAMPLE`]).
    pub sampled: usize,
    /// [`unp_trace::Monitor::memory_bytes`] at detach.
    pub monitor_mem_bytes: u64,
    /// Ring events the residency checker folded.
    pub ring_events: u64,
    /// Violations flagged (must be zero).
    pub violations: u64,
}

/// The whole `--monitor` measurement set.
pub struct MonitorReport {
    /// Violations on the seeded lossy journal replay.
    pub lossy_violations: u64,
    /// Violations on the clean (no-fault) journal replay.
    pub clean_violations: u64,
    /// Violations from the monitor *attached live* to the bulk run.
    pub live_violations: u64,
    /// Non-vacuity counts from the lossy replay.
    pub checked: CheckStats,
    /// `(class, violations of the expected kind)` per mutation.
    pub mutations: Vec<(BugClass, u64)>,
    /// Best monitor-on / monitor-off wall-clock ratio observed.
    pub overhead_ratio: f64,
    /// Monitor-off seconds at the best ratio.
    pub off_secs: f64,
    /// Monitor-on seconds at the best ratio.
    pub on_secs: f64,
    /// Timing attempts consumed (1 = first try was inside the bound).
    pub overhead_attempts: usize,
    /// Postmortem window length from the recorder demo.
    pub postmortem_records: usize,
    /// Recorder occupancy at the end of the demo replay.
    pub recorder_occupancy: usize,
    /// The scale sweep.
    pub scale: Vec<ScaleMonPoint>,
}

impl MonitorReport {
    /// Total violations across every conformant leg — the gate's
    /// headline scalar (`"golden_violations"`), which must be zero.
    pub fn golden_violations(&self) -> u64 {
        self.lossy_violations
            + self.clean_violations
            + self.live_violations
            + self.scale.iter().map(|p| p.violations).sum::<u64>()
    }

    /// Mutation classes whose expected violation kind surfaced.
    pub fn mutations_caught(&self) -> usize {
        self.mutations.iter().filter(|(_, n)| *n > 0).count()
    }

    /// Peak observer memory across the scale sweep.
    pub fn peak_observer_mem(&self) -> u64 {
        self.scale
            .iter()
            .map(|p| p.monitor_mem_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// The causal-gate workload without its fault plan: same transfer, clean
/// schedule, journal recording.
fn clean_journal() -> Vec<Record> {
    unp_trace::journal_start();
    run_bulk(CAUSAL_TOTAL, CAUSAL_PACKET, None);
    unp_trace::journal_stop()
}

/// One bulk transfer (Table-2 organization); returns wall-clock seconds.
fn run_bulk(total: u64, packet: usize, faults: Option<FaultPlan>) -> f64 {
    let t0 = Instant::now();
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let mut cfg = TcpConfig::bulk_transfer();
    cfg.mss_local = packet.min(1460);
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
        Box::new(BulkSender::new(total, packet)),
        packet,
    );
    if let Some(plan) = faults {
        install_faults(&mut w, &mut eng, plan);
    }
    assert!(eng.run(&mut w, 20_000_000_000), "bulk run did not drain");
    assert_eq!(stats.borrow().bytes_received, total, "transfer incomplete");
    t0.elapsed().as_secs_f64()
}

/// One interleaved timing attempt: [`OVERHEAD_PAIRS`] (off, on) pairs,
/// each side keeping its minimum. Each "on" run gets a fresh monitor
/// (channel ids restart per world, so carrying ring state across runs
/// would be checking a fiction) and must see zero violations — the
/// overhead measurement doubles as the live-attachment golden run.
fn overhead_attempt() -> (f64, f64, u64) {
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let mut violations = 0;
    // Warm the path once before timing (allocator, branch history).
    unp_trace::reset_run();
    run_bulk(OVERHEAD_TOTAL, CAUSAL_PACKET, None);
    for _ in 0..OVERHEAD_PAIRS {
        unp_trace::reset_run();
        off = off.min(run_bulk(OVERHEAD_TOTAL, CAUSAL_PACKET, None));
        unp_trace::reset_run();
        let h = unp_trace::attach(Box::new(Monitor::new()));
        on = on.min(run_bulk(OVERHEAD_TOTAL, CAUSAL_PACKET, None));
        let live = unp_trace::detach_as::<Monitor>(h).expect("live monitor");
        violations += live.total_violations();
    }
    (off, on, violations)
}

/// Replays the lossy journal through one mutant per bug class and
/// counts violations of the expected kind. Panics if the journal offers
/// no site for a class — that is a workload-coverage failure, not a
/// checker pass.
fn mutation_coverage(records: &[Record]) -> Vec<(BugClass, u64)> {
    BugClass::ALL
        .iter()
        .map(|&class| {
            let mutant = mutations::mutate(records, class, CAUSAL_SEED).unwrap_or_else(|| {
                panic!(
                    "lossy journal has no mutation site for {} — workload lost coverage",
                    class.label()
                )
            });
            let mon = Monitor::new().run_over(&mutant);
            (class, mon.count(class.expected_kind()))
        })
        .collect()
}

/// One monitor-attached scale point: build the mixed population, attach
/// a fresh monitor (journal off), deliver the sampled probe frames, and
/// harvest what the observer held.
fn scale_point(n: usize) -> ScaleMonPoint {
    unp_trace::reset_run();
    let (mut m, ..) = scale_module(n);
    let handle = unp_trace::attach(Box::new(Monitor::new()));
    let sample = SCALE_SAMPLE.min(n);
    let step = (n / sample).max(1);
    for k in 0..sample {
        let i = k * step;
        let spec = mixed_spec(i);
        // Listen/residual bindings leave the remote (partly) wild; any
        // remote in the probe space the sweep already reserves works.
        let remote = (
            spec.remote_ip.unwrap_or(Ipv4Addr::new(10, 8, 0, 1)),
            spec.remote_port.unwrap_or(9999),
        );
        let frame = Frame::from_vec(frame_to((spec.local_ip, spec.local_port), remote));
        match m.deliver_software(&frame) {
            Delivery::Channel { .. } => {}
            other => panic!("scale probe fell through at n={n} i={i}: {other:?}"),
        }
    }
    let mon = unp_trace::detach_as::<Monitor>(handle).expect("scale monitor");
    ScaleMonPoint {
        channels: n,
        sampled: sample,
        monitor_mem_bytes: mon.memory_bytes(),
        ring_events: mon.checked().ring_events,
        violations: mon.total_violations(),
    }
}

/// Runs every measurement. `progress` gets one line per long phase (the
/// 10^6 scale point takes a few seconds to build).
pub fn monitor_section(progress: impl Fn(&str)) -> MonitorReport {
    progress("monitor: recording seeded lossy journal");
    let lossy = lossy_journal();
    let lossy_mon = Monitor::new().run_over(&lossy);
    progress("monitor: recording clean journal");
    let clean = clean_journal();
    let clean_mon = Monitor::new().run_over(&clean);

    progress("monitor: mutation coverage (8 bug classes)");
    let muts = mutation_coverage(&lossy);

    progress("monitor: overhead timing");
    let mut best = (f64::INFINITY, 0.0, 0.0);
    let mut live_violations = 0;
    let mut attempts = 0;
    for _ in 0..OVERHEAD_ATTEMPTS {
        attempts += 1;
        let (off, on, v) = overhead_attempt();
        live_violations += v;
        let ratio = on / off;
        if ratio < best.0 {
            best = (ratio, off, on);
        }
        if best.0 <= OVERHEAD_BOUND {
            break;
        }
    }

    // Postmortem demo: the ack-regression mutant through a recorder-fed
    // monitor freezes a window around the violation.
    let demo = demo_monitor(&lossy);
    let postmortem_records = demo.postmortem().map(<[Record]>::len).unwrap_or(0);

    let scale = SCALE_COUNTS
        .iter()
        .map(|&n| {
            progress(&format!("monitor: scale point {n}"));
            scale_point(n)
        })
        .collect();

    MonitorReport {
        lossy_violations: lossy_mon.total_violations(),
        clean_violations: clean_mon.total_violations(),
        live_violations,
        checked: lossy_mon.checked(),
        mutations: muts,
        overhead_ratio: best.0,
        off_secs: best.1,
        on_secs: best.2,
        overhead_attempts: attempts,
        postmortem_records,
        recorder_occupancy: demo.recorder_occupancy(),
        scale,
    }
}

/// The recorder demo: ack-regression mutant replayed through
/// [`Monitor::with_recorder`] — used by the report and by `--monitor`'s
/// printed postmortem excerpt.
pub fn demo_monitor(lossy: &[Record]) -> Monitor {
    let mutant = mutations::mutate(lossy, BugClass::AckRegression, CAUSAL_SEED)
        .expect("lossy journal offers an ack mutation site");
    Monitor::with_recorder(DEMO_RECORDER_CAP).run_over(&mutant)
}

/// Prints the human report.
pub fn print_report(r: &MonitorReport) {
    println!("== Streaming conformance monitor ==");
    println!(
        "  golden runs: lossy {} violations, clean {}, live {}  (checked: {} acks, {} transitions, {} rexmits, {} ring, {} pool, {} classify)",
        r.lossy_violations,
        r.clean_violations,
        r.live_violations,
        r.checked.tcp_acks,
        r.checked.transitions,
        r.checked.rexmits,
        r.checked.ring_events,
        r.checked.pool_events,
        r.checked.demux_classifies,
    );
    println!(
        "  mutation harness: {}/{} bug classes caught",
        r.mutations_caught(),
        r.mutations.len()
    );
    for (class, n) in &r.mutations {
        println!(
            "    {:<22} -> {} {} violation{}",
            class.label(),
            n,
            class.expected_kind().label(),
            if *n == 1 { "" } else { "s" }
        );
    }
    println!(
        "  overhead: monitor-on/off {:.3}x (bound {:.2}x; {:.1} ms on vs {:.1} ms off, {} attempt{})",
        r.overhead_ratio,
        OVERHEAD_BOUND,
        r.on_secs * 1e3,
        r.off_secs * 1e3,
        r.overhead_attempts,
        if r.overhead_attempts == 1 { "" } else { "s" }
    );
    println!(
        "  recorder demo: postmortem froze {} records (occupancy {} of {}/host)",
        r.postmortem_records, r.recorder_occupancy, DEMO_RECORDER_CAP
    );
    println!("  scale sweep (monitor on, journal off, {SCALE_SAMPLE} probe frames/point):");
    println!(
        "    {:>9} {:>8} {:>10} {:>11} {:>10}",
        "channels", "sampled", "ring evts", "mon mem (B)", "violations"
    );
    for p in &r.scale {
        println!(
            "    {:>9} {:>8} {:>10} {:>11} {:>10}",
            p.channels, p.sampled, p.ring_events, p.monitor_mem_bytes, p.violations
        );
    }
    println!();
}

/// The report as a JSON value — `BENCH_monitor.json`.
pub fn to_json(r: &MonitorReport) -> Value {
    let c = &r.checked;
    let point = |p: &ScaleMonPoint| {
        Value::obj([
            ("channels", p.channels.into()),
            ("sampled", p.sampled.into()),
            ("ring_events", p.ring_events.into()),
            ("monitor_mem_bytes", p.monitor_mem_bytes.into()),
            ("violations", p.violations.into()),
        ])
    };
    Value::obj([
        ("benchmark", "monitor".into()),
        ("golden_violations", r.golden_violations().into()),
        ("workload", workload_json()),
        (
            "golden",
            Value::obj([
                ("lossy_violations", r.lossy_violations.into()),
                ("clean_violations", r.clean_violations.into()),
                ("live_violations", r.live_violations.into()),
            ]),
        ),
        (
            "checked",
            Value::obj([
                ("tcp_acks", c.tcp_acks.into()),
                ("transitions", c.transitions.into()),
                ("rexmits", c.rexmits.into()),
                ("ring_events", c.ring_events.into()),
                ("pool_events", c.pool_events.into()),
                ("demux_classifies", c.demux_classifies.into()),
                ("quota_drops", c.quota_drops.into()),
            ]),
        ),
        (
            "mutations",
            Value::obj([
                ("classes", r.mutations.len().into()),
                ("caught", r.mutations_caught().into()),
                (
                    "per_class",
                    Value::obj(
                        r.mutations
                            .iter()
                            .map(|(class, n)| (class.label(), (*n).into())),
                    ),
                ),
            ]),
        ),
        (
            "overhead",
            Value::obj([
                ("ratio", r.overhead_ratio.into()),
                ("bound", OVERHEAD_BOUND.into()),
                ("off_secs", r.off_secs.into()),
                ("on_secs", r.on_secs.into()),
                ("attempts", r.overhead_attempts.into()),
            ]),
        ),
        (
            "recorder",
            Value::obj([
                ("capacity_per_host", DEMO_RECORDER_CAP.into()),
                ("postmortem_records", r.postmortem_records.into()),
                ("occupancy", r.recorder_occupancy.into()),
            ]),
        ),
        (
            "scale",
            Value::obj([
                ("sample_frames", SCALE_SAMPLE.into()),
                ("peak_observer_mem_bytes", r.peak_observer_mem().into()),
                ("points", r.scale.iter().map(point).collect()),
            ]),
        ),
    ])
}

/// The CI gate body: every leg must hold, and the zero-violation verdict
/// is read from `report`, the `BENCH_monitor.json` value written for
/// `r`. Returns the verdict lines to print on success.
pub fn gate(r: &MonitorReport, report: &Value) -> Result<Vec<String>, String> {
    if let Err(e) = crate::require(report, "golden_violations", 0.0) {
        return Err(format!(
            "conformant runs flagged violations: {e} (lossy {}, clean {}, live {}, scale {})",
            r.lossy_violations,
            r.clean_violations,
            r.live_violations,
            r.scale.iter().map(|p| p.violations).sum::<u64>()
        ));
    }
    let c = &r.checked;
    for (name, n) in [
        ("tcp_acks", c.tcp_acks),
        ("transitions", c.transitions),
        ("rexmits", c.rexmits),
        ("ring_events", c.ring_events),
        ("pool_events", c.pool_events),
        ("demux_classifies", c.demux_classifies),
    ] {
        if n == 0 {
            return Err(format!(
                "checker vacuous: {name} validated 0 events on the lossy workload"
            ));
        }
    }
    if r.mutations_caught() != r.mutations.len() {
        let missed: Vec<&str> = r
            .mutations
            .iter()
            .filter(|(_, n)| *n == 0)
            .map(|(c, _)| c.label())
            .collect();
        return Err(format!(
            "mutation harness: {}/{} classes caught (missed: {})",
            r.mutations_caught(),
            r.mutations.len(),
            missed.join(", ")
        ));
    }
    if r.overhead_ratio > OVERHEAD_BOUND {
        return Err(format!(
            "monitor overhead {:.3}x exceeds {OVERHEAD_BOUND}x after {} attempts",
            r.overhead_ratio, r.overhead_attempts
        ));
    }
    if r.postmortem_records == 0 {
        return Err("recorder demo froze an empty postmortem".into());
    }
    Ok(vec![
        format!(
            "monitor gate: 0 violations on golden runs ({} acks, {} rexmits, {} ring events checked)",
            r.checked.tcp_acks, r.checked.rexmits, r.checked.ring_events
        ),
        format!(
            "monitor gate: {}/{} mutation classes caught",
            r.mutations_caught(),
            r.mutations.len()
        ),
        format!(
            "monitor gate: overhead {:.3}x (bound {OVERHEAD_BOUND}x), peak observer mem {} bytes at 10^6 channels",
            r.overhead_ratio,
            r.peak_observer_mem()
        ),
    ])
}

/// Prints the `--monitor` postmortem excerpt: the demo mutant's first
/// violation and the tail of its frozen flight-recorder window.
pub fn print_postmortem_demo(lossy: &[Record]) {
    let demo = demo_monitor(lossy);
    println!("== Postmortem demo: seeded ack-regression mutant ==");
    for v in demo.violations().iter().take(3) {
        println!("  violation: {}", v.line());
    }
    if let Some(window) = demo.postmortem() {
        let rendered = unp_trace::render(window);
        let lines: Vec<&str> = rendered.lines().collect();
        let tail = lines.len().saturating_sub(8);
        println!(
            "  flight recorder window: {} records; last {}:",
            window.len(),
            lines.len() - tail
        );
        for l in &lines[tail..] {
            println!("    {l}");
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_journal_replays_clean_and_mutations_catch() {
        let lossy = lossy_journal();
        let mon = Monitor::new().run_over(&lossy);
        assert_eq!(
            mon.total_violations(),
            0,
            "conformant lossy run must be violation-free: {:?}",
            mon.violations().first()
        );
        let c = mon.checked();
        assert!(c.tcp_acks > 0 && c.rexmits > 0 && c.ring_events > 0);
        assert!(c.pool_events > 0 && c.demux_classifies > 0 && c.transitions > 0);
        for (class, n) in mutation_coverage(&lossy) {
            assert!(n > 0, "{} not caught", class.label());
        }
        let demo = demo_monitor(&lossy);
        assert!(demo.postmortem().is_some_and(|w| !w.is_empty()));
    }

    #[test]
    fn scale_point_memory_tracks_sample_not_population() {
        let small = scale_point(64);
        let big = scale_point(4096);
        assert_eq!(small.violations + big.violations, 0);
        assert!(big.ring_events >= SCALE_SAMPLE as u64);
        // 64x the population, same sample: observer state must not grow
        // with the channel count (allow slack for hash-map capacity).
        assert!(
            big.monitor_mem_bytes <= small.monitor_mem_bytes.max(1) * 4,
            "monitor memory scaled with population: {} -> {}",
            small.monitor_mem_bytes,
            big.monitor_mem_bytes
        );
    }

    #[test]
    fn report_json_is_shaped() {
        let r = MonitorReport {
            lossy_violations: 0,
            clean_violations: 0,
            live_violations: 0,
            checked: CheckStats {
                tcp_acks: 10,
                transitions: 4,
                rexmits: 2,
                ring_events: 9,
                pool_events: 8,
                demux_classifies: 9,
                quota_drops: 0,
            },
            mutations: vec![(BugClass::AckRegression, 1), (BugClass::RingLeak, 2)],
            overhead_ratio: 1.01,
            off_secs: 0.5,
            on_secs: 0.505,
            overhead_attempts: 1,
            postmortem_records: 17,
            recorder_occupancy: 64,
            scale: vec![ScaleMonPoint {
                channels: 8,
                sampled: 8,
                monitor_mem_bytes: 1024,
                ring_events: 8,
                violations: 0,
            }],
        };
        let v = unp_trace::json::parse(&to_json(&r).render()).expect("report parses");
        assert_eq!(v, to_json(&r));
        assert_eq!(
            v.get("scale")
                .and_then(|s| s.get("peak_observer_mem_bytes"))
                .and_then(Value::as_u64),
            Some(1024)
        );
        assert!(gate(&r, &v).is_ok());
        let mut bad = r;
        bad.lossy_violations = 1;
        assert!(gate(&bad, &to_json(&bad)).is_err());
    }
}
