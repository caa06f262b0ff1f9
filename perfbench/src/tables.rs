//! `paper_tables`: regenerates Tables 1-5, the Figure 1 sweep and the
//! ablations at the committed sizes, the work `repro-tables` does, and
//! checks every number against the committed `tables_output.txt`.
//!
//! The world-based experiments run here on `unp-core`'s public API with
//! the exact configurations of `unp_core::experiments`, so the benchmark
//! sees each world's setup, steps and drained state. Experiments that
//! build no `World` (the raw-mechanism pipeline, the cost-model cells,
//! the loopback congestion ablation, the rrp comparison) are called
//! as-is. The seed does not vary this workload: its outputs are fixed.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use unp_bench::tables::{T2_PAPER, T2_SIZES, T3_PAPER, T3_SIZES, T4_OURS_AN1, T4_PAPER};
use unp_core::experiments as exp;
use unp_core::{
    build_two_hosts, AppLogic, AppOp, AppView, BulkSender, CongestionControlChoice, EchoApp,
    Network, OrgKind, PingPongApp, SinkApp, TransferStats,
};
use unp_sim::CostModel;
use unp_tcp::TcpConfig;
use unp_trace::Ctr;
use unp_wire::Ipv4Addr;

use crate::common::{Clock, Iter};
use crate::probe::Probe;

/// The committed golden output, relative to the checkout root.
pub const GOLDEN: &str = "tables_output.txt";

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);
/// `repro-tables`' full-size byte budget and Table-3 round count.
const TOTAL: u64 = 2_000_000;
const ROUNDS: usize = 30;

#[derive(Clone, Copy)]
enum Ablate {
    None,
    Batching,
    ZeroCopy,
}

/// One world-based experiment, configured as in `unp_core::experiments`.
#[derive(Clone, Copy)]
enum Job {
    Throughput {
        net: Network,
        org: OrgKind,
        size: usize,
        ablate: Ablate,
    },
    Nagle {
        on: bool,
    },
    Latency {
        net: Network,
        org: OrgKind,
        size: usize,
        rounds: usize,
    },
    Setup {
        net: Network,
        org: OrgKind,
    },
}

/// Records the host instant of a client's `Connected` upcall, then hands
/// every callback to the wrapped application unchanged.
struct Timed<A> {
    inner: A,
    up: Rc<Cell<Option<Instant>>>,
}

impl<A: AppLogic> AppLogic for Timed<A> {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.up.set(Some(Instant::now()));
        self.inner.on_connected(view)
    }
    fn on_data(&mut self, data: &[u8], view: &AppView) -> Vec<AppOp> {
        self.inner.on_data(data, view)
    }
    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        self.inner.on_send_space(view)
    }
    fn on_peer_closed(&mut self, view: &AppView) -> Vec<AppOp> {
        self.inner.on_peer_closed(view)
    }
    fn on_reset(&mut self, view: &AppView) {
        self.inner.on_reset(view)
    }
}

/// The golden file split into `== ` sections of lines.
pub struct Golden {
    sections: Vec<(String, Vec<String>)>,
}

impl Golden {
    pub fn parse(text: &str) -> Golden {
        let mut sections: Vec<(String, Vec<String>)> = Vec::new();
        for line in text.lines() {
            if line.starts_with("== ") {
                sections.push((line.to_string(), Vec::new()));
            } else if let Some((_, lines)) = sections.last_mut() {
                lines.push(line.to_string());
            }
        }
        Golden { sections }
    }

    /// The whitespace-separated tokens after `label` on the row of the
    /// section whose header starts with `section`.
    fn row(&self, section: &str, label: &str) -> Option<Vec<&str>> {
        let (_, lines) = self.sections.iter().find(|(h, _)| h.starts_with(section))?;
        lines.iter().find_map(|l| {
            let rest = l.trim_start().strip_prefix(label)?;
            rest.starts_with(char::is_whitespace)
                .then(|| rest.split_whitespace().collect())
        })
    }
}

/// Compares measured tokens with the golden row; every token holding a
/// digit is one table cell.
struct Cells<'a> {
    golden: &'a Golden,
    it: &'a mut Iter,
}

impl Cells<'_> {
    fn check(&mut self, section: &str, label: &str, measured: String) {
        let want = self.golden.row(section, label);
        for (i, tok) in measured.split_whitespace().enumerate() {
            if !tok.contains(|c: char| c.is_ascii_digit()) {
                continue;
            }
            self.it.attempted += 1;
            let golden = want.as_ref().and_then(|w| w.get(i).copied());
            if golden != Some(tok) {
                self.it.fail(format!(
                    "{section} / {label}: measured {tok}, golden {}",
                    golden.unwrap_or("<missing>")
                ));
            }
        }
    }
}

fn net_label(n: Network) -> &'static str {
    match n {
        Network::Ethernet => "Ethernet",
        Network::An1 => "DEC SRC AN1",
    }
}

/// Runs one world-based experiment; returns its table value and the
/// frames it put on the wire.
fn run_job(
    job: Job,
    clock: &mut Clock,
    probe: &mut Option<&mut Probe>,
    it: &mut Iter,
) -> (f64, u64) {
    let t0 = Instant::now();
    let live_before = unp_buffers::live_frames();
    if let Some(p) = probe.as_deref_mut() {
        p.begin_world();
    }
    let (net, org) = match job {
        Job::Throughput { net, org, .. }
        | Job::Latency { net, org, .. }
        | Job::Setup { net, org } => (net, org),
        Job::Nagle { .. } => (Network::Ethernet, OrgKind::UserLibrary),
    };
    let (mut w, mut eng) = build_two_hosts(net, org);
    if let Some(p) = probe.as_deref_mut() {
        p.attach(&mut w);
    }
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let up = Rc::new(Cell::new(None));
    let (server_cfg, client_cfg, client, write, limit): (_, _, Box<dyn AppLogic>, usize, u64) =
        match job {
            Job::Throughput { size, ablate, .. } => {
                match ablate {
                    Ablate::None => {}
                    Ablate::Batching => w.ablate_batching = true,
                    Ablate::ZeroCopy => w.ablate_zero_copy = true,
                }
                let mut cfg = TcpConfig::bulk_transfer();
                cfg.mss_local = size.min(1460);
                let sender = BulkSender::new(TOTAL, size);
                (
                    cfg.clone(),
                    cfg,
                    Box::new(Timed {
                        inner: sender,
                        up: Rc::clone(&up),
                    }),
                    size,
                    50_000_000,
                )
            }
            Job::Nagle { on } => {
                let mut cfg = TcpConfig::bulk_transfer();
                cfg.nagle = on;
                let sender = BulkSender::new(TOTAL / 4, 128);
                (
                    cfg.clone(),
                    cfg,
                    Box::new(Timed {
                        inner: sender,
                        up: Rc::clone(&up),
                    }),
                    128,
                    100_000_000,
                )
            }
            Job::Latency { size, rounds, .. } => {
                let cfg = TcpConfig::default();
                let ping = PingPongApp::new(size, rounds, Rc::clone(&st));
                (
                    cfg.clone(),
                    cfg,
                    Box::new(Timed {
                        inner: ping,
                        up: Rc::clone(&up),
                    }),
                    size,
                    50_000_000,
                )
            }
            Job::Setup { .. } => {
                let cfg = TcpConfig::default();
                let ping = PingPongApp::new(1, 0, Rc::clone(&st));
                (
                    cfg.clone(),
                    cfg,
                    Box::new(Timed {
                        inner: ping,
                        up: Rc::clone(&up),
                    }),
                    1,
                    10_000_000,
                )
            }
        };
    match job {
        Job::Latency { .. } => {
            unp_core::world::listen(&mut w, 1, 80, server_cfg, Box::new(|| Box::new(EchoApp)))
        }
        _ => {
            let verify = !matches!(job, Job::Setup { .. });
            let sink_stats = if verify {
                Rc::clone(&stats)
            } else {
                TransferStats::new_shared()
            };
            unp_core::world::listen(
                &mut w,
                1,
                80,
                server_cfg,
                Box::new(move || {
                    let sink = SinkApp::new(Rc::clone(&sink_stats));
                    Box::new(if verify { sink } else { sink.without_verify() })
                }),
            )
        }
    }
    let call = Instant::now();
    unp_core::world::connect(&mut w, &mut eng, 0, SERVER, client_cfg, client, write);
    let mut drained = false;
    for _ in 0..limit {
        if !clock.step(&mut w, &mut eng, probe) {
            drained = true;
            break;
        }
    }
    // The request/response worlds are this workload's transactions:
    // `connect` call to the drained world, every reply in.
    if let Job::Latency { .. } = job {
        it.op_us.push(call.elapsed().as_secs_f64() * 1e6);
    }
    let s = stats.borrow();
    let (value, payload, ok) = match job {
        Job::Throughput { .. } => (
            s.throughput_bps().unwrap_or(0.0) / 1e6,
            TOTAL,
            s.bytes_received == TOTAL,
        ),
        Job::Nagle { .. } => (
            s.throughput_bps().unwrap_or(0.0) / 1e6,
            TOTAL / 4,
            s.bytes_received == TOTAL / 4,
        ),
        Job::Latency { size, rounds, .. } => (
            s.mean_rtt().unwrap_or(0.0) / 1e6,
            (2 * size * rounds) as u64,
            s.rtts.len() == rounds,
        ),
        Job::Setup { .. } => (
            s.connected_at.map_or(0.0, |t| t as f64 / 1e6),
            0,
            s.connected_at.is_some(),
        ),
    };
    drop(s);
    if !drained || !ok {
        it.fail(format!(
            "{} / {:?}: run incomplete (drained {drained})",
            net_label(net),
            org
        ));
    } else {
        it.payload_bytes += payload;
    }
    it.check_drained(&w, probe.is_none().then_some(live_before));
    let frames = w.metrics.get(Ctr::FramesSent);
    let end = Instant::now();
    it.worlds += 1;
    if let Some(p) = probe.as_deref_mut() {
        let id = it.worlds;
        p.span("txn", id, 0, t0, end);
        if let Some(up) = up.get() {
            p.connected(id, call, up);
        }
        p.end_world(w);
    }
    (value, frames)
}

/// Runs a call that builds no world, crediting the payload it moves.
fn credited<T>(it: &mut Iter, payload: u64, f: impl FnOnce() -> T) -> T {
    it.payload_bytes += payload;
    f()
}

/// One full regeneration of the tables, checked cell by cell.
pub fn iteration(start: Instant, golden_path: &str, mut probe: Option<&mut Probe>) -> Iter {
    let mut it = Iter::default();
    let mut clock = Clock::starting_at(start);
    let golden = match std::fs::read_to_string(golden_path) {
        Ok(text) => Golden::parse(&text),
        Err(e) => {
            it.attempted += 1;
            it.fail(format!("cannot read {golden_path}: {e}"));
            clock.finish(&mut it);
            return it;
        }
    };
    let p = &mut probe;
    let mut results: Vec<(&'static str, String, String)> = Vec::new();

    for net in [Network::Ethernet, Network::An1] {
        let (mech, standalone) = exp::table1_mechanisms(net);
        results.push((
            "== Table 1",
            net_label(net).to_string(),
            format!(
                "{mech:.2} {standalone:.2} {:.0}%",
                mech / standalone * 100.0
            ),
        ));
    }
    for (name, net, org, _) in T2_PAPER {
        let row: Vec<String> = T2_SIZES
            .iter()
            .map(|&size| {
                let job = Job::Throughput {
                    net,
                    org,
                    size,
                    ablate: Ablate::None,
                };
                format!("{:.1}", run_job(job, &mut clock, p, &mut it).0)
            })
            .collect();
        results.push((
            "== Table 2",
            format!("{name} / {}", net_label(net)),
            row.join(" "),
        ));
    }
    for (name, net, org, _) in T3_PAPER {
        let row: Vec<String> = T3_SIZES
            .iter()
            .map(|&size| {
                let job = Job::Latency {
                    net,
                    org,
                    size,
                    rounds: ROUNDS,
                };
                format!("{:.1}", run_job(job, &mut clock, p, &mut it).0)
            })
            .collect();
        results.push((
            "== Table 3",
            format!("{name} / {}", net_label(net)),
            row.join(" "),
        ));
    }
    for (name, net, org, _) in T4_PAPER.iter().chain(std::iter::once(&T4_OURS_AN1)) {
        let ms = run_job(
            Job::Setup {
                net: *net,
                org: *org,
            },
            &mut clock,
            p,
            &mut it,
        )
        .0;
        results.push(("== Table 4", name.to_string(), format!("{ms:.1}")));
    }
    let parts = exp::setup_breakdown(&CostModel::calibrated_1993());
    let total: f64 = parts.iter().map(|(_, ms)| ms).sum();
    for (label, ms) in parts {
        results.push(("== Table 4", label.to_string(), format!("{ms:.1}")));
    }
    results.push((
        "== Table 4",
        "total (components)".into(),
        format!("{total:.1}"),
    ));
    let (sw, hw) = exp::table5_demux_us();
    results.push((
        "== Table 5",
        "Lance Ethernet (software BPF)".into(),
        format!("{sw:.0}"),
    ));
    results.push((
        "== Table 5",
        "AN1 (hardware BQI)".into(),
        format!("{hw:.0}"),
    ));

    for org in [
        OrgKind::InKernel,
        OrgKind::SingleServer,
        OrgKind::SingleServerMsg,
        OrgKind::DedicatedServer,
        OrgKind::UserLibrary,
    ] {
        let net = Network::Ethernet;
        let tput = run_job(
            Job::Throughput {
                net,
                org,
                size: 4096,
                ablate: Ablate::None,
            },
            &mut clock,
            p,
            &mut it,
        )
        .0;
        let rtt = run_job(
            Job::Latency {
                net,
                org,
                size: 512,
                rounds: 20,
            },
            &mut clock,
            p,
            &mut it,
        )
        .0;
        let setup = run_job(Job::Setup { net, org }, &mut clock, p, &mut it).0;
        results.push((
            "== Figure 1",
            org.label().to_string(),
            format!("{tput:.1} {rtt:.1} {setup:.1}"),
        ));
    }

    let ul = OrgKind::UserLibrary;
    for (net, size, ablate, on_label, off_label) in [
        (
            Network::Ethernet,
            4096,
            Ablate::Batching,
            "batching on",
            "signal every packet",
        ),
        (
            Network::An1,
            512,
            Ablate::ZeroCopy,
            "zero-copy region",
            "with copies",
        ),
    ] {
        let with = run_job(
            Job::Throughput {
                net,
                org: ul,
                size,
                ablate: Ablate::None,
            },
            &mut clock,
            p,
            &mut it,
        )
        .0;
        let without = run_job(
            Job::Throughput {
                net,
                org: ul,
                size,
                ablate,
            },
            &mut clock,
            p,
            &mut it,
        )
        .0;
        results.push(("== Ablations", on_label.into(), format!("{with:.2}")));
        results.push((
            "== Ablations",
            off_label.into(),
            format!(
                "{without:.2} Mb/s ({:+.0}%)",
                (without / with - 1.0) * 100.0
            ),
        ));
    }
    for (on, label) in [(true, "nagle on"), (false, "nagle off")] {
        let (tput, frames) = run_job(Job::Nagle { on }, &mut clock, p, &mut it);
        results.push((
            "== Ablations",
            label.into(),
            format!("{tput:.2} Mb/s ({frames} frames)"),
        ));
    }
    for (name, cc) in [
        ("off (1993 LAN stacks)", CongestionControlChoice::Off),
        ("Tahoe", CongestionControlChoice::Tahoe),
        ("Reno", CongestionControlChoice::Reno),
    ] {
        let (ms, segs, rexmit) = credited(&mut it, 200_000, || {
            exp::ablation_congestion(200_000, 0.05, 7, cc)
        });
        results.push((
            "== Ablations",
            name.into(),
            format!("{ms:.0} ms {segs} segments {rexmit} bytes rexmit"),
        ));
    }
    let (rrp_lat, tcp_lat, rrp_tput, tcp_tput) = credited(&mut it, 500_000 + 2 * 512 * 10, || {
        exp::ablation_rrp_vs_tcp(512)
    });
    results.push((
        "== Ablations",
        "512 B transaction:".into(),
        format!("rrp {rrp_lat:.2} ms TCP {tcp_lat:.2} ms"),
    ));
    results.push((
        "== Ablations",
        "bulk throughput:".into(),
        format!("rrp {rrp_tput:.2} Mb/s TCP {tcp_tput:.2} Mb/s"),
    ));

    let mut cells = Cells {
        golden: &golden,
        it: &mut it,
    };
    for (section, label, measured) in &results {
        cells.check(section, label, measured.clone());
    }
    clock.finish(&mut it);
    it
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rows_are_found_per_section() {
        let g = Golden::parse(
            "== Table 2: x ==\nUltrix 4.2A / Ethernet   4.2  6.6  (paper: 5.8)\n\n\
             == Table 4: y ==\nUltrix 4.2A / Ethernet   2.7   (paper: 2.6)\n",
        );
        assert_eq!(
            g.row("== Table 2", "Ultrix 4.2A / Ethernet").unwrap()[..2],
            ["4.2", "6.6"]
        );
        assert_eq!(
            g.row("== Table 4", "Ultrix 4.2A / Ethernet").unwrap()[0],
            "2.7"
        );
        assert!(
            g.row("== Table 4", "Ultrix 4.2").is_none(),
            "a label ends at whitespace"
        );
    }

    #[test]
    fn a_wrong_cell_is_one_failure() {
        let g = Golden::parse("== Table 5: z ==\nAN1 (hardware BQI)   50   (50)\n");
        let mut it = Iter::default();
        let mut cells = Cells {
            golden: &g,
            it: &mut it,
        };
        cells.check("== Table 5", "AN1 (hardware BQI)", "50".into());
        cells.check("== Table 5", "AN1 (hardware BQI)", "51".into());
        assert_eq!((it.attempted, it.failed), (2, 1));
    }
}
