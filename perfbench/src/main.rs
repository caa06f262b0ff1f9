//! Host-time benchmark of the user-level protocol stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_tables|rpc_churn|lossy_monitored> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`paper_tables` reads the committed
//! `tables_output.txt`). One process runs one workload on one thread,
//! repeating whole iterations until `--seconds` have passed. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the metrics. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` pairs untraced with traced iterations, replays the traced
//! traffic through each layer, reports the per-layer metrics, and writes
//! the run's spans to `perfbench/spans/<workload>.jsonl`.

mod common;
mod ledger;
mod lossy;
mod probe;
mod rexmit;
mod rpc;
mod speed;
mod tables;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{iteration_seed, median, quantile, Iter};
use probe::Probe;
use unp_tcp::TcpConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTables,
    RpcChurn,
    LossyMonitored,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_tables" => Some(Workload::PaperTables),
            "rpc_churn" => Some(Workload::RpcChurn),
            "lossy_monitored" => Some(Workload::LossyMonitored),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::RpcChurn => "rpc_churn",
            Workload::LossyMonitored => "lossy_monitored",
        }
    }

    /// Iteration `i` of a run seeded with `seed`, starting at `start`.
    pub fn iteration(self, start: Instant, seed: u64, i: u64, probe: Option<&mut Probe>) -> Iter {
        match self {
            Workload::PaperTables => tables::iteration(start, tables::GOLDEN, probe),
            Workload::RpcChurn => {
                let cfg = rpc::RpcConfig::new(rpc::CLIENTS, rpc::CONNS_PER_CLIENT)
                    .expect("the benchmark's own configuration fits the port range");
                rpc::iteration(start, cfg, seed, i, probe)
            }
            Workload::LossyMonitored => lossy::iteration(start, seed, i, probe),
        }
    }

    /// How the workload drives TCP, for the loopback replay.
    fn loopback_shape(self) -> ledger::LoopbackShape {
        match self {
            Workload::PaperTables => ledger::LoopbackShape {
                cfg: TcpConfig::bulk_transfer(),
                write: 4096,
                lockstep: false,
                loss: 0.0,
            },
            Workload::RpcChurn => ledger::LoopbackShape {
                cfg: TcpConfig::default(),
                write: 256,
                lockstep: true,
                loss: 0.0,
            },
            Workload::LossyMonitored => ledger::LoopbackShape {
                cfg: TcpConfig::bulk_transfer(),
                write: 1460,
                lockstep: false,
                loss: lossy::LOSS,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The counts every run reports, summed over its iterations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, it: &Iter) {
        self.attempted += it.attempted;
        self.failed += it.failed;
        for note in &it.notes {
            eprintln!("FAILED: {note}");
        }
    }
}

/// Untraced iterations until the time budget is spent; the end-to-end
/// metrics, scaled to the reference host's speed (see `speed`).
fn end_to_end(
    args: &Args,
    process_start: Instant,
    tally: &mut Tally,
) -> Vec<(String, f64, &'static str)> {
    let budget = Duration::from_secs(args.seconds);
    let mut iters = Vec::new();
    let mut kernel_s = Vec::new();
    let mut start = process_start;
    let t0 = Instant::now();
    while iters.is_empty() || t0.elapsed() < budget {
        let it = args
            .workload
            .iteration(start, args.seed, iters.len() as u64, None);
        kernel_s.push(speed::kernel());
        tally.add(&it);
        iters.push(it);
        start = Instant::now();
    }
    let scales = speed::scales(&kernel_s);
    let raw_walls: Vec<f64> = iters.iter().map(|i| i.run_s).collect();
    for (it, s) in iters.iter_mut().zip(&scales) {
        it.setup_s *= s;
        it.run_s *= s;
        it.op_us.iter_mut().for_each(|us| *us *= s);
    }
    // Every metric is the median over the iterations of its value in
    // each: a burst of interference the scaling misses moves one
    // iteration's figures, not the run's.
    let per_iter = |f: &dyn Fn(&Iter) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let op_quantile = |i: &Iter, q: f64| {
        let mut v = i.op_us.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    };
    let ops: usize = iters.iter().map(|i| i.op_us.len()).sum();
    println!(
        "{}: {} iterations, {ops} operations",
        args.workload.name(),
        iters.len(),
    );
    println!(
        "host speed: speed kernel median {:.6} s against {} s on the reference host; \
         unscaled wall_s median {:.6} s",
        median(&kernel_s),
        speed::REFERENCE_S,
        median(&raw_walls)
    );
    vec![
        ("setup_s".into(), per_iter(&|i| i.setup_s), "s"),
        ("wall_s".into(), per_iter(&|i| i.run_s), "s"),
        (
            "payload_mb_per_s".into(),
            per_iter(&|i| i.payload_bytes as f64 / i.run_s / 1e6),
            "MB/s",
        ),
        (
            "txn_per_s".into(),
            per_iter(&|i| i.op_us.len() as f64 / i.run_s),
            "1/s",
        ),
        (
            "txn_us_p50".into(),
            per_iter(&|i| op_quantile(i, 0.5)),
            "us",
        ),
        (
            "txn_us_p99".into(),
            per_iter(&|i| op_quantile(i, 0.99)),
            "us",
        ),
        ("peak_rss_mib".into(), common::peak_rss_mib(), "MiB"),
    ]
}

/// Pairs of untraced and traced iterations of the same inputs, then the
/// layer replays over the first traced iteration.
fn traced(
    args: &Args,
    process_start: Instant,
    tally: &mut Tally,
) -> Vec<(String, f64, &'static str)> {
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut first: Option<(Probe, f64)> = None;
    let mut ratios = Vec::new();
    while ratios.len() < 2 || t0.elapsed() < budget {
        // The frame-pool counters come from the untraced twin: the
        // capture tap holds every frame, which defeats recycling.
        unp_buffers::reset_frame_stats();
        let plain = args.workload.iteration(Instant::now(), args.seed, 0, None);
        let frame_stats = unp_buffers::frame_stats();
        tally.add(&plain);
        let mut probe = Probe::new(process_start);
        let start = Instant::now();
        let it = args
            .workload
            .iteration(start, args.seed, 0, Some(&mut probe));
        tally.add(&it);
        let wall = it.setup_s + it.run_s - probe.excluded.as_secs_f64();
        probe.span(
            "setup",
            0,
            0,
            start,
            start + Duration::from_secs_f64(it.setup_s),
        );
        probe.frame_stats = frame_stats;
        probe.payload_bytes = it.payload_bytes;
        ratios.push(wall / (plain.setup_s + plain.run_s));
        if first.is_none() {
            first = Some((probe, wall));
        }
    }
    let (mut probe, wall) = first.expect("at least one traced iteration");
    let walls = ledger::Walls {
        traced_s: wall,
        overhead_ratios: ratios,
        monitor_live: args.workload == Workload::LossyMonitored,
    };
    let metrics = ledger::per_layer(
        &mut probe,
        &walls,
        &args.workload.loopback_shape(),
        iteration_seed(args.seed, 0),
    );
    let path = format!("perfbench/spans/{}.jsonl", args.workload.name());
    match probe.write_spans(std::path::Path::new(&path)) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("could not write spans to {path}: {e}"),
    }
    metrics
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new(tables::GOLDEN).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            tables::GOLDEN
        );
        return ExitCode::from(2);
    }
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, process_start, &mut tally)
    } else {
        end_to_end(&args, process_start, &mut tally)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact per-layer counts of one traced iteration, which must
    /// pass its checks.
    fn counts(w: Workload, seed: u64) -> Vec<(&'static str, u64)> {
        let mut probe = Probe::new(Instant::now());
        let it = w.iteration(Instant::now(), seed, 0, Some(&mut probe));
        assert_eq!(it.failed, 0, "{}: {:?}", w.name(), it.notes);
        probe.counts()
    }

    #[test]
    fn same_seed_same_counts_and_the_seed_reaches_the_generator() {
        // `paper_tables` reads the golden tables from the repository root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repo root");
        for w in [
            Workload::RpcChurn,
            Workload::LossyMonitored,
            Workload::PaperTables,
        ] {
            let a = counts(w, 11);
            assert!(
                a.iter().any(|&(name, v)| name == "sim.events" && v > 0),
                "{a:?}"
            );
            assert_eq!(a, counts(w, 11), "{}: one seed, two runs", w.name());
            if w != Workload::PaperTables {
                assert_ne!(
                    a,
                    counts(w, 12),
                    "{}: the seed must change the traffic",
                    w.name()
                );
            }
        }
    }
}
