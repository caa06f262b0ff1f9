//! Regenerates every table of the paper's evaluation section.
//!
//! Usage:
//! ```text
//! cargo run -p unp-bench --release --bin repro-tables            # all
//! cargo run -p unp-bench --release --bin repro-tables -- table2  # one
//! cargo run -p unp-bench --release --bin repro-tables -- quick   # smaller workloads
//! cargo run -p unp-bench --release --bin repro-tables -- --timings
//! #   also time each table (host wall-clock, events, frame allocations),
//! #   run the frame-pool ablation and the demux fast-path report, and
//! #   write BENCH_zero_copy.json + BENCH_demux.json
//! cargo run -p unp-bench --release --bin repro-tables -- --trace
//! #   also rerun the Table-2 workload with the event journal recording,
//! #   print the receive-path latency breakdown cross-checked against the
//! #   modeled costs, and write BENCH_trace.json
//! cargo run -p unp-bench --release --bin repro-tables -- --profile
//! #   also join the journal into per-frame path traces, print the
//! #   per-stage latency decomposition and the 8→4096-channel churn
//! #   sweep (rebuild_active timing), write BENCH_profile.json, then run
//! #   the 8→10^6-channel mixed-population scale sweep (incremental
//! #   churn, per-tier classify, memory footprint) and write
//! #   BENCH_demux_scale.json
//! cargo run -p unp-bench --release --bin repro-tables -- --churn-gate
//! #   CI gate: per-event channel churn at 4096 channels must stay within
//! #   a constant factor of 64 channels (incremental maintenance must not
//! #   scale with the population); exit 1 otherwise; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --profile-baseline
//! #   (re)generate BENCH_profile_baseline.json for the CI perf gate
//! #   from the quick workload; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --profile-gate <baseline>
//! #   re-run the quick workload and compare stage means against the
//! #   committed baseline: exit 1 on regression past the tolerance band,
//! #   warn on improvement; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --explain [f<id> | <port>]
//! #   run the seeded faulty Table-2 workload, join the journal into the
//! #   cross-host causal graph, and print the postmortem for one frame
//! #   (f<id>), one connection (<port>), or the whole run; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --explain-gate
//! #   CI gate: same workload, assert the fault-plan oracle (attribution
//! #   coverage 1.0, every lost data frame claimed exactly once or
//! #   superseded), write BENCH_causal.json, and diff the Chrome trace
//! #   export against tests/golden/causal_trace.json; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --explain-baseline
//! #   (re)generate the golden Chrome trace + BENCH_causal.json
//! cargo run -p unp-bench --release --bin repro-tables -- --isolation-gate
//! #   CI gate: run the multi-tenant isolation oracle (three innocent
//! #   tenants + one byzantine tenant, baseline vs hostile run of the
//! #   same seed), assert the isolation envelope, and write
//! #   BENCH_isolation.json; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --monitor
//! #   run the streaming conformance monitor over the golden workloads,
//! #   the mutation harness, the overhead timing, and the monitored
//! #   scale sweep; print the report plus a seeded postmortem demo and
//! #   write BENCH_monitor.json; skips the tables
//! cargo run -p unp-bench --release --bin repro-tables -- --monitor-gate
//! #   CI gate: same measurements, assert zero violations on conformant
//! #   runs, non-vacuous checkers, 8/8 mutation classes caught, and the
//! #   overhead bound; write BENCH_monitor.json; skips the tables
//! ```
//!
//! Table names and the flags above (with `quick`, `timings`, `trace`
//! and `profile` also accepted bare) are the only arguments: anything
//! else prints the usage and exits 2, so a misspelled flag never turns
//! into a table selector that runs nothing.

use unp_bench::{causal, demux, isolation, monitor, profile, scale, tables, timings, trace};
use unp_trace::json::Value;

/// Every argument accepted besides `--profile-gate <baseline>` and
/// `--explain [target]`.
const KNOWN: [&str; 21] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig1",
    "ablations",
    "quick",
    "--timings",
    "timings",
    "--trace",
    "trace",
    "--profile",
    "profile",
    "--profile-baseline",
    "--churn-gate",
    "--explain-gate",
    "--explain-baseline",
    "--isolation-gate",
    "--monitor",
    "--monitor-gate",
];

const USAGE: &str =
    "usage: repro-tables [quick] [table1|table2|table3|table4|table5|fig1|ablations]...
                    [--timings] [--trace] [--profile]
       repro-tables --profile-baseline | --profile-gate <baseline> | --churn-gate
       repro-tables --explain [f<id>|<port>] | --explain-gate | --explain-baseline
       repro-tables --isolation-gate | --monitor | --monitor-gate";

/// Writes one report artifact — the only way `repro-tables` writes JSON.
fn write_report(path: &str, report: &Value) {
    std::fs::write(path, report.render() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Writes a gate's report, then prints its verdict lines or exits 1.
fn finish_gate(name: &str, path: &str, report: &Value, verdict: Result<Vec<String>, String>) {
    write_report(path, report);
    match verdict {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
        }
        Err(msg) => {
            eprintln!("{name} gate FAILED: {msg}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.iter().peekable();
    while let Some(a) = rest.next() {
        let ok = match a.as_str() {
            "--profile-gate" => rest.next().is_some(),
            "--explain" => {
                rest.next_if(|t| !t.starts_with("--"));
                true
            }
            a => KNOWN.contains(&a),
        };
        if !ok {
            eprintln!("repro-tables: bad argument {a:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let quick = args.iter().any(|a| a == "quick");
    let want_timings = args.iter().any(|a| a == "--timings" || a == "timings");
    let want_trace = args.iter().any(|a| a == "--trace" || a == "trace");
    let want_profile = args.iter().any(|a| a == "--profile" || a == "profile");
    let want_baseline = args.iter().any(|a| a == "--profile-baseline");
    let want_churn_gate = args.iter().any(|a| a == "--churn-gate");
    let gate_path = args
        .iter()
        .position(|a| a == "--profile-gate")
        .map(|i| args[i + 1].clone());
    let explain_pos = args.iter().position(|a| a == "--explain");
    let want_explain_gate = args.iter().any(|a| a == "--explain-gate");
    let want_explain_baseline = args.iter().any(|a| a == "--explain-baseline");
    let want_isolation_gate = args.iter().any(|a| a == "--isolation-gate");
    let want_monitor = args.iter().any(|a| a == "--monitor");
    let want_monitor_gate = args.iter().any(|a| a == "--monitor-gate");
    let total: u64 = if quick { 400_000 } else { 2_000_000 };
    let rounds = if quick { 10 } else { 30 };

    if want_explain_gate || want_explain_baseline {
        let (report, verdict) = if want_explain_gate {
            causal::gate()
        } else {
            causal::baseline()
        };
        finish_gate("causal", "BENCH_causal.json", &report, verdict);
        return;
    }

    if let Some(i) = explain_pos {
        let graph = causal::causal_section();
        let target = args.get(i + 1).filter(|t| !t.starts_with("--"));
        causal::print_explain(&graph, target.map(String::as_str));
        return;
    }

    if want_isolation_gate {
        let (report, verdict) = isolation::gate();
        finish_gate("isolation", "BENCH_isolation.json", &report, verdict);
        return;
    }

    if want_monitor || want_monitor_gate {
        let r = monitor::monitor_section(|line| println!("{line}"));
        monitor::print_report(&r);
        if want_monitor {
            let lossy = causal::lossy_journal();
            monitor::print_postmortem_demo(&lossy);
        }
        let report = monitor::to_json(&r);
        let path = "BENCH_monitor.json";
        if want_monitor_gate {
            finish_gate("monitor", path, &report, monitor::gate(&r, &report));
        } else {
            write_report(path, &report);
        }
        return;
    }

    if want_churn_gate {
        let (at_64, at_4096) = scale::churn_gate_measure();
        let ratio = at_4096 / at_64;
        println!(
            "churn gate: create+activate+destroy {at_64:.1} ns @ 64 channels, {at_4096:.1} ns @ 4096 ({ratio:.2}x, bound {:.0}x)",
            scale::CHURN_GATE_FACTOR
        );
        if ratio > scale::CHURN_GATE_FACTOR {
            eprintln!(
                "churn gate FAILED: per-event churn scaled {ratio:.2}x from 64 to 4096 channels (bound {:.0}x) — incremental maintenance has regressed to O(N)",
                scale::CHURN_GATE_FACTOR
            );
            std::process::exit(1);
        }
        return;
    }

    // The gate/baseline modes are CI tools: deterministic quick workload,
    // no table regeneration.
    if want_baseline || gate_path.is_some() {
        let rows = profile::profile_section(400_000);
        let means = profile::gate_means(&rows);
        if want_baseline {
            write_report(
                "BENCH_profile_baseline.json",
                &profile::baseline_json(&rows),
            );
        }
        if let Some(path) = gate_path {
            let baseline = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
            match profile::check_gate(&means, &baseline) {
                Ok(warnings) => {
                    for w in &warnings {
                        println!("warning: {w}");
                    }
                    println!("profile gate: stage means within ±5% of {path}");
                }
                Err(msg) => {
                    eprintln!("profile gate FAILED: {msg}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    let selectors: Vec<&String> = args
        .iter()
        .filter(|a| {
            *a != "--timings"
                && *a != "timings"
                && *a != "--trace"
                && *a != "trace"
                && *a != "--profile"
                && *a != "profile"
        })
        .collect();
    let pick =
        |name: &str| selectors.is_empty() || selectors.iter().any(|a| *a == name || *a == "quick");

    println!("Reproduction of \"Implementing Network Protocols at User Level\"");
    println!("(Thekkath, Nguyen, Moy, Lazowska — SIGCOMM 1993)\n");

    type TableFn<'a> = (&'static str, Box<dyn FnOnce() + 'a>);
    let runs: Vec<TableFn> = vec![
        ("table1", Box::new(tables::table1)),
        ("table2", Box::new(move || tables::table2(total))),
        ("table3", Box::new(move || tables::table3(rounds))),
        ("table4", Box::new(tables::table4)),
        ("table5", Box::new(tables::table5)),
        ("fig1", Box::new(move || tables::fig1_sweep(total))),
        ("ablations", Box::new(move || tables::ablations(total))),
    ];

    let mut timed = Vec::new();
    for (name, run) in runs {
        if !pick(name) {
            continue;
        }
        if want_timings {
            timed.push(timings::timed(name, run));
        } else {
            run();
        }
    }

    if want_timings {
        let cmp = timings::pool_comparison(4096, total);
        timings::print_report(&timed, &cmp);
        write_report("BENCH_zero_copy.json", &timings::to_json(&timed, &cmp));

        let d = demux::demux_section(total);
        demux::print_report(&d);
        write_report("BENCH_demux.json", &demux::to_json(&d));
    }

    if want_trace {
        let trace_total = if quick { 400_000 } else { 1_000_000 };
        let rows = trace::trace_section(trace_total);
        trace::print_report(&rows);
        write_report("BENCH_trace.json", &trace::to_json(&rows, trace_total));
    }

    if want_profile {
        let profile_total = if quick { 400_000 } else { 1_000_000 };
        let rows = profile::profile_section(profile_total);
        let churn = profile::churn_sweep();
        profile::print_report(&rows, &churn);
        write_report(
            "BENCH_profile.json",
            &profile::to_json(&rows, &churn, profile_total),
        );

        let points = scale::scale_sweep();
        scale::print_report(&points);
        write_report("BENCH_demux_scale.json", &scale::to_json(&points));
    }
}
