//! `--explain` mode: the seeded faulty Table-2 workload joined into a
//! cross-host [`CausalGraph`], with the fault-plan oracle cross-check.
//!
//! One bulk transfer runs under a fixed [`FaultPlan::lossy`] schedule
//! with the journal recording; the journal joins into per-frame
//! journeys, every retransmit gets a root cause, and — because the
//! injected schedule is known — the attribution layer is checkable
//! against ground truth:
//!
//! * every retransmit's cause must be established (coverage 1.0), and
//! * every lost data-carrying frame must be claimed by exactly one
//!   attribution, or superseded by a redundant delivery of its range.
//!
//! `repro-tables --explain [f<id> | <port>]` prints the postmortem for
//! one frame or one connection (summary when no target is given).
//! `--explain-gate` is the CI surface: it runs the oracle check, writes
//! `BENCH_causal.json`, requires the coverage it reports to be 1, and
//! diffs the Chrome trace export against the
//! pinned golden `tests/golden/causal_trace.json` (regenerate with
//! `--explain-baseline` after a reviewed change). The workload is
//! deterministic, so the golden is byte-exact.

use std::rc::Rc;

use unp_core::faults::FaultPlan;
use unp_core::world::{connect, install_faults, listen};
use unp_core::{build_two_hosts, BulkSender, Network, OrgKind, SinkApp, TransferStats};
use unp_tcp::TcpConfig;
use unp_trace::causal::{CausalGraph, JourneyFate};
use unp_trace::json::Value;
use unp_wire::Ipv4Addr;

/// Transfer size of the seeded workload. Small on purpose: the gate's
/// golden Chrome trace pins every journey of this exact run.
pub const CAUSAL_TOTAL: u64 = 60_000;
/// User packet size (one MSS per write).
pub const CAUSAL_PACKET: usize = 1460;
/// Fault-plan RNG seed.
pub const CAUSAL_SEED: u64 = 11;
/// Per-frame drop probability (dup/corrupt/reorder at half that — see
/// [`FaultPlan::lossy`]).
pub const CAUSAL_LOSS: f64 = 0.05;

/// Where the pinned Chrome trace golden lives (repo-root relative, like
/// `tables_output.txt` — the gate runs from the repo root).
pub const GOLDEN_TRACE: &str = "tests/golden/causal_trace.json";

/// Runs the seeded faulty Table-2 workload with the journal recording
/// and returns the raw records — the causal graph builds from them here,
/// and the conformance monitor replays and mutates them in
/// [`crate::monitor`]. Panics if the transfer fails to complete.
pub fn lossy_journal() -> Vec<unp_trace::Record> {
    unp_trace::journal_start();
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let mut cfg = TcpConfig::bulk_transfer();
    cfg.mss_local = CAUSAL_PACKET.min(1460);
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
        Box::new(BulkSender::new(CAUSAL_TOTAL, CAUSAL_PACKET)),
        CAUSAL_PACKET,
    );
    install_faults(&mut w, &mut eng, FaultPlan::lossy(CAUSAL_SEED, CAUSAL_LOSS));
    assert!(eng.run(&mut w, 2_000_000_000), "causal run did not drain");
    let records = unp_trace::journal_stop();
    assert_eq!(
        stats.borrow().bytes_received,
        CAUSAL_TOTAL,
        "lossy transfer incomplete"
    );
    records
}

/// Runs the seeded faulty Table-2 workload and joins the journal into a
/// causal graph. Panics if the transfer fails to complete or the
/// latency-split invariant breaks — both would invalidate the report.
pub fn causal_section() -> CausalGraph {
    let records = lossy_journal();
    let graph = CausalGraph::build(&records);
    graph
        .check_consistency()
        .expect("latency splits must telescope to end-to-end");
    graph
}

/// The fault-plan oracle: with the injected schedule as ground truth,
/// attribution must be total (coverage 1.0) and every lost data frame
/// claimed exactly once or redundantly delivered.
pub fn oracle_check(graph: &CausalGraph) -> Result<(), String> {
    if graph.coverage() < 1.0 {
        let missing: Vec<String> = graph
            .rexmits
            .iter()
            .filter(|a| !a.cause.is_attributed())
            .map(|a| format!("t={} seq={}", a.t, a.seq))
            .collect();
        return Err(format!(
            "attribution coverage {:.3} < 1.0 (unattributed: {})",
            graph.coverage(),
            missing.join(", ")
        ));
    }
    let claims = graph.claims();
    for (j, loss) in graph.losses() {
        let Some(s) = &j.seg else { continue };
        if s.payload == 0 {
            // A lost pure ACK only matters if it stalled the peer — then
            // it is claimed as an AckLoss; otherwise a later cumulative
            // ACK covered it and there is nothing to attribute.
            continue;
        }
        match claims.get(&j.frame).copied().unwrap_or(0) {
            1 => {}
            0 if graph.superseded(j) => {}
            n => {
                return Err(format!(
                    "lost data frame f{} ({}) claimed by {n} attributions, want 1",
                    j.frame,
                    loss.label()
                ));
            }
        }
    }
    Ok(())
}

/// Counts losses that needed no retransmit because another transmission
/// of the range arrived (the reorder+drop corner the oracle allows).
pub fn superseded_count(graph: &CausalGraph) -> usize {
    let claims = graph.claims();
    graph
        .losses()
        .filter(|(j, _)| {
            j.seg.as_ref().is_some_and(|s| s.payload > 0)
                && claims.get(&j.frame).copied().unwrap_or(0) == 0
                && graph.superseded(j)
        })
        .count()
}

/// Prints the postmortem for `target`: `f<id>` explains one frame,
/// `<port>` one connection, nothing the whole-run summary plus the
/// data connection.
pub fn print_explain(graph: &CausalGraph, target: Option<&str>) {
    match target {
        Some(t) if t.starts_with('f') => match t[1..].parse::<u64>() {
            Ok(frame) => print!("{}", graph.explain_frame(frame)),
            Err(_) => eprintln!("--explain: bad frame id {t:?} (want f<number>)"),
        },
        Some(t) => match t.trim_start_matches(':').parse::<u16>() {
            Ok(port) => print!("{}", graph.explain_conn(port)),
            Err(_) => eprintln!("--explain: bad target {t:?} (want f<frame> or <port>)"),
        },
        None => {
            print!("{}", graph.summary());
            println!();
            print!("{}", graph.explain_conn(80));
        }
    }
}

/// The seeded workload's parameters, as the causal and monitor reports
/// record them.
pub fn workload_json() -> Value {
    Value::obj([
        ("table", 2u64.into()),
        ("org", "user_library".into()),
        ("total_bytes", CAUSAL_TOTAL.into()),
        ("user_packet", CAUSAL_PACKET.into()),
        ("seed", CAUSAL_SEED.into()),
        ("loss", CAUSAL_LOSS.into()),
    ])
}

/// The run as a JSON value — `BENCH_causal.json`: workload parameters,
/// journey fates, attribution coverage, and per-cause/per-loss counts.
pub fn to_json(graph: &CausalGraph) -> Value {
    let fates = |fate| graph.journeys.iter().filter(|j| j.fate == fate).count();
    let counts = |c: Vec<(&str, usize)>| Value::obj(c.into_iter().map(|(k, n)| (k, n.into())));
    Value::obj([
        ("benchmark", "causal_attribution".into()),
        ("workload", workload_json()),
        (
            "journeys",
            Value::obj([
                ("total", graph.journeys.len().into()),
                ("arrived", fates(JourneyFate::Arrived).into()),
                ("lost", graph.losses().count().into()),
                ("in_flight", fates(JourneyFate::InFlight).into()),
            ]),
        ),
        ("rexmits", graph.rexmits.len().into()),
        ("attribution_coverage", graph.coverage().into()),
        ("superseded_losses", superseded_count(graph).into()),
        ("causes", counts(graph.cause_counts())),
        ("losses", counts(graph.loss_counts())),
    ])
}

/// The CI gate (`--explain-gate`): the `BENCH_causal.json` report and
/// the verdict — oracle check, full attribution coverage as the report
/// states it, golden Chrome trace diff. Ok holds the lines to print.
pub fn gate() -> (Value, Result<Vec<String>, String>) {
    let graph = causal_section();
    let report = to_json(&graph);
    let verdict = gate_verdict(&graph, &report);
    (report, verdict)
}

fn gate_verdict(graph: &CausalGraph, report: &Value) -> Result<Vec<String>, String> {
    oracle_check(graph)?;
    if graph.rexmits.is_empty() || graph.losses().next().is_none() {
        return Err("seeded plan injected no loss — the oracle checked nothing".into());
    }
    crate::require(report, "attribution_coverage", 1.0)?;
    let trace = graph.render_chrome_trace();
    unp_trace::json::parse(&trace).map_err(|e| format!("chrome trace is not valid JSON: {e}"))?;
    let golden = std::fs::read_to_string(GOLDEN_TRACE)
        .map_err(|e| format!("read {GOLDEN_TRACE}: {e} (regenerate with --explain-baseline)"))?;
    if trace != golden {
        return Err(format!(
            "chrome trace diverged from {GOLDEN_TRACE} ({} vs {} bytes) — review, then refresh with --explain-baseline",
            trace.len(),
            golden.len()
        ));
    }
    Ok(vec![
        format!(
            "causal gate: {} journeys, {} rexmits, {} losses, coverage {:.0}%",
            graph.journeys.len(),
            graph.rexmits.len(),
            graph.losses().count(),
            graph.coverage() * 100.0
        ),
        format!("causal gate: chrome trace matches {GOLDEN_TRACE}"),
    ])
}

/// `--explain-baseline`: the `BENCH_causal.json` report, and the golden
/// Chrome trace regenerated — still oracle-checked, so a broken run
/// can't become the pin.
pub fn baseline() -> (Value, Result<Vec<String>, String>) {
    let graph = causal_section();
    let verdict = oracle_check(&graph).and_then(|()| {
        std::fs::write(GOLDEN_TRACE, graph.render_chrome_trace())
            .map_err(|e| format!("write {GOLDEN_TRACE}: {e}"))?;
        Ok(vec![format!("wrote {GOLDEN_TRACE}")])
    });
    (to_json(&graph), verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_run_passes_its_own_oracle() {
        let graph = causal_section();
        assert!(
            graph.losses().next().is_some(),
            "the seeded plan must inject at least one loss"
        );
        assert!(!graph.rexmits.is_empty(), "losses must force retransmits");
        oracle_check(&graph).expect("fault-plan oracle");
        let v = unp_trace::json::parse(&to_json(&graph).render()).expect("report parses");
        assert_eq!(crate::require(&v, "attribution_coverage", 1.0), Ok(()));
    }
}
