//! `--profile` mode: journal-driven critical-path decomposition plus the
//! channel-churn scaling sweep.
//!
//! Two halves, mirroring the two clocks in play:
//!
//! * **Stage decomposition** (simulated time, deterministic): the Table-2
//!   bulk workload runs per user packet size with the journal recording,
//!   [`unp_trace::profile::Profile::build`] joins it into per-frame
//!   [`PathTrace`](unp_trace::profile::PathTrace)s, and each delivered
//!   frame's end-to-end latency is decomposed into per-stage components
//!   that sum exactly (no tolerance — sim time doesn't jitter). Signaled
//!   wakeup spans are cross-checked against the PR 3 cost model: exact,
//!   or strictly shorter when a running batch continuation scooped the
//!   frame; never longer.
//! * **Churn sweep** (host wall-clock): a module populated with N ∈
//!   {8, 64, 512, 4096} active channels, timing `rebuild_active` in
//!   isolation (the O(N) cache rebuild every activation/teardown pays),
//!   a full create→activate→destroy churn cycle (two rebuilds), and
//!   both demux tiers — the ROADMAP's "profile `rebuild_active` under
//!   churn at scale" item.
//!
//! `repro-tables --profile` prints both and writes `BENCH_profile.json`.
//! The stage means also feed the CI perf gate: `--profile-baseline`
//! writes `BENCH_profile_baseline.json` from a quick run, and
//! `--profile-gate <baseline>` re-runs the quick workload and fails on
//! regression past the tolerance band (warning on improvement, so the
//! baseline gets refreshed).

use std::rc::Rc;

use unp_buffers::OwnerTag;
use unp_core::world::{connect, listen};
use unp_core::{build_two_hosts, BulkSender, Network, OrgKind, SinkApp, TransferStats};
use unp_sim::CostModel;
use unp_tcp::TcpConfig;
use unp_trace::json::{parse, Value};
use unp_trace::profile::{PathOutcome, Profile, Stage};
use unp_wire::Ipv4Addr;

use crate::demux::{populated_module, spec_for, template_for, time_ns};
use crate::tables::T2_SIZES;
use crate::trace::{table2_workload, wakeup_model};

/// The channel counts the churn sweep visits (the ISSUE's 8→4096 span).
pub const CHURN_COUNTS: [usize; 4] = [8, 64, 512, 4096];

/// Relative tolerance of the CI perf gate.
pub const GATE_TOLERANCE: f64 = 0.05;

/// One stage-decomposition row: the profile of one Table-2 bulk run.
pub struct ProfileRow {
    /// User packet size of the workload.
    pub user_packet: usize,
    /// The joined profile.
    pub profile: Profile,
    /// Signaled wakeup spans equal to the modeled cost.
    pub wakeup_exact: u64,
    /// Signaled wakeup spans strictly under the model (batch-scooped).
    pub wakeup_scooped: u64,
    /// Signaled wakeup spans over the model — must be zero.
    pub wakeup_over: u64,
}

/// One churn-sweep point (host wall-clock nanoseconds per operation).
pub struct ChurnPoint {
    /// Active channels installed.
    pub channels: usize,
    /// One isolated `rebuild_active` pass.
    pub rebuild_ns: f64,
    /// A full create→activate→destroy cycle (two rebuilds plus flow-table
    /// insert/remove and ring setup/teardown).
    pub churn_ns: f64,
    /// Flow-table classify of a hit frame.
    pub flow_ns: f64,
    /// Linear-scan classify of the same frame (worst case: last binding).
    pub scan_ns: f64,
    /// Exact-match entries in the flow table.
    pub flow_table_len: usize,
}

/// Runs the Table-2 bulk workload with the journal recording and joins
/// the result into a [`ProfileRow`].
fn profiled_bulk(user_packet: usize, total: u64, costs: &CostModel) -> ProfileRow {
    unp_trace::journal_start();
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let stats = TransferStats::new_shared();
    let st = Rc::clone(&stats);
    let mut cfg = TcpConfig::bulk_transfer();
    cfg.mss_local = user_packet.min(1460);
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
        Box::new(BulkSender::new(total, user_packet)),
        user_packet,
    );
    assert!(eng.run(&mut w, 50_000_000), "profiled run did not drain");
    let records = unp_trace::journal_stop();
    assert_eq!(stats.borrow().bytes_received, total, "transfer incomplete");

    let profile = Profile::build(&records);
    profile
        .check_consistency()
        .expect("stage decomposition must be self-consistent");

    // Cross-check every signaled frame's ring→wakeup span against the
    // PR 3 model: exact, or strictly shorter when scooped by a running
    // batch continuation. Over the model would mean the join or the cost
    // charging is wrong.
    let (mut exact, mut scooped, mut over) = (0u64, 0u64, 0u64);
    for tr in &profile.traces {
        if tr.signaled != Some(true) {
            continue;
        }
        let (Some(ring), Some(wake)) = (tr.stage_time(Stage::Ring), tr.stage_time(Stage::Wakeup))
        else {
            continue;
        };
        let span = wake - ring;
        let model = wakeup_model(costs, tr.filter_instrs as usize);
        if span == model {
            exact += 1;
        } else if span < model {
            scooped += 1;
        } else {
            over += 1;
        }
    }
    ProfileRow {
        user_packet,
        profile,
        wakeup_exact: exact,
        wakeup_scooped: scooped,
        wakeup_over: over,
    }
}

/// Runs the profiled Table-2 sweep.
pub fn profile_section(total: u64) -> Vec<ProfileRow> {
    let costs = CostModel::calibrated_1993();
    T2_SIZES
        .iter()
        .map(|&size| profiled_bulk(size, total, &costs))
        .collect()
}

/// Runs the churn sweep.
pub fn churn_sweep() -> Vec<ChurnPoint> {
    CHURN_COUNTS
        .iter()
        .map(|&n| {
            let (mut m, frame) = populated_module(n);
            let flow_table_len = m.flow_table_len();
            // O(n) ops get fewer iterations so total sweep work stays flat.
            let on_iters = (1_000_000 / n as u64).max(100);
            let rebuild_ns = time_ns(|| m.force_rebuild_active(), on_iters, 3);
            let churn_ns = time_ns(
                || {
                    let spec = spec_for(n);
                    let (id, ..) =
                        m.create_channel(OwnerTag(1), &spec, template_for(&spec), 8, 2048);
                    m.activate(id);
                    assert!(m.destroy_channel(id, OwnerTag(1)));
                },
                on_iters,
                3,
            );
            let flow_ns = time_ns(
                || {
                    std::hint::black_box(m.classify(std::hint::black_box(&frame)));
                },
                200_000,
                3,
            );
            let scan_iters = (1_000_000 / n as u64).max(500);
            let scan_ns = time_ns(
                || {
                    std::hint::black_box(m.classify_scan_reference(std::hint::black_box(&frame)));
                },
                scan_iters,
                3,
            );
            ChurnPoint {
                channels: n,
                rebuild_ns,
                churn_ns,
                flow_ns,
                scan_ns,
                flow_table_len,
            }
        })
        .collect()
}

/// The CI-gated means: per-stage component means pooled over every row
/// (count-weighted — deterministic sim time, so these are exactly
/// reproducible for a fixed workload), plus the pooled end-to-end mean.
pub fn gate_means(rows: &[ProfileRow]) -> Vec<(&'static str, f64)> {
    let pooled = |hists: Vec<&unp_trace::Histogram>| {
        let count: u64 = hists.iter().map(|h| h.count()).sum();
        let sum: u128 = hists.iter().map(|h| h.sum()).sum();
        if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        }
    };
    let mut out = Vec::new();
    for &s in Stage::ALL.iter().skip(1) {
        out.push((
            s.label(),
            pooled(rows.iter().map(|r| &r.profile.stages[s as usize]).collect()),
        ));
    }
    out.push((
        "end_to_end",
        pooled(rows.iter().map(|r| &r.profile.end_to_end).collect()),
    ));
    out
}

/// Prints the profile report and asserts the cross-checks.
pub fn print_report(rows: &[ProfileRow], churn: &[ChurnPoint]) {
    println!("== Profile: critical-path latency decomposition (journal join) ==");
    println!("   (Table-2 bulk workload, user-library org, Ethernet; sim ns)");
    println!(
        "{:<8} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "pkt (B)",
        "delivered",
        "e2e mean",
        "demux",
        "ring",
        "wakeup",
        "tcp",
        "deliver",
        "wk ex/sc/ov"
    );
    for r in rows {
        let p = &r.profile;
        let mean = |s: Stage| p.stages[s as usize].mean().unwrap_or(0.0);
        println!(
            "{:<8} {:>9} {:>10.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>5}/{}/{}",
            r.user_packet,
            p.delivered(),
            p.end_to_end.mean().unwrap_or(0.0),
            mean(Stage::Demux),
            mean(Stage::Ring),
            mean(Stage::Wakeup),
            mean(Stage::Tcp),
            mean(Stage::Deliver),
            r.wakeup_exact,
            r.wakeup_scooped,
            r.wakeup_over,
        );
        assert_eq!(
            r.wakeup_over, 0,
            "a signaled wakeup span can never exceed the modeled cost"
        );
        assert!(p.delivered() > 0, "workload delivered nothing");
        // Outcome accounting covers every trace.
        let total: u64 = PathOutcome::ALL.iter().map(|&o| p.outcome_count(o)).sum();
        assert_eq!(total as usize, p.traces.len(), "outcome counts must tile");
    }
    println!("  per-frame stage components sum exactly to the journal end-to-end");
    println!("  latency (check_consistency); signaled wakeups match the PR 3 model");
    println!();
    println!("== Churn sweep: rebuild_active and demux tiers vs channel count ==");
    println!("   (host wall-clock ns/op; churn = create+activate+destroy)");
    println!(
        "  {:>9} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "channels", "rebuild", "churn", "flow", "scan", "flow tbl"
    );
    for c in churn {
        println!(
            "  {:>9} {:>12.1} {:>12.1} {:>10.1} {:>12.1} {:>10}",
            c.channels, c.rebuild_ns, c.churn_ns, c.flow_ns, c.scan_ns, c.flow_table_len
        );
    }
    println!();
}

/// The full profile report as a JSON value — `BENCH_profile.json`.
pub fn to_json(rows: &[ProfileRow], churn: &[ChurnPoint], total: u64) -> Value {
    let row = |r: &ProfileRow| {
        let p = &r.profile;
        let stage_means = Stage::ALL.iter().skip(1).map(|&s| {
            let mean = p.stages[s as usize].mean().unwrap_or(0.0);
            (s.label(), mean.into())
        });
        Value::obj([
            ("user_packet", r.user_packet.into()),
            ("delivered", p.delivered().into()),
            ("wakeup_exact", r.wakeup_exact.into()),
            ("wakeup_scooped", r.wakeup_scooped.into()),
            ("wakeup_over", r.wakeup_over.into()),
            ("stage_mean_ns", Value::obj(stage_means)),
            (
                "end_to_end_mean_ns",
                p.end_to_end.mean().unwrap_or(0.0).into(),
            ),
        ])
    };
    let point = |c: &ChurnPoint| {
        Value::obj([
            ("channels", c.channels.into()),
            ("rebuild_active_ns", c.rebuild_ns.into()),
            ("churn_cycle_ns", c.churn_ns.into()),
            ("flow_classify_ns", c.flow_ns.into()),
            ("scan_classify_ns", c.scan_ns.into()),
            ("flow_table_len", c.flow_table_len.into()),
        ])
    };
    Value::obj([
        ("benchmark", "critical_path_profile".into()),
        ("workload", table2_workload(total)),
        ("rows", rows.iter().map(row).collect()),
        ("churn", churn.iter().map(point).collect()),
        ("gate", gate_json(rows)),
    ])
}

fn gate_json(rows: &[ProfileRow]) -> Value {
    let means = gate_means(rows).into_iter().map(|(s, m)| (s, m.into()));
    Value::obj([("stage_mean_ns", Value::obj(means))])
}

/// The committed-baseline file: just the gated means.
pub fn baseline_json(rows: &[ProfileRow]) -> Value {
    Value::obj([("gate", gate_json(rows))])
}

/// Compares current gate means against a baseline's JSON text — a
/// baseline file or a full `BENCH_profile.json`; either way the means
/// are read from `gate.stage_mean_ns`. Returns warnings (improvements
/// past the band — refresh the baseline) or an error describing the
/// first regression past the band.
pub fn check_gate(current: &[(&'static str, f64)], baseline: &str) -> Result<Vec<String>, String> {
    let doc = parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let means = doc
        .get("gate")
        .and_then(|g| g.get("stage_mean_ns"))
        .ok_or("baseline has no gate.stage_mean_ns section")?;
    let mut warnings = Vec::new();
    for &(label, cur) in current {
        let base = means
            .get(label)
            .ok_or_else(|| format!("baseline has no entry for stage \"{label}\""))?
            .as_f64()
            .ok_or_else(|| format!("baseline value for \"{label}\" is not a number"))?;
        if base == 0.0 {
            continue;
        }
        if cur > base * (1.0 + GATE_TOLERANCE) {
            return Err(format!(
                "stage {label} regressed: {cur:.1} ns vs baseline {base:.1} ns (+{:.1}%, band {:.0}%)",
                (cur / base - 1.0) * 100.0,
                GATE_TOLERANCE * 100.0
            ));
        }
        if cur < base * (1.0 - GATE_TOLERANCE) {
            warnings.push(format!(
                "stage {label} improved: {cur:.1} ns vs baseline {base:.1} ns — refresh the committed baseline"
            ));
        }
    }
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_run_is_self_consistent() {
        let costs = CostModel::calibrated_1993();
        let r = profiled_bulk(4096, 200_000, &costs);
        let p = &r.profile;
        assert!(p.delivered() > 30, "bulk run must deliver many frames");
        assert_eq!(r.wakeup_over, 0);
        assert!(r.wakeup_exact > 0, "signaled path exercised");
        p.check_consistency().unwrap();
        // Every delivered frame decomposes exactly.
        for tr in p.traces.iter().filter(|t| t.is_complete()) {
            let sum: u64 = tr.components().iter().map(|&(_, dt)| dt).sum();
            assert_eq!(Some(sum), tr.end_to_end());
        }
        // The folded output names the stages with their qualifiers.
        let folded = p.folded();
        assert!(folded.contains("rx;tcp_segment "));
        assert!(folded.contains("rx;wakeup_batch;"));
    }

    #[test]
    fn gate_accepts_itself_and_catches_regressions() {
        let rows_means = vec![("demux_classify", 100.0), ("end_to_end", 1000.0)];
        let baseline = "{\n  \"gate\": {\"stage_mean_ns\": {\"demux_classify\": 100.0, \"end_to_end\": 1000.0}}\n}\n";
        assert!(check_gate(&rows_means, baseline).unwrap().is_empty());
        // +4% sits inside the band; +6% fails.
        let ok = vec![("demux_classify", 104.0), ("end_to_end", 1000.0)];
        assert!(check_gate(&ok, baseline).is_ok());
        let bad = vec![("demux_classify", 106.0), ("end_to_end", 1000.0)];
        assert!(check_gate(&bad, baseline).is_err());
        // -6% passes with a refresh warning.
        let faster = vec![("demux_classify", 94.0), ("end_to_end", 1000.0)];
        let warns = check_gate(&faster, baseline).unwrap();
        assert_eq!(warns.len(), 1);
        // A missing stage is an error, not a silent pass.
        assert!(check_gate(&[("ring_enqueue", 1.0)], baseline).is_err());
    }

    #[test]
    fn gate_reads_the_gate_section_of_a_full_report() {
        // A full BENCH_profile.json carries per-row stage means before
        // the gate section; only `gate.stage_mean_ns` is the baseline.
        let report = r#"{
          "rows": [{"user_packet": 512, "stage_mean_ns": {"demux_classify": 50.0, "end_to_end": 500.0}}],
          "gate": {"stage_mean_ns": {"demux_classify": 100.0, "end_to_end": 1000.0}}
        }"#;
        let means = vec![("demux_classify", 100.0), ("end_to_end", 1000.0)];
        assert_eq!(check_gate(&means, report), Ok(vec![]));
        let bad = vec![("demux_classify", 106.0), ("end_to_end", 1000.0)];
        assert!(check_gate(&bad, report).is_err());
        assert!(check_gate(&means, r#"{"rows": []}"#).is_err());
        assert!(check_gate(&means, "[[[").is_err());
    }

    #[test]
    fn churn_point_shapes() {
        // One tiny point, just to pin the API; the real sweep runs in
        // --profile.
        let (mut m, _frame) = populated_module(4);
        let before = m.flow_table_len();
        let spec = spec_for(4);
        let (id, ..) = m.create_channel(OwnerTag(1), &spec, template_for(&spec), 8, 2048);
        m.activate(id);
        assert_eq!(m.flow_table_len(), before + 1);
        assert!(m.destroy_channel(id, OwnerTag(1)));
        assert_eq!(m.flow_table_len(), before);
    }
}
