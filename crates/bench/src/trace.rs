//! `--trace` mode: journal-driven latency breakdown of the user-library
//! receive path, cross-checked against the cost model.
//!
//! The reproduced tables are built from *modeled* costs: every hop of a
//! received frame (demux, ring placement, semaphore wakeup, protocol
//! processing) charges a constant from [`CostModel`]. The journal records
//! the same hops as timestamped events, so joining a frame's records by id
//! reconstructs the latency the model actually produced — and the two must
//! agree. Concretely:
//!
//! * A **signaled** delivery schedules the library wakeup at interrupt
//!   priority, which preempts rather than queues, so the span from
//!   `ring_enqueue(signal=true)` to the `wakeup_batch` that consumed the
//!   frame equals `demux + ring_op + semaphore_signal + wakeup_resched +
//!   thread_switch` *exactly* — unless a still-running library thread's
//!   batch continuation scooped the frame out of the ring first, in which
//!   case the span is strictly *shorter* (the batching win). A span can
//!   never exceed the model.
//! * Per-frame protocol processing is charged at normal priority and can
//!   queue behind other work (ACK transmission shares the CPU), so the
//!   span from a frame's batch becoming runnable to its `tcp_segment(rx)`
//!   record is bounded below by the modeled per-frame cost; the minimum
//!   observed span approaches the model on an otherwise idle CPU.
//!
//! `repro-tables --trace` runs the Table-2 bulk workload per user packet
//! size with the journal recording, prints the breakdown, asserts the
//! invariants above, and writes `BENCH_trace.json`.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use unp_core::world::{connect, listen};
use unp_core::{build_two_hosts, BulkSender, Network, OrgKind, SinkApp, TransferStats};
use unp_sim::{CostModel, DemuxPath, Nanos};
use unp_tcp::TcpConfig;
use unp_trace::json::Value;
use unp_trace::{Dir, Event, Record};
use unp_wire::Ipv4Addr;

use crate::tables::T2_SIZES;

/// Summary of one span population (simulated nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub min: Nanos,
    pub max: Nanos,
    sum: u128,
}

impl SpanStats {
    fn push(&mut self, v: Nanos) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.sum += v as u128;
        self.count += 1;
    }

    /// Arithmetic mean, or 0 for an empty population.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The journal join for one Table-2 run.
pub struct TraceRow {
    /// Application write size (the table column).
    pub user_packet: usize,
    /// Frames placed into connection rings.
    pub ring_enqueues: u64,
    /// Enqueues that posted a semaphore.
    pub signaled: u64,
    /// Enqueues batched behind a pending notification.
    pub batched: u64,
    /// ring_enqueue(signal) → consuming wakeup_batch spans.
    pub wakeup: SpanStats,
    /// Wakeup spans exactly equal to the modeled cost.
    pub wakeup_model_matches: u64,
    /// Signaled frames a running library thread consumed before their own
    /// semaphore wakeup fired (span < model).
    pub wakeup_scooped: u64,
    /// Wakeup spans exceeding the model — must always be zero.
    pub wakeup_over_model: u64,
    /// Batch-runnable → tcp_segment(rx) spans, one per processed frame.
    pub proc: SpanStats,
    /// Modeled per-frame processing cost at the workload's full frame
    /// size (the dominant population in a bulk transfer).
    pub proc_model: Nanos,
    /// Processing spans at or above their frame's modeled cost.
    pub proc_ge_model: u64,
    /// Bytes the journal saw cross into the application.
    pub app_bytes: u64,
}

/// Modeled signaled-wakeup latency for a software delivery whose filter
/// scan executed `instrs` instructions.
pub fn wakeup_model(c: &CostModel, instrs: usize) -> Nanos {
    c.demux_cost(DemuxPath::FilterScan, instrs)
        + c.ring_op
        + c.semaphore_signal
        + c.wakeup_resched
        + c.thread_switch
}

/// Modeled per-frame library receive cost for `wire` bytes past the link
/// header on the Ethernet (software demux) path.
fn proc_model(c: &CostModel, wire: usize) -> Nanos {
    c.tcp_per_segment
        + c.ip_per_packet
        + c.checksum(wire)
        + c.library_call
        + c.lib_upcall_sync
        + c.lib_sw_rx_per_byte * wire as Nanos
}

/// Joins one run's journal into a [`TraceRow`].
pub fn analyze(user_packet: usize, records: &[Record], costs: &CostModel) -> TraceRow {
    let mut row = TraceRow {
        user_packet,
        ring_enqueues: 0,
        signaled: 0,
        batched: 0,
        wakeup: SpanStats::default(),
        wakeup_model_matches: 0,
        wakeup_scooped: 0,
        wakeup_over_model: 0,
        proc: SpanStats::default(),
        proc_model: proc_model(costs, 40 + user_packet.min(1460)),
        proc_ge_model: 0,
        app_bytes: 0,
    };
    // Per-frame scan length, from demux_classify.
    let mut instrs: HashMap<u64, usize> = HashMap::new();
    // Signaled enqueues awaiting the wakeup that consumes them.
    let mut pending_signal: HashMap<u64, Nanos> = HashMap::new();
    // Ring order per (host, channel) — channel ids are only unique within
    // one host's net I/O module — to attribute frames to batches.
    let mut ring: HashMap<(u16, u32), VecDeque<u64>> = HashMap::new();
    // Frame → owning (host, channel), and channel → time its batch
    // processor became free (wakeup, or the previous frame's completion).
    let mut frame_chan: HashMap<u64, (u16, u32)> = HashMap::new();
    let mut cursor: HashMap<(u16, u32), Nanos> = HashMap::new();
    for r in records {
        match &r.event {
            Event::DemuxClassify {
                filter_instrs,
                matched: true,
                ..
            } => {
                if let Some(f) = r.frame {
                    instrs.insert(f, *filter_instrs as usize);
                }
            }
            Event::RingEnqueue {
                channel, signal, ..
            } => {
                row.ring_enqueues += 1;
                let f = r.frame.expect("ring_enqueue carries its frame");
                let key = (r.host.expect("ring_enqueue carries its host"), *channel);
                ring.entry(key).or_default().push_back(f);
                frame_chan.insert(f, key);
                if *signal {
                    row.signaled += 1;
                    pending_signal.insert(f, r.time);
                } else {
                    row.batched += 1;
                }
            }
            Event::WakeupBatch { channel, frames } => {
                // This wakeup consumed the oldest `frames` ring entries.
                let key = (r.host.expect("wakeup_batch carries its host"), *channel);
                let fifo = ring.entry(key).or_default();
                for _ in 0..*frames {
                    let Some(f) = fifo.pop_front() else { break };
                    let Some(t0) = pending_signal.remove(&f) else {
                        continue; // batched frame: no signal span to close
                    };
                    let span = r.time - t0;
                    row.wakeup.push(span);
                    let model = wakeup_model(costs, instrs.get(&f).copied().unwrap_or(0));
                    match span.cmp(&model) {
                        std::cmp::Ordering::Equal => row.wakeup_model_matches += 1,
                        std::cmp::Ordering::Less => row.wakeup_scooped += 1,
                        std::cmp::Ordering::Greater => row.wakeup_over_model += 1,
                    }
                }
                if *frames > 0 {
                    cursor.insert(key, r.time);
                }
            }
            Event::TcpSegment {
                dir: Dir::Rx, wire, ..
            } => {
                let Some(ch) = r.frame.and_then(|f| frame_chan.get(&f)).copied() else {
                    continue;
                };
                if let Some(free_at) = cursor.get(&ch).copied() {
                    let span = r.time - free_at;
                    row.proc.push(span);
                    if span >= proc_model(costs, *wire as usize) {
                        row.proc_ge_model += 1;
                    }
                    cursor.insert(ch, r.time);
                }
            }
            Event::AppDeliver { bytes, .. } => row.app_bytes += *bytes as u64,
            _ => {}
        }
    }
    row
}

/// Runs the Table-2 bulk workload once with the journal recording and
/// joins the result.
fn traced_bulk(user_packet: usize, total: u64, costs: &CostModel) -> TraceRow {
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
    assert!(eng.run(&mut w, 50_000_000), "traced run did not drain");
    let records = unp_trace::journal_stop();
    assert_eq!(stats.borrow().bytes_received, total, "transfer incomplete");
    analyze(user_packet, &records, costs)
}

/// Runs the traced Table-2 sweep.
pub fn trace_section(total: u64) -> Vec<TraceRow> {
    let costs = CostModel::calibrated_1993();
    T2_SIZES
        .iter()
        .map(|&size| traced_bulk(size, total, &costs))
        .collect()
}

/// Prints the breakdown and asserts the model cross-checks.
pub fn print_report(rows: &[TraceRow]) {
    println!("== Trace: journaled receive-path latency vs the cost model ==");
    println!("   (Table-2 bulk workload, user-library org, Ethernet)");
    println!(
        "{:<8} {:>8} {:>9} {:>8} {:>28} {:>30}",
        "pkt (B)",
        "enqueue",
        "signaled",
        "batched",
        "wakeup ns (exact+scooped)",
        "proc ns (model/min/mean)"
    );
    for r in rows {
        println!(
            "{:<8} {:>8} {:>9} {:>8} {:>13} ({:>4}+{:<3}/{:<4}) {:>10} /{:>8} /{:>9.0}",
            r.user_packet,
            r.ring_enqueues,
            r.signaled,
            r.batched,
            r.wakeup.mean().round() as u64,
            r.wakeup_model_matches,
            r.wakeup_scooped,
            r.wakeup.count,
            r.proc_model,
            r.proc.min,
            r.proc.mean(),
        );
        assert_eq!(
            r.wakeup_over_model, 0,
            "a signaled wakeup span can never exceed the modeled cost"
        );
        assert_eq!(
            r.wakeup_model_matches + r.wakeup_scooped,
            r.wakeup.count,
            "every signaled span is either exact or scooped early"
        );
        assert_eq!(
            r.proc_ge_model, r.proc.count,
            "a frame cannot be processed faster than the model charges"
        );
    }
    println!("  every signaled wakeup span == modeled demux+ring+signal+resched+switch,");
    println!("  except frames a running batch continuation consumed early (scooped)");
    println!("  every per-frame processing span >= modeled tcp+ip+checksum+upcall cost");
    println!();
}

/// The rows as a JSON value — `BENCH_trace.json`.
pub fn to_json(rows: &[TraceRow], total: u64) -> Value {
    let span = |s: &SpanStats, [a, b]: [(&str, Value); 2]| {
        Value::obj([
            ("count", s.count.into()),
            a,
            b,
            ("min_ns", s.min.into()),
            ("mean_ns", s.mean().into()),
            ("max_ns", s.max.into()),
        ])
    };
    let row = |r: &TraceRow| {
        let wakeup = [
            ("model_matches", r.wakeup_model_matches.into()),
            ("scooped", r.wakeup_scooped.into()),
        ];
        let proc = [
            ("model_full_ns", r.proc_model.into()),
            ("ge_model", r.proc_ge_model.into()),
        ];
        Value::obj([
            ("user_packet", r.user_packet.into()),
            ("ring_enqueues", r.ring_enqueues.into()),
            ("signaled", r.signaled.into()),
            ("batched", r.batched.into()),
            ("wakeup", span(&r.wakeup, wakeup)),
            ("proc", span(&r.proc, proc)),
            ("app_bytes", r.app_bytes.into()),
        ])
    };
    Value::obj([
        ("benchmark", "packet_lifecycle_trace".into()),
        ("workload", table2_workload(total)),
        ("rows", rows.iter().map(row).collect()),
    ])
}

/// The `workload` block shared by the trace and profile reports: the
/// Table-2 bulk transfer, user-library organization over Ethernet.
pub fn table2_workload(total: u64) -> Value {
    Value::obj([
        ("table", 2u64.into()),
        ("org", "user_library".into()),
        ("network", "ethernet".into()),
        ("total_bytes", total.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_trace::json::parse;

    #[test]
    fn traced_run_matches_the_model() {
        let costs = CostModel::calibrated_1993();
        let row = traced_bulk(4096, 200_000, &costs);
        assert_eq!(row.app_bytes, 200_000, "journal missed app deliveries");
        assert!(row.signaled > 0 && row.batched > 0, "both paths exercised");
        assert_eq!(row.wakeup_over_model, 0, "span exceeded the model");
        assert_eq!(
            row.wakeup_model_matches + row.wakeup_scooped,
            row.wakeup.count
        );
        assert!(
            row.wakeup_model_matches * 10 >= row.wakeup.count * 9,
            "exact matches must dominate: {} exact of {}",
            row.wakeup_model_matches,
            row.wakeup.count
        );
        assert_eq!(row.proc_ge_model, row.proc.count);
        // The smallest span in the population is a pure ACK (40-byte
        // segment) on the sender side; it still pays that frame's model.
        assert!(row.proc.min >= proc_model(&costs, 40), "min span sane");
    }

    #[test]
    fn json_is_shaped() {
        let rows = trace_section(100_000);
        let v = parse(&to_json(&rows, 100_000).render()).expect("report parses");
        assert_eq!(
            v.get("rows").and_then(Value::items).map(<[_]>::len),
            Some(rows.len())
        );
    }
}
