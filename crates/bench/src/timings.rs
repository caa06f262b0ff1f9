//! `--timings` mode: wall-clock and allocation accounting for the table
//! reproductions.
//!
//! The paper tables report *simulated* 1993 time; this module reports what
//! the reproduction itself costs to run — wall-clock per table, discrete
//! events executed, and the zero-copy frame path's allocation behaviour
//! (fresh heap buffers vs. pool-recycled ones, bytes memcpy'd). It also
//! runs the Table-2 bulk workload twice, with the frame pool enabled and
//! disabled, to measure what the freelist saves; the results land in
//! `BENCH_zero_copy.json` so successive commits can be compared.

use std::rc::Rc;
use std::time::Instant;

use unp_buffers::{frame_stats, reset_frame_stats, FramePool, FrameStats};
use unp_core::world::{connect, listen};
use unp_core::{build_two_hosts, BulkSender, Network, OrgKind, SinkApp, TransferStats};
use unp_tcp::TcpConfig;
use unp_trace::json::Value;
use unp_wire::Ipv4Addr;

/// One timed table reproduction.
pub struct Timing {
    pub name: &'static str,
    pub wall_ms: f64,
    pub events: u64,
    pub stats: FrameStats,
}

/// Runs `f` with the frame and event counters zeroed, returning what it
/// spent.
pub fn timed(name: &'static str, f: impl FnOnce()) -> Timing {
    reset_frame_stats();
    unp_sim::reset_events_executed();
    let t0 = Instant::now();
    f();
    Timing {
        name,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        events: unp_sim::events_executed(),
        stats: frame_stats(),
    }
}

/// One side of the pooled-vs-unpooled comparison.
pub struct PoolRun {
    pub throughput_mbps: f64,
    pub stats: FrameStats,
}

/// Frame-pool ablation on the reproduction itself: the Table-2 bulk
/// workload (user-library organization, Ethernet) with the pool recycling
/// buffers vs. every allocation fresh.
pub struct PoolComparison {
    pub user_packet: usize,
    pub total_bytes: u64,
    pub pooled: PoolRun,
    pub unpooled: PoolRun,
}

impl PoolComparison {
    /// Heap allocations per delivered frame, pooled path.
    pub fn pooled_allocs_per_frame(&self) -> f64 {
        allocs_per_frame(&self.pooled.stats)
    }

    /// Heap allocations per delivered frame, pool disabled.
    pub fn unpooled_allocs_per_frame(&self) -> f64 {
        allocs_per_frame(&self.unpooled.stats)
    }

    /// How many times fewer heap allocations the pool makes per frame.
    pub fn alloc_reduction_factor(&self) -> f64 {
        self.unpooled_allocs_per_frame() / self.pooled_allocs_per_frame()
    }
}

fn allocs_per_frame(s: &FrameStats) -> f64 {
    let frames = s.frames_fresh + s.frames_recycled;
    if frames == 0 {
        return 0.0;
    }
    s.frames_fresh as f64 / frames as f64
}

/// Runs the Table-2 bulk transfer once, with the given pool policy, and
/// returns throughput plus the frame counters for the steady-state run
/// (world construction excluded).
fn table2_bulk(user_packet: usize, total: u64, pooled: bool) -> PoolRun {
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    if !pooled {
        w.pool = FramePool::disabled(w.pool.buf_size());
    }
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
    reset_frame_stats();
    assert!(eng.run(&mut w, 50_000_000), "bulk run did not drain");
    let frame_counters = frame_stats();
    let s = stats.borrow();
    assert_eq!(s.bytes_received, total, "transfer incomplete");
    PoolRun {
        throughput_mbps: s.throughput_bps().expect("bytes moved") / 1e6,
        stats: frame_counters,
    }
}

/// Runs the pooled-vs-unpooled ablation.
pub fn pool_comparison(user_packet: usize, total_bytes: u64) -> PoolComparison {
    PoolComparison {
        user_packet,
        total_bytes,
        pooled: table2_bulk(user_packet, total_bytes, true),
        unpooled: table2_bulk(user_packet, total_bytes, false),
    }
}

/// Prints the timings report.
pub fn print_report(timings: &[Timing], cmp: &PoolComparison) {
    println!("== Timings: reproduction runtime (host wall-clock) ==");
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10} {:>8} {:>12}",
        "table", "wall (ms)", "events", "fresh", "recycled", "cow", "bytes copied"
    );
    for t in timings {
        println!(
            "{:<12} {:>10.1} {:>12} {:>10} {:>10} {:>8} {:>12}",
            t.name,
            t.wall_ms,
            t.events,
            t.stats.frames_fresh,
            t.stats.frames_recycled,
            t.stats.cow_copies,
            t.stats.bytes_copied
        );
    }
    println!();
    println!(
        "== Frame pool ablation: Table-2 bulk workload ({} B writes, {} B total) ==",
        cmp.user_packet, cmp.total_bytes
    );
    for (label, run) in [("pooled", &cmp.pooled), ("pool disabled", &cmp.unpooled)] {
        println!(
            "  {label:<14} {:>7.1} Mb/s   {:>7} fresh  {:>7} recycled  ({:.3} heap allocs/frame)",
            run.throughput_mbps,
            run.stats.frames_fresh,
            run.stats.frames_recycled,
            allocs_per_frame(&run.stats)
        );
    }
    println!(
        "  pool cuts heap allocations {:.1}x per delivered frame",
        cmp.alloc_reduction_factor()
    );
    println!();
}

fn stats_json(s: &FrameStats) -> Value {
    Value::obj([
        ("frames_fresh", s.frames_fresh.into()),
        ("frames_recycled", s.frames_recycled.into()),
        ("cow_copies", s.cow_copies.into()),
        ("bytes_copied", s.bytes_copied.into()),
    ])
}

/// The report as a JSON value — `BENCH_zero_copy.json`.
pub fn to_json(timings: &[Timing], cmp: &PoolComparison) -> Value {
    let table = |t: &Timing| {
        Value::obj([
            ("name", t.name.into()),
            ("wall_ms", t.wall_ms.into()),
            ("events", t.events.into()),
            ("frames", stats_json(&t.stats)),
        ])
    };
    let run = |r: &PoolRun| {
        Value::obj([
            ("throughput_mbps", r.throughput_mbps.into()),
            ("frames", stats_json(&r.stats)),
        ])
    };
    let workload = Value::obj([
        ("table", 2u64.into()),
        ("user_packet", cmp.user_packet.into()),
        ("total_bytes", cmp.total_bytes.into()),
    ]);
    let comparison = Value::obj([
        ("workload", workload),
        ("pooled", run(&cmp.pooled)),
        ("unpooled", run(&cmp.unpooled)),
        (
            "pooled_allocs_per_frame",
            cmp.pooled_allocs_per_frame().into(),
        ),
        (
            "unpooled_allocs_per_frame",
            cmp.unpooled_allocs_per_frame().into(),
        ),
        (
            "alloc_reduction_factor",
            cmp.alloc_reduction_factor().into(),
        ),
    ]);
    Value::obj([
        ("benchmark", "zero_copy_frame_path".into()),
        ("tables", timings.iter().map(table).collect()),
        ("pool_comparison", comparison),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_trace::json::parse;

    #[test]
    fn pool_halves_allocations_on_bulk_workload() {
        // The tentpole's acceptance bar: >= 2x fewer heap allocations per
        // delivered frame with the pool on, same throughput result.
        let cmp = pool_comparison(4096, 200_000);
        assert!(
            cmp.alloc_reduction_factor() >= 2.0,
            "pool saved only {:.2}x (pooled {:.4} vs unpooled {:.4} allocs/frame)",
            cmp.alloc_reduction_factor(),
            cmp.pooled_allocs_per_frame(),
            cmp.unpooled_allocs_per_frame()
        );
        assert!(
            (cmp.pooled.throughput_mbps - cmp.unpooled.throughput_mbps).abs() < 1e-9,
            "pooling must not change simulation results"
        );
    }

    #[test]
    fn json_is_shaped() {
        let t = vec![Timing {
            name: "table2",
            wall_ms: 1.5,
            events: 42,
            stats: FrameStats::default(),
        }];
        let cmp = pool_comparison(1024, 50_000);
        let v = parse(&to_json(&t, &cmp).render()).expect("report parses");
        assert_eq!(
            v.get("pool_comparison")
                .and_then(|c| c.get("alloc_reduction_factor"))
                .and_then(Value::as_f64),
            Some(cmp.alloc_reduction_factor())
        );
    }
}
