//! `unp-bench` — benchmark harness and paper-table reproduction.
//!
//! * `cargo run -p unp-bench --release --bin repro-tables` regenerates
//!   every table of the paper's §4 (plus the Figure 1 organization sweep
//!   and the ablation studies) on the simulated testbed.
//! * `cargo bench -p unp-bench` runs the Criterion micro-benchmarks over
//!   the real hot-path code (checksum, filter VMs, timing wheel, TCP
//!   segment processing) on the host machine.

pub mod causal;
pub mod demux;
pub mod isolation;
pub mod monitor;
pub mod profile;
pub mod scale;
pub mod tables;
pub mod timings;
pub mod trace;

use unp_trace::json::Value;

/// A gate's check on the report it writes: the top-level number `key`
/// must be exactly `want`. The error names what the report holds.
pub fn require(report: &Value, key: &str, want: f64) -> Result<(), String> {
    match report.get(key) {
        Some(Value::Num(n)) if *n == want => Ok(()),
        got => Err(format!(
            "report field {key} is {}, want {want}",
            got.map_or("missing".into(), Value::render)
        )),
    }
}
