#!/usr/bin/env bash
# Continuous-integration gate. Run from the repo root:
#   ./ci.sh
#
# Order matters: the cheap style gates fail fast before the build, and the
# tier-1 gate (release build + full test suite) runs last.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (whole workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

# The host-time benchmark is a package of its own outside the workspace,
# built against the crates' public APIs: building and testing it here
# means a deletion from those APIs cannot break it unnoticed.
echo "== perfbench builds and its tests pass (release) =="
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# The two invariants the fast paths stand on, run explicitly (and in
# release, matching how the artifacts are produced): the zero-copy frame
# path must keep the golden pcap byte-identical, and the flow-table demux
# must be indistinguishable from the linear filter scan. The journal
# determinism tests join them: two identical runs must produce
# byte-identical journals, and every delivered frame's lifecycle must
# reconstruct by frame id.
echo "== tier-1: zero-copy golden pcap + demux differential + journal (release) =="
cargo test -q --release --offline --test zero_copy --test demux_differential --test journal

# The profiler's join discipline must hold in release mode too: every
# delivered frame's stage components sum exactly to its end-to-end span,
# with fault-duplicated ids and checksum discards in the journal.
echo "== profiler joins + windowed telemetry (release) =="
cargo test -q --release --offline --test profile

# The fault soak: seeded drop/dup/reorder/corrupt/outage schedules plus a
# mid-transfer application crash per world, with the differential oracle
# (surviving streams byte-exact, failures clean) and the zero-leak sweep.
# Fixed seeds inside the test make this deterministic; release mode
# matches how the long multi-host worlds are meant to run.
echo "== fault soak (seeded, release) =="
cargo test -q --release --offline --test fault_soak

# The dashboard runs end to end: every section prints, the journal feeds
# the profiler, and the conformance monitor riding the lossy multi-tenant
# workload must flag nothing (the example asserts it).
echo "== unp_top dashboard (zero monitor violations) =="
cargo run --release --offline -q --example unp_top > /dev/null

# The reproduced tables are the project's ground truth: any diff against
# the committed golden output — including from a demux or buffering
# "optimization" — is a regression, not an update, unless reviewed.
echo "== repro-tables output vs. golden tables_output.txt =="
cargo run -q -p unp-bench --release --offline --bin repro-tables > /tmp/unp_tables_output.txt
diff -u tables_output.txt /tmp/unp_tables_output.txt \
  || { echo "repro-tables output diverged from golden tables_output.txt"; exit 1; }

# Perf-regression gate: re-run the quick profiled workload and compare
# the per-stage latency means against the committed baseline. A stage
# mean more than 5% above the baseline fails; more than 5% below prints
# a warning (refresh the baseline with --profile-baseline if reviewed).
# The simulation is deterministic, so the band absorbs cost-model edits,
# not noise.
echo "== profile perf gate vs. BENCH_profile_baseline.json =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- \
  --profile-gate BENCH_profile_baseline.json

# Causal-attribution gate: the seeded faulty Table-2 workload joins
# into the cross-host causal graph; the injected fault schedule is the
# oracle, so every retransmit must be attributed (coverage exactly 1.0)
# and every lost data frame claimed exactly once or superseded, and the
# Chrome trace export must match the pinned golden byte-for-byte
# (refresh with --explain-baseline after a reviewed change). The gate
# writes BENCH_causal.json and requires the attribution_coverage it
# reports to be exactly 1.
echo "== causal attribution gate (fault-plan oracle + golden chrome trace) =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- --explain-gate

# Churn-scaling gate: channel activate/teardown is maintained
# incrementally (O(log N) per event), so a create→activate→destroy cycle
# at 4096 channels must stay within a constant factor of the same cycle
# at 64 channels. A regression to the old O(N) rebuild-per-event shows up
# as a ~50x ratio and fails the bound.
echo "== demux churn-scaling gate (4096 vs 64 channels) =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- --churn-gate

# Multi-tenant isolation gate: three innocent tenants stream while a
# budgeted byzantine tenant floods rings, burns transmit credit, replays
# revoked capabilities, and crashes wedged. Innocent streams must stay
# byte-exact inside the throughput/latency envelope of a
# hostile-disabled baseline of the same seed, every quota drop must be
# causally attributed to the hostile tenant, and nothing may leak after
# the wedged crash. Writes BENCH_isolation.json and requires the
# quota_drops_misattributed it reports to be 0.
echo "== multi-tenant isolation gate (byzantine tenant vs quota envelope) =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- --isolation-gate

# Conformance-monitor gate: the streaming checkers run over the golden
# workloads (lossy causal replay, clean transfer, live attach) and must
# flag nothing — every predicate is one-sided, no stricter than the
# stack's own. Soundness the other way: the seeded mutation harness must
# catch all 8 bug classes, the monitor's overhead on the live workload
# must stay under the bound, and the monitored 8→10^6-channel sweep
# proves O(touched-state) memory. Writes BENCH_monitor.json and requires
# the golden_violations it reports to be 0.
echo "== conformance monitor gate (golden zero-violation + mutation coverage) =="
cargo run -q -p unp-bench --release --offline --bin repro-tables -- --monitor-gate

echo "CI gate passed."
