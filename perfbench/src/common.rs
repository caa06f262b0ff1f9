//! Pieces every workload shares: the seeded input generator, the
//! per-iteration result, the setup/run clock, and small statistics.

use std::time::Instant;

use unp_core::{Eng, World};

use crate::probe::Probe;

/// SplitMix64: the benchmark's only source of randomness. Every input a
/// workload generates comes from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// The seed of iteration `i` of a run seeded with `seed`: iterations of
/// one run draw distinct inputs, and the same `(seed, i)` always draws the
/// same ones.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// What a connection's application reports back to the iteration loop.
#[derive(Debug, Default)]
pub struct Slot {
    /// Host instant of the `Connected` upcall.
    pub connected: Option<Instant>,
    /// Host instant the operation's last byte arrived.
    pub done: Option<Instant>,
    pub corrupt: bool,
    pub reset: bool,
}

/// What one iteration of a workload did and how long it took.
#[derive(Debug, Default)]
pub struct Iter {
    /// Host seconds from the iteration's start until its first simulated
    /// event ran (input generation, golden parsing, world construction).
    pub setup_s: f64,
    /// Host seconds from the first simulated event to the end of the
    /// iteration's checks; every rate divides by this.
    pub run_s: f64,
    /// Application bytes delivered and verified byte-exact.
    pub payload_bytes: u64,
    /// Host microseconds of each completed transaction or transfer.
    pub op_us: Vec<f64>,
    /// Worlds built so far (`paper_tables` numbers its spans with it).
    pub worlds: u64,
    /// Operations attempted: table cells, transactions or transfers.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Iter {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Accounts one finished operation `id`, whose `connect` call was at
    /// `call`: byte-exact and not reset, or failed.
    pub fn settle(
        &mut self,
        what: &str,
        id: u64,
        call: Instant,
        bytes: u64,
        slot: &Slot,
        probe: Option<&mut Probe>,
    ) {
        self.attempted += 1;
        match slot.done {
            Some(end) if !slot.corrupt && !slot.reset => {
                self.payload_bytes += bytes;
                self.op_us.push((end - call).as_secs_f64() * 1e6);
                if let Some(p) = probe {
                    p.span("txn", id, 0, call, end);
                    if let Some(up) = slot.connected {
                        p.connected(id, call, up);
                    }
                }
            }
            _ => self.fail(format!(
                "{what} {id}: corrupt {} reset {}",
                slot.corrupt, slot.reset
            )),
        }
    }

    /// Checks the drained world's resource state: every frame buffer the
    /// iteration took returned (`live_before` is `live_frames()` at its
    /// start; `None` when a capture tap still holds the frames), no
    /// kernel channel left open, nothing left in any registry. A leftover
    /// counts as one failed operation.
    pub fn check_drained(&mut self, w: &World, live_before: Option<u64>) {
        let live = unp_buffers::live_frames();
        if live_before.is_some_and(|before| live != before) {
            self.fail(format!(
                "{live} frame buffers live after drain, {live_before:?} before"
            ));
        }
        for h in &w.hosts {
            if h.netio.channel_count() != 0 {
                self.fail(format!(
                    "host {}: {} kernel channels open after drain",
                    h.idx,
                    h.netio.channel_count()
                ));
            }
            if h.registry.tracked() != 0 {
                self.fail(format!(
                    "host {}: registry still tracks {} connections after drain",
                    h.idx,
                    h.registry.tracked()
                ));
            }
        }
    }
}

/// Marks the two instants every iteration reports: when it started and
/// when its first simulated event ran.
pub struct Clock {
    start: Instant,
    first_step: Option<Instant>,
}

impl Clock {
    pub fn starting_at(start: Instant) -> Clock {
        Clock {
            start,
            first_step: None,
        }
    }

    /// Runs one simulated event, through the probe when tracing.
    pub fn step(&mut self, w: &mut World, eng: &mut Eng, probe: &mut Option<&mut Probe>) -> bool {
        if self.first_step.is_none() {
            self.first_step = Some(Instant::now());
        }
        match probe {
            Some(p) => p.step(w, eng),
            None => eng.step(w),
        }
    }

    /// Closes the iteration: fills `setup_s` and `run_s`.
    pub fn finish(&self, it: &mut Iter) {
        let now = Instant::now();
        let first = self.first_step.unwrap_or(now);
        it.setup_s = (first - self.start).as_secs_f64();
        it.run_s = (now - first).as_secs_f64();
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
