//! `lossy_monitored`: sequential user-library bulk transfers on Ethernet
//! under a seeded `FaultPlan` (3% drop, 1.5% duplicate, corrupt and
//! reorder) with the streaming conformance `Monitor` attached. The next
//! transfer connects once the receiver holds every byte of the last one
//! (a closed loop, one caller). The seed draws each transfer's size and
//! bytes, its write size, and the fault sequence. A transfer fails if
//! its bytes differ, it never completes, or a conformance check flags it
//! (see `rexmit` for the one class not taken from the `Monitor`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use unp_core::world::{connect, listen};
use unp_core::{
    build_two_hosts, install_faults, AppLogic, AppOp, AppView, FaultPlan, Network, OrgKind,
};
use unp_tcp::TcpConfig;
use unp_trace::{Monitor, ViolationKind};
use unp_wire::Ipv4Addr;

use crate::common::{iteration_seed, Clock, Iter, Rng, Slot};
use crate::probe::Probe;
use crate::rexmit::RexmitCheck;

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 80);
/// Link loss probability; duplication, corruption and reordering each
/// run at half of it (`LinkFaults::lossy`).
pub const LOSS: f64 = 0.03;
/// Transfers per world, and the range their sizes are drawn from.
pub const TRANSFERS: usize = 1000;
const MIN_BYTES: u64 = 8 * 1024;
const MAX_BYTES: u64 = 64 * 1024;

/// Every transfer of a world is a window of one seeded byte pool.
const POOL_BYTES: usize = 1 << 20;

/// A transfer's bytes: a window of the world's pool.
#[derive(Clone)]
struct Window {
    pool: Rc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl std::ops::Deref for Window {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.pool[self.start..self.start + self.len]
    }
}

struct Transfer {
    data: Window,
    write: usize,
}

/// Keeps the library supplied in `write`-byte application writes up to a
/// watermark, then closes.
struct Sender {
    data: Window,
    write: usize,
    sent: usize,
    closed: bool,
}

impl Sender {
    fn pump(&mut self, view: &AppView) -> Vec<AppOp> {
        const WATERMARK: usize = 32 * 1024;
        let mut ops = Vec::new();
        let mut queued = 0;
        while self.sent < self.data.len() && view.pending_tx + queued < WATERMARK {
            let end = (self.sent + self.write).min(self.data.len());
            ops.push(AppOp::Send(self.data[self.sent..end].to_vec()));
            queued += end - self.sent;
            self.sent = end;
        }
        if self.sent == self.data.len() && !self.closed {
            self.closed = true;
            ops.push(AppOp::Close);
        }
        ops
    }
}

impl AppLogic for Sender {
    fn on_connected(&mut self, view: &AppView) -> Vec<AppOp> {
        self.pump(view)
    }
    fn on_send_space(&mut self, view: &AppView) -> Vec<AppOp> {
        self.pump(view)
    }
}

/// A transfer's bytes and the slot its receiver reports into.
type Expected = (Window, Rc<RefCell<Slot>>);

/// Compares every byte against the transfer it expects.
struct Sink {
    want: Window,
    got: usize,
    slot: Rc<RefCell<Slot>>,
}

impl AppLogic for Sink {
    fn on_connected(&mut self, _view: &AppView) -> Vec<AppOp> {
        self.slot.borrow_mut().connected = Some(Instant::now());
        Vec::new()
    }
    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        let end = self.got + data.len();
        let mut s = self.slot.borrow_mut();
        if end > self.want.len() || self.want[self.got..end] != *data {
            s.corrupt = true;
        }
        self.got = end;
        if self.got == self.want.len() {
            s.done = Some(Instant::now());
        }
        Vec::new()
    }
    fn on_peer_closed(&mut self, _view: &AppView) -> Vec<AppOp> {
        vec![AppOp::Close]
    }
    fn on_reset(&mut self, _view: &AppView) {
        self.slot.borrow_mut().reset = true;
    }
}

fn generate(seed: u64) -> Vec<Transfer> {
    let mut rng = Rng::new(seed);
    let pool = Rc::new(rng.bytes(POOL_BYTES));
    (0..TRANSFERS)
        .map(|_| {
            let len = rng.range(MIN_BYTES, MAX_BYTES) as usize;
            let start = rng.range(0, (POOL_BYTES - len) as u64) as usize;
            let write = [512, 1024, 1460, 4096][rng.range(0, 3) as usize];
            Transfer {
                data: Window {
                    pool: Rc::clone(&pool),
                    start,
                    len,
                },
                write,
            }
        })
        .collect()
}

/// One world: every transfer runs to completion under the fault plan,
/// then the world drains and the monitor and resources are checked.
pub fn iteration(start: Instant, seed: u64, i: u64, mut probe: Option<&mut Probe>) -> Iter {
    let mut it = Iter::default();
    let live_before = unp_buffers::live_frames();
    let mut clock = Clock::starting_at(start);
    let world_seed = iteration_seed(seed, i);
    let transfers = generate(world_seed);
    match probe.as_deref_mut() {
        Some(p) => p.begin_world(),
        None => unp_trace::reset_run(),
    }
    let monitor = unp_trace::attach(Box::new(Monitor::new()));
    let (mut w, mut eng) = build_two_hosts(Network::Ethernet, OrgKind::UserLibrary);
    let ips = w.hosts.iter().map(|h| h.ip.0).collect();
    let rexmit = unp_trace::attach(Box::new(RexmitCheck::new(ips)));
    if let Some(p) = probe.as_deref_mut() {
        p.attach(&mut w);
    }
    let cfg = TcpConfig::bulk_transfer();
    // The listener hands each accepted connection the expectations of the
    // transfer in flight (only one is). A connection accepted with none
    // pending, e.g. from a duplicated stale SYN, must carry no data.
    let pending: Rc<RefCell<Option<Expected>>> = Rc::new(RefCell::new(None));
    let stray = Rc::new(RefCell::new(Slot::default()));
    let (p, st) = (Rc::clone(&pending), Rc::clone(&stray));
    listen(
        &mut w,
        1,
        SERVER.1,
        cfg.clone(),
        Box::new(move || {
            let (want, slot) = p.borrow_mut().take().unwrap_or_else(|| {
                let nothing = Window {
                    pool: Rc::new(Vec::new()),
                    start: 0,
                    len: 0,
                };
                (nothing, Rc::clone(&st))
            });
            Box::new(Sink { want, got: 0, slot })
        }),
    );
    install_faults(&mut w, &mut eng, FaultPlan::lossy(world_seed, LOSS));

    let mut transfers = transfers.into_iter().enumerate();
    let mut start_next = |w: &mut unp_core::World, eng: &mut unp_core::Eng| {
        let (k, t) = transfers.next()?;
        let slot = Rc::new(RefCell::new(Slot::default()));
        *pending.borrow_mut() = Some((t.data.clone(), Rc::clone(&slot)));
        let sender = Sender {
            data: t.data.clone(),
            write: t.write,
            sent: 0,
            closed: false,
        };
        let call = Instant::now();
        connect(w, eng, 0, SERVER, cfg.clone(), Box::new(sender), t.write);
        Some((k as u64 + 1, call, t.data.len() as u64, slot))
    };
    let mut in_flight = start_next(&mut w, &mut eng);
    let mut drained = false;
    for _ in 0..500_000_000u64 {
        if !clock.step(&mut w, &mut eng, &mut probe) {
            drained = true;
            break;
        }
        let finished = match &in_flight {
            Some((_, _, _, slot)) => {
                let s = slot.borrow();
                s.done.is_some() || s.reset || s.corrupt
            }
            None => false,
        };
        if !finished {
            continue;
        }
        let (id, call, bytes, slot) = in_flight.take().expect("checked above");
        it.settle(
            "transfer",
            id,
            call,
            bytes,
            &slot.borrow(),
            probe.as_deref_mut(),
        );
        in_flight = start_next(&mut w, &mut eng);
    }
    if let Some((id, ..)) = in_flight {
        it.attempted += 1;
        it.fail(format!("transfer {id} never completed"));
    }
    let never_started = transfers.len();
    if never_started > 0 {
        it.attempted += never_started as u64;
        for _ in 0..never_started {
            it.fail("transfer never started".into());
        }
    }
    if stray.borrow().corrupt {
        it.fail("a connection accepted with no transfer pending carried data".into());
    }
    if !drained {
        it.fail("lossy_monitored world did not drain".into());
    }
    // Each conformance violation counts as one failed transfer. (A reset
    // after every byte arrived, e.g. of a duplicated stale segment, is a
    // correct TCP response to this plan and is not a failure.) The
    // retransmit class comes from `RexmitCheck`, which also counts the
    // segments the `Monitor` never sees; every other class from the
    // `Monitor`.
    let live = unp_trace::detach_as::<Monitor>(monitor).expect("attached above");
    let rexmit = unp_trace::detach_as::<RexmitCheck>(rexmit).expect("attached above");
    let other = live.total_violations() - live.count(ViolationKind::RexmitUnjustified);
    let mut flagged = live
        .violations()
        .iter()
        .filter(|v| v.kind != ViolationKind::RexmitUnjustified);
    for _ in 0..other.min(TRANSFERS as u64) {
        let line = flagged.next().map(|v| v.line()).unwrap_or_default();
        it.fail(format!("conformance violation: {line}"));
    }
    for line in rexmit.violations.iter().take(TRANSFERS) {
        it.fail(format!("conformance violation: {line}"));
    }
    it.check_drained(&w, probe.is_none().then_some(live_before));
    if let Some(p) = probe {
        p.end_world(w);
    }
    clock.finish(&mut it);
    it
}
