//! `rpc_churn`: four client hosts and one user-library echo server on
//! Ethernet. Each client opens a connection, runs R request/response
//! exchanges of small messages, closes, and opens the next as soon as
//! its last reply arrives (a closed loop, four callers). The seed draws
//! R from 1-8 and each message size from 1-512 bytes.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use unp_core::world::{connect, listen};
use unp_core::{build_hosts, AppLogic, AppOp, AppView, EchoApp, Network, OrgKind};
use unp_registry::ports::{EPHEMERAL_BASE, EPHEMERAL_LIMIT};
use unp_tcp::TcpConfig;
use unp_trace::Ctr;
use unp_wire::Ipv4Addr;

use crate::common::{iteration_seed, Clock, Iter, Rng, Slot};
use crate::probe::Probe;

const SERVER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 7);

/// The registry hands each host this many ephemeral ports and never
/// takes back the port of a connection the library closed, so a client
/// host can open at most this many connections per world.
pub const EPHEMERAL_PORTS: usize = (EPHEMERAL_LIMIT - EPHEMERAL_BASE + 1) as usize;

/// The benchmark's configuration: four client hosts, 400 connections
/// each per world.
pub const CLIENTS: usize = 4;
pub const CONNS_PER_CLIENT: usize = 400;

/// A validated `rpc_churn` world size.
#[derive(Debug, Clone, Copy)]
pub struct RpcConfig {
    clients: usize,
    conns_per_client: usize,
}

impl RpcConfig {
    /// Refuses a configuration that would run a client host out of
    /// ephemeral ports, which would panic inside `connect_as`.
    pub fn new(clients: usize, conns_per_client: usize) -> Result<RpcConfig, String> {
        if !(1..=250).contains(&clients) {
            return Err(format!(
                "rpc_churn needs 1 to 250 client hosts, got {clients}"
            ));
        }
        if conns_per_client > EPHEMERAL_PORTS {
            return Err(format!(
                "refused: {conns_per_client} connections per client host exceed the registry's \
                 {EPHEMERAL_PORTS}-port ephemeral range ({EPHEMERAL_BASE}..={EPHEMERAL_LIMIT}); \
                 connect_as would panic with \"ports available\" (ROADMAP open item \
                 \"Hostile-input and exhaustion robustness\": ephemeral-port exhaustion)"
            ));
        }
        Ok(RpcConfig {
            clients,
            conns_per_client,
        })
    }
}

/// One client connection's exchanges.
struct Txn {
    msgs: Vec<Vec<u8>>,
}

struct Client {
    msgs: Vec<Vec<u8>>,
    idx: usize,
    got: usize,
    client: usize,
    slot: Rc<RefCell<Slot>>,
    finished: Rc<RefCell<Vec<usize>>>,
}

impl Client {
    fn send(&self) -> Vec<AppOp> {
        vec![AppOp::Send(self.msgs[self.idx].clone())]
    }
}

impl AppLogic for Client {
    fn on_connected(&mut self, _view: &AppView) -> Vec<AppOp> {
        self.slot.borrow_mut().connected = Some(Instant::now());
        self.send()
    }

    fn on_data(&mut self, data: &[u8], _view: &AppView) -> Vec<AppOp> {
        let Some(want) = self.msgs.get(self.idx) else {
            self.slot.borrow_mut().corrupt = true;
            return Vec::new();
        };
        let end = self.got + data.len();
        if end > want.len() || want[self.got..end] != *data {
            self.slot.borrow_mut().corrupt = true;
        }
        self.got = end;
        if self.got < want.len() {
            return Vec::new();
        }
        self.idx += 1;
        self.got = 0;
        if self.idx < self.msgs.len() {
            return self.send();
        }
        self.slot.borrow_mut().done = Some(Instant::now());
        self.finished.borrow_mut().push(self.client);
        vec![AppOp::Close]
    }

    fn on_reset(&mut self, _view: &AppView) {
        self.slot.borrow_mut().reset = true;
        self.finished.borrow_mut().push(self.client);
    }
}

/// Draws every client's connections for one world.
fn generate(cfg: RpcConfig, seed: u64) -> Vec<Vec<Txn>> {
    let mut rng = Rng::new(seed);
    (0..cfg.clients)
        .map(|_| {
            (0..cfg.conns_per_client)
                .map(|_| {
                    let rounds = rng.range(1, 8) as usize;
                    let msgs = (0..rounds)
                        .map(|_| {
                            let n = rng.range(1, 512) as usize;
                            rng.bytes(n)
                        })
                        .collect();
                    Txn { msgs }
                })
                .collect()
        })
        .collect()
}

/// The in-flight connection of one client.
struct Open {
    id: u64,
    call: Instant,
    bytes: u64,
    slot: Rc<RefCell<Slot>>,
}

/// One world: every client runs its connections to completion, then the
/// world drains and its resources are checked.
pub fn iteration(
    start: Instant,
    cfg: RpcConfig,
    seed: u64,
    i: u64,
    mut probe: Option<&mut Probe>,
) -> Iter {
    let mut it = Iter::default();
    let live_before = unp_buffers::live_frames();
    let mut clock = Clock::starting_at(start);
    let mut txns: Vec<std::vec::IntoIter<Txn>> = generate(cfg, iteration_seed(seed, i))
        .into_iter()
        .map(Vec::into_iter)
        .collect();
    if let Some(p) = probe.as_deref_mut() {
        p.begin_world();
    }
    let (mut w, mut eng) = build_hosts(cfg.clients + 1, Network::Ethernet, OrgKind::UserLibrary);
    if let Some(p) = probe.as_deref_mut() {
        p.attach(&mut w);
    }
    listen(
        &mut w,
        0,
        SERVER.1,
        TcpConfig::default(),
        Box::new(|| Box::new(EchoApp)),
    );
    let finished = Rc::new(RefCell::new(Vec::new()));
    let mut open: Vec<Option<Open>> = (0..cfg.clients).map(|_| None).collect();
    let mut next_id = 0u64;

    let mut start_next = |c: usize,
                          w: &mut unp_core::World,
                          eng: &mut unp_core::Eng,
                          open: &mut Vec<Option<Open>>| {
        let Some(txn) = txns[c].next() else {
            return;
        };
        next_id += 1;
        let slot = Rc::new(RefCell::new(Slot::default()));
        let bytes = 2 * txn.msgs.iter().map(|m| m.len() as u64).sum::<u64>();
        let app = Client {
            msgs: txn.msgs,
            idx: 0,
            got: 0,
            client: c,
            slot: Rc::clone(&slot),
            finished: Rc::clone(&finished),
        };
        let call = Instant::now();
        connect(
            w,
            eng,
            c + 1,
            SERVER,
            TcpConfig::default(),
            Box::new(app),
            512,
        );
        open[c] = Some(Open {
            id: next_id,
            call,
            bytes,
            slot,
        });
    };
    for c in 0..cfg.clients {
        start_next(c, &mut w, &mut eng, &mut open);
    }
    let mut drained = false;
    for _ in 0..200_000_000u64 {
        if !clock.step(&mut w, &mut eng, &mut probe) {
            drained = true;
            break;
        }
        if finished.borrow().is_empty() {
            continue;
        }
        let done: Vec<usize> = finished.borrow_mut().drain(..).collect();
        for c in done {
            let Some(o) = open[c].take() else { continue };
            let what = format!("client {c} transaction");
            it.settle(
                &what,
                o.id,
                o.call,
                o.bytes,
                &o.slot.borrow(),
                probe.as_deref_mut(),
            );
            start_next(c, &mut w, &mut eng, &mut open);
        }
    }
    for (c, o) in open.iter().enumerate() {
        if let Some(o) = o {
            it.attempted += 1;
            it.fail(format!("client {c} transaction {} never completed", o.id));
        }
    }
    for (c, left) in txns.iter().map(ExactSizeIterator::len).enumerate() {
        if left > 0 {
            it.attempted += left as u64;
            for _ in 0..left {
                it.fail(format!("client {c}: transaction never started"));
            }
        }
    }
    if !drained {
        it.fail("rpc_churn world did not drain".into());
    }
    if w.metrics.get(Ctr::ConnectionsReset) != 0 {
        it.fail(format!(
            "{} connections reset",
            w.metrics.get(Ctr::ConnectionsReset)
        ));
    }
    it.check_drained(&w, probe.is_none().then_some(live_before));
    if let Some(p) = probe {
        p.end_world(w);
    }
    clock.finish(&mut it);
    it
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ephemeral_range_is_guarded_up_front() {
        assert!(RpcConfig::new(CLIENTS, EPHEMERAL_PORTS).is_ok());
        let err = RpcConfig::new(CLIENTS, EPHEMERAL_PORTS + 1).unwrap_err();
        assert!(
            err.contains("ROADMAP") && err.contains("exhaustion"),
            "{err}"
        );
        assert_eq!(EPHEMERAL_PORTS, 3977);
    }

    #[test]
    fn the_seed_draws_rounds_and_sizes_in_range() {
        let cfg = RpcConfig::new(2, 50).unwrap();
        let a = generate(cfg, 1);
        let b = generate(cfg, 1);
        let c = generate(cfg, 2);
        let shape = |g: &Vec<Vec<Txn>>| -> Vec<usize> {
            g.iter()
                .flatten()
                .flat_map(|t| t.msgs.iter().map(|m| m.len()))
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(shape(&a), shape(&c));
        for t in a.iter().flatten() {
            assert!((1..=8).contains(&t.msgs.len()));
            assert!(t.msgs.iter().all(|m| (1..=512).contains(&m.len())));
        }
    }
}
