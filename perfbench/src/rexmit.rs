//! The retransmit-precondition check `lossy_monitored` counts failures
//! with, in place of the `Monitor`'s own `rexmit_unjustified` class.
//!
//! The `Monitor` counts duplicate ACKs from the receive-side
//! `tcp_segment` records the library journals. Segments that reach a TCB
//! through the kernel-default path journal none: the SYN-ACK (the
//! registry server does the handshake), and segments held while a
//! connection's channel activates, or that missed its binding, which the
//! kernel later hands to the TCB. The TCB counts such a segment like any
//! other (RFC 5681 §2 asks only that it repeat the greatest ack received
//! while data is outstanding), so the `Monitor` can count fewer duplicates
//! than the TCB and flag a correct fast retransmit. This check keeps the
//! `Monitor`'s rule (the same permissive duplicate count, the same RTO
//! rule) and restores the two inputs: the ack horizon starts at the
//! connection's own SYN (the SYN-ACK acks exactly `iss + 1`), and a pure
//! ACK the peer journaled on transmit that the receiver classifies to the
//! kernel-default path counts as a possible duplicate when it arrives.
//! The `Monitor`'s raw count still reaches the per-layer
//! `trace.violations` metric.

use std::collections::HashMap;

use unp_trace::{Dir, Event, Observer, Record, RexmitReason, TcpFsm};

/// (host, local port, remote port, remote ip), as the `Monitor` keys it.
type Key = (Option<u16>, u16, u16, [u8; 4]);

#[derive(Default, Clone, Copy)]
struct Conn {
    /// Highest sequence number sent with payload (exclusive end).
    snd_max: Option<u32>,
    /// Highest ack received.
    rx_acked: Option<u32>,
    /// Pure ACKs repeating `rx_acked` since it last advanced.
    dup_acks: u32,
}

/// A pure ACK as its sender journaled it.
struct PureAck {
    host: u16,
    local_port: u16,
    remote_port: u16,
    ack: u32,
}

fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

pub struct RexmitCheck {
    /// Each host's address, by host index.
    ips: Vec<[u8; 4]>,
    conns: HashMap<Key, Conn>,
    /// Pure ACKs by frame id (a duplicated frame keeps its id).
    acks: HashMap<u64, PureAck>,
    /// Fast retransmits after fewer than three duplicate ACKs, and RTO
    /// retransmits with nothing outstanding.
    pub violations: Vec<String>,
}

impl RexmitCheck {
    pub fn new(ips: Vec<[u8; 4]>) -> RexmitCheck {
        RexmitCheck {
            ips,
            conns: HashMap::new(),
            acks: HashMap::new(),
            violations: Vec::new(),
        }
    }
}

impl Observer for RexmitCheck {
    fn on_record(&mut self, rec: &Record) {
        match &rec.event {
            Event::TcpSegment {
                dir,
                local_port,
                remote_port,
                remote_ip,
                seq,
                ack,
                flags,
                payload,
                ..
            } => {
                let st = self
                    .conns
                    .entry((rec.host, *local_port, *remote_port, *remote_ip))
                    .or_default();
                match dir {
                    Dir::Tx if flags.syn => {
                        *st = Conn {
                            rx_acked: Some(seq.wrapping_add(1)),
                            ..Conn::default()
                        };
                    }
                    Dir::Tx if flags.rst => {}
                    Dir::Tx if *payload > 0 => {
                        let end = seq.wrapping_add(*payload);
                        if st.snd_max.is_none_or(|m| seq_gt(end, m)) {
                            st.snd_max = Some(end);
                        }
                    }
                    Dir::Tx => {
                        if let (Some(frame), Some(host), true, false) =
                            (rec.frame, rec.host, flags.ack, flags.fin)
                        {
                            let sent = PureAck {
                                host,
                                local_port: *local_port,
                                remote_port: *remote_port,
                                ack: *ack,
                            };
                            self.acks.insert(frame, sent);
                        }
                    }
                    Dir::Rx if flags.syn || flags.rst => {
                        st.rx_acked = (flags.syn && flags.ack).then_some(*ack);
                        st.dup_acks = 0;
                    }
                    Dir::Rx if flags.ack => match st.rx_acked {
                        Some(a) if seq_gt(*ack, a) => {
                            st.rx_acked = Some(*ack);
                            st.dup_acks = 0;
                        }
                        Some(a) if *ack == a && *payload == 0 && !flags.fin => {
                            st.dup_acks += 1;
                        }
                        Some(_) => {}
                        None => st.rx_acked = Some(*ack),
                    },
                    Dir::Rx => {}
                }
            }
            Event::DemuxClassify { matched: false, .. } => {
                let Some(sent) = rec.frame.and_then(|f| self.acks.get(&f)) else {
                    return;
                };
                let Some(&sender_ip) = self.ips.get(usize::from(sent.host)) else {
                    return;
                };
                let key = (rec.host, sent.remote_port, sent.local_port, sender_ip);
                if let Some(st) = self.conns.get_mut(&key) {
                    if st.rx_acked == Some(sent.ack) {
                        st.dup_acks += 1;
                    }
                }
            }
            Event::TcpState {
                local_port,
                remote_port,
                remote_ip,
                to: TcpFsm::Closed,
                ..
            } => {
                self.conns
                    .remove(&(rec.host, *local_port, *remote_port, *remote_ip));
            }
            Event::TcpRexmit {
                local_port,
                remote_port,
                remote_ip,
                reason,
                ..
            } => {
                let st = self
                    .conns
                    .get(&(rec.host, *local_port, *remote_port, *remote_ip))
                    .copied()
                    .unwrap_or_default();
                let justified = match reason {
                    RexmitReason::DupAck => st.dup_acks >= 3,
                    RexmitReason::Rto => match (st.snd_max, st.rx_acked) {
                        (Some(m), Some(a)) => seq_gt(m, a),
                        (Some(_), None) => true,
                        (None, _) => false,
                    },
                };
                if !justified {
                    let what = match reason {
                        RexmitReason::DupAck => "fast",
                        RexmitReason::Rto => "rto",
                    };
                    self.violations.push(format!(
                        "{} h{:?} {what} retransmit after {} duplicate acks (lp={local_port} rp={remote_port})",
                        rec.time, rec.host, st.dup_acks
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unp_trace::{PathKind, SegFlags};

    /// The client (host 0) and the server (host 1).
    const IPS: [[u8; 4]; 2] = [[10, 0, 0, 1], [10, 0, 0, 2]];

    fn record(host: u16, frame: Option<u64>, event: Event) -> Record {
        Record {
            time: 0,
            host: Some(host),
            frame,
            event,
        }
    }

    /// A segment of the client's connection to the server's port 80, as
    /// `host` journals it.
    fn seg(host: u16, dir: Dir, seq: u32, ack: u32, syn: bool, payload: u32) -> Record {
        let (local_port, remote_port) = if host == 0 { (1024, 80) } else { (80, 1024) };
        let flags = SegFlags {
            syn,
            ack: !syn || dir == Dir::Rx,
            ..SegFlags::default()
        };
        let event = Event::TcpSegment {
            dir,
            local_port,
            remote_port,
            remote_ip: IPS[1 - usize::from(host)],
            seq,
            ack,
            wnd: 65535,
            flags,
            payload,
            wire: 40 + payload,
        };
        record(host, Some(u64::from(seq ^ ack)), event)
    }

    fn rexmit(reason: RexmitReason) -> Record {
        let event = Event::TcpRexmit {
            local_port: 1024,
            remote_port: 80,
            remote_ip: IPS[1],
            seq: 101,
            bytes: 1460,
            reason,
        };
        record(0, None, event)
    }

    /// The client sends its SYN (the SYN-ACK goes to the registry) and
    /// three data segments; then come `extra`, and the retransmit.
    fn run(extra: &[Record], last: RexmitReason) -> Vec<String> {
        let mut check = RexmitCheck::new(IPS.to_vec());
        let mut records = vec![seg(0, Dir::Tx, 100, 0, true, 0)];
        for k in 0..3 {
            records.push(seg(0, Dir::Tx, 101 + k * 1460, 9, false, 1460));
        }
        records.extend_from_slice(extra);
        records.push(rexmit(last));
        for r in &records {
            check.on_record(r);
        }
        check.violations
    }

    fn dup_ack() -> Record {
        seg(0, Dir::Rx, 9, 101, false, 0)
    }

    #[test]
    fn the_first_ack_after_a_registry_handshake_can_be_a_duplicate() {
        assert!(run(&[dup_ack(), dup_ack(), dup_ack()], RexmitReason::DupAck).is_empty());
        assert_eq!(run(&[dup_ack(), dup_ack()], RexmitReason::DupAck).len(), 1);
    }

    #[test]
    fn an_ack_through_the_kernel_default_path_counts() {
        let parked = seg(1, Dir::Tx, 9, 101, false, 0);
        let classify = |matched| {
            let event = Event::DemuxClassify {
                path: PathKind::FilterScan,
                filter_instrs: 28,
                matched,
            };
            record(0, parked.frame, event)
        };
        let to_kernel = [parked.clone(), classify(false), dup_ack(), dup_ack()];
        assert!(run(&to_kernel, RexmitReason::DupAck).is_empty());
        // Through the library it journals its own receive record instead.
        let to_library = [parked.clone(), classify(true), dup_ack(), dup_ack()];
        assert_eq!(run(&to_library, RexmitReason::DupAck).len(), 1);
    }

    #[test]
    fn rto_needs_unacked_data() {
        assert!(run(&[], RexmitReason::Rto).is_empty());
        let mut check = RexmitCheck::new(IPS.to_vec());
        for r in [seg(0, Dir::Tx, 100, 0, true, 0), rexmit(RexmitReason::Rto)] {
            check.on_record(&r);
        }
        assert_eq!(check.violations.len(), 1);
    }
}
