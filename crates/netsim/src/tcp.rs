//! A segment-level TCP endpoint state machine.
//!
//! The paper's HTTP and TLS decoys are sent "after successful TCP
//! handshakes" (Phase I), while Phase II deliberately skips handshakes. This
//! module gives every simulated endpoint (vantage points, web servers,
//! honeypots, probe origins) a shared connection engine: three-way
//! handshake, in-order data exchange, FIN/RST teardown.
//!
//! Simplifications, safe because simulated links are reliable and in-order:
//! no retransmission, no congestion control, no out-of-order reassembly.
//! Sequence numbers are still tracked and verified so that tests can assert
//! real handshake semantics.

use crate::hash::FastMap;
use shadow_packet::tcp::{TcpFlags, TcpSegment};
use shadow_packet::SharedBytes;
use std::fmt;
use std::net::Ipv4Addr;

/// Connection identifier from the stack owner's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    pub peer: Ipv4Addr,
    pub peer_port: u16,
    pub local_port: u16,
}

impl fmt::Display for ConnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}<->:{}", self.peer, self.peer_port, self.local_port)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    SynReceived,
    Established,
    FinWait,
    CloseWait,
    Closed,
}

#[derive(Debug)]
struct Conn {
    state: ConnState,
    /// Next sequence number we will send.
    snd_nxt: u32,
    /// Next sequence number we expect from the peer.
    rcv_nxt: u32,
}

/// Events surfaced to the host embedding the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed (either role).
    Established(ConnKey),
    /// In-order payload bytes arrived (shared with the segment — surfacing
    /// data to the application copies nothing).
    Data(ConnKey, SharedBytes),
    /// Peer closed cleanly.
    Closed(ConnKey),
    /// Connection reset (peer RST or protocol violation).
    Reset(ConnKey),
}

/// The ephemeral range `alloc_port` hands out: 32768..=65535.
const EPHEMERAL_FIRST: u16 = 32_768;

/// Per-host TCP machinery. The owner passes outbound segments to the
/// network itself (the stack only produces `TcpSegment`s, keeping it free of
/// engine dependencies).
#[derive(Debug)]
pub struct TcpStack {
    /// Every connection the stack ever opened: closed ones stay, so a
    /// late segment on one is answered with RST.
    conns: FastMap<ConnKey, Conn>,
    listen_ports: Vec<u16>,
    /// The next ephemeral port to try; past 65535 once all are used.
    next_ephemeral: u32,
    isn_counter: u32,
}

impl TcpStack {
    pub fn new(isn_seed: u32) -> Self {
        Self {
            conns: FastMap::default(),
            listen_ports: Vec::new(),
            next_ephemeral: u32::from(EPHEMERAL_FIRST),
            isn_counter: isn_seed,
        }
    }

    /// Accept inbound connections on `port`.
    pub fn listen(&mut self, port: u16) {
        if !self.listen_ports.contains(&port) {
            self.listen_ports.push(port);
        }
    }

    pub fn is_listening(&self, port: u16) -> bool {
        self.listen_ports.contains(&port)
    }

    /// Number of live (non-closed) connections.
    pub fn active_connections(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state != ConnState::Closed)
            .count()
    }

    fn next_isn(&mut self) -> u32 {
        self.isn_counter = self
            .isn_counter
            .wrapping_mul(0x0019_660d)
            .wrapping_add(0x3c6e_f35f);
        self.isn_counter
    }

    /// The lowest ephemeral port above the last one handed out that no
    /// listener uses.
    ///
    /// This is the first free port of a cyclic walk over the range:
    /// connections are never removed, and a passive connection's local
    /// port is a listener's, so every port the walk has passed stays taken
    /// and no port ahead of it is in use unless a listener holds it. Once
    /// the walk passes 65535 the range is exhausted.
    ///
    /// # Panics
    ///
    /// If all 32,768 ephemeral ports are taken.
    fn alloc_port(&mut self) -> u16 {
        while let Ok(port) = u16::try_from(self.next_ephemeral) {
            self.next_ephemeral += 1;
            if !self.listen_ports.contains(&port) {
                return port;
            }
        }
        panic!("TcpStack: all 32768 ephemeral ports are in use");
    }

    /// Open a connection; returns the key and pushes the SYN to `out`.
    pub fn connect(
        &mut self,
        peer: Ipv4Addr,
        peer_port: u16,
        out: &mut Vec<TcpSegment>,
    ) -> ConnKey {
        let local_port = self.alloc_port();
        let key = ConnKey {
            peer,
            peer_port,
            local_port,
        };
        let isn = self.next_isn();
        self.conns.insert(
            key,
            Conn {
                state: ConnState::SynSent,
                snd_nxt: isn.wrapping_add(1),
                rcv_nxt: 0,
            },
        );
        out.push(TcpSegment::syn(local_port, peer_port, isn));
        key
    }

    /// Send payload on an established connection. Returns `false` (and
    /// emits nothing) if the connection cannot carry data.
    pub fn send(
        &mut self,
        key: ConnKey,
        data: impl Into<SharedBytes>,
        out: &mut Vec<TcpSegment>,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&key) else {
            return false;
        };
        if conn.state != ConnState::Established && conn.state != ConnState::CloseWait {
            return false;
        }
        let seg = TcpSegment::new(
            key.local_port,
            key.peer_port,
            conn.snd_nxt,
            conn.rcv_nxt,
            TcpFlags::PSH_ACK,
            data,
        );
        conn.snd_nxt = conn.snd_nxt.wrapping_add(seg.seq_len());
        out.push(seg);
        true
    }

    /// Close our side (FIN).
    pub fn close(&mut self, key: ConnKey, out: &mut Vec<TcpSegment>) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        match conn.state {
            ConnState::Established | ConnState::CloseWait | ConnState::SynReceived => {
                let seg = TcpSegment::new(
                    key.local_port,
                    key.peer_port,
                    conn.snd_nxt,
                    conn.rcv_nxt,
                    TcpFlags::FIN_ACK,
                    SharedBytes::empty(),
                );
                conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
                conn.state = if conn.state == ConnState::CloseWait {
                    ConnState::Closed
                } else {
                    ConnState::FinWait
                };
                out.push(seg);
            }
            _ => {}
        }
    }

    /// Abort with RST.
    pub fn abort(&mut self, key: ConnKey, out: &mut Vec<TcpSegment>) {
        if let Some(conn) = self.conns.get_mut(&key) {
            out.push(TcpSegment::new(
                key.local_port,
                key.peer_port,
                conn.snd_nxt,
                conn.rcv_nxt,
                TcpFlags::RST.union(TcpFlags::ACK),
                SharedBytes::empty(),
            ));
            conn.state = ConnState::Closed;
        }
    }

    /// Feed an inbound segment; emits response segments onto `out` and
    /// returns application-visible events.
    pub fn on_segment(
        &mut self,
        peer: Ipv4Addr,
        seg: TcpSegment,
        out: &mut Vec<TcpSegment>,
    ) -> Vec<TcpEvent> {
        let key = ConnKey {
            peer,
            peer_port: seg.src_port,
            local_port: seg.dst_port,
        };
        let mut events = Vec::new();

        if seg.flags.contains(TcpFlags::RST) {
            if let Some(conn) = self.conns.get_mut(&key) {
                if conn.state != ConnState::Closed {
                    conn.state = ConnState::Closed;
                    events.push(TcpEvent::Reset(key));
                }
            }
            return events;
        }

        match self.conns.get_mut(&key) {
            None => {
                if seg.flags.is_syn() && self.listen_ports.contains(&seg.dst_port) {
                    // Passive open.
                    let isn = self.next_isn();
                    self.conns.insert(
                        key,
                        Conn {
                            state: ConnState::SynReceived,
                            snd_nxt: isn.wrapping_add(1),
                            rcv_nxt: seg.seq.wrapping_add(1),
                        },
                    );
                    out.push(TcpSegment::syn_ack(&seg, isn));
                } else if !seg.flags.contains(TcpFlags::RST) {
                    // No such connection: refuse.
                    out.push(TcpSegment::rst(&seg));
                }
            }
            Some(conn) => match conn.state {
                ConnState::SynSent => {
                    if seg.flags.is_syn_ack() && seg.ack == conn.snd_nxt {
                        conn.rcv_nxt = seg.seq.wrapping_add(1);
                        conn.state = ConnState::Established;
                        out.push(TcpSegment::new(
                            key.local_port,
                            key.peer_port,
                            conn.snd_nxt,
                            conn.rcv_nxt,
                            TcpFlags::ACK,
                            SharedBytes::empty(),
                        ));
                        events.push(TcpEvent::Established(key));
                    }
                }
                ConnState::SynReceived => {
                    if seg.flags.contains(TcpFlags::ACK) && seg.ack == conn.snd_nxt {
                        conn.state = ConnState::Established;
                        events.push(TcpEvent::Established(key));
                        // The handshake ACK may already carry data.
                        Self::consume_data(conn, &key, &seg, out, &mut events);
                    }
                }
                ConnState::Established | ConnState::FinWait | ConnState::CloseWait => {
                    Self::consume_data(conn, &key, &seg, out, &mut events);
                }
                ConnState::Closed => {
                    out.push(TcpSegment::rst(&seg));
                }
            },
        }
        events
    }

    fn consume_data(
        conn: &mut Conn,
        key: &ConnKey,
        seg: &TcpSegment,
        out: &mut Vec<TcpSegment>,
        events: &mut Vec<TcpEvent>,
    ) {
        // Reliable in-order network: either the expected segment or a
        // duplicate/pure-ACK.
        if !seg.payload.is_empty() || seg.flags.contains(TcpFlags::FIN) {
            if seg.seq != conn.rcv_nxt {
                // Unexpected sequence — with reliable links this is a peer
                // bug; reset to surface it loudly in tests.
                out.push(TcpSegment::rst(seg));
                conn.state = ConnState::Closed;
                events.push(TcpEvent::Reset(*key));
                return;
            }
            conn.rcv_nxt = conn.rcv_nxt.wrapping_add(seg.seq_len());
            if !seg.payload.is_empty() {
                events.push(TcpEvent::Data(*key, seg.payload.clone()));
            }
            if seg.flags.contains(TcpFlags::FIN) {
                match conn.state {
                    ConnState::FinWait => {
                        conn.state = ConnState::Closed;
                    }
                    _ => {
                        conn.state = ConnState::CloseWait;
                    }
                }
                events.push(TcpEvent::Closed(*key));
            }
            // ACK whatever we consumed.
            out.push(TcpSegment::new(
                key.local_port,
                key.peer_port,
                conn.snd_nxt,
                conn.rcv_nxt,
                TcpFlags::ACK,
                SharedBytes::empty(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Shuttle segments between two stacks until both queues drain;
    /// collects events per side.
    fn pump(
        client: &mut TcpStack,
        server: &mut TcpStack,
        mut c_out: Vec<TcpSegment>,
        mut s_out: Vec<TcpSegment>,
    ) -> (Vec<TcpEvent>, Vec<TcpEvent>) {
        let mut c_events = Vec::new();
        let mut s_events = Vec::new();
        for _ in 0..64 {
            if c_out.is_empty() && s_out.is_empty() {
                break;
            }
            let mut next_s_out = Vec::new();
            for seg in c_out.drain(..) {
                s_events.extend(server.on_segment(CLIENT, seg, &mut next_s_out));
            }
            let mut next_c_out = Vec::new();
            for seg in s_out.drain(..) {
                c_events.extend(client.on_segment(SERVER, seg, &mut next_c_out));
            }
            c_out = next_c_out;
            s_out = next_s_out;
        }
        assert!(c_out.is_empty() && s_out.is_empty(), "segment storm");
        (c_events, s_events)
    }

    #[test]
    fn three_way_handshake() {
        let mut client = TcpStack::new(1);
        let mut server = TcpStack::new(2);
        server.listen(80);
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 80, &mut c_out);
        let (c_ev, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        assert_eq!(c_ev, vec![TcpEvent::Established(key)]);
        assert!(matches!(s_ev.as_slice(), [TcpEvent::Established(_)]));
    }

    #[test]
    fn data_flows_both_ways() {
        let mut client = TcpStack::new(1);
        let mut server = TcpStack::new(2);
        server.listen(443);
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 443, &mut c_out);
        let (_, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        let server_key = match &s_ev[0] {
            TcpEvent::Established(k) => *k,
            other => panic!("unexpected {other:?}"),
        };

        let mut c_out = Vec::new();
        assert!(client.send(key, b"request".to_vec(), &mut c_out));
        let (_, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        assert!(s_ev.contains(&TcpEvent::Data(server_key, b"request".to_vec().into())));

        let mut s_out = Vec::new();
        assert!(server.send(server_key, b"response".to_vec(), &mut s_out));
        let (c_ev, _) = pump(&mut client, &mut server, Vec::new(), s_out);
        assert!(c_ev.contains(&TcpEvent::Data(key, b"response".to_vec().into())));
    }

    #[test]
    fn clean_close() {
        let mut client = TcpStack::new(3);
        let mut server = TcpStack::new(4);
        server.listen(80);
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 80, &mut c_out);
        pump(&mut client, &mut server, c_out, Vec::new());

        let mut c_out = Vec::new();
        client.close(key, &mut c_out);
        let (_, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        assert!(s_ev.iter().any(|e| matches!(e, TcpEvent::Closed(_))));
    }

    #[test]
    fn syn_to_closed_port_is_reset() {
        let mut client = TcpStack::new(5);
        let mut server = TcpStack::new(6);
        // No listen().
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 8080, &mut c_out);
        let (c_ev, _) = pump(&mut client, &mut server, c_out, Vec::new());
        assert_eq!(c_ev, vec![TcpEvent::Reset(key)]);
    }

    #[test]
    fn send_before_established_fails() {
        let mut client = TcpStack::new(7);
        let mut out = Vec::new();
        let key = client.connect(SERVER, 80, &mut out);
        let mut data_out = Vec::new();
        assert!(!client.send(key, b"too early".to_vec(), &mut data_out));
        assert!(data_out.is_empty());
    }

    /// The allocator this stack replaced: walk the range cyclically and
    /// take the first port no connection and no listener uses.
    fn scanned_port(next: &mut u16, local_ports: &BTreeSet<u16>, listen: &[u16]) -> u16 {
        loop {
            let port = *next;
            *next = if port == u16::MAX { 32_768 } else { port + 1 };
            if !local_ports.contains(&port) && !listen.contains(&port) {
                return port;
            }
        }
    }

    #[test]
    fn ephemeral_ports_follow_the_scan_order() {
        // Listeners at both ends of the range and in its middle; a passive
        // connection on one of them.
        let listen = [32_768, 40_000, 65_535];
        let mut stack = TcpStack::new(13);
        for port in listen {
            stack.listen(port);
        }
        let mut out = Vec::new();
        let syn = TcpSegment::syn(1_234, 40_000, 99);
        stack.on_segment(CLIENT, syn, &mut out);
        assert_eq!(stack.conns.len(), 1);
        let mut local_ports = BTreeSet::from([40_000]);
        let mut next = 32_768;
        let mut allocated = Vec::new();
        for _ in 0..32_768 - listen.len() {
            let expected = scanned_port(&mut next, &local_ports, &listen);
            out.clear();
            let key = stack.connect(SERVER, 80, &mut out);
            assert_eq!(key.local_port, expected);
            local_ports.insert(expected);
            allocated.push(expected);
        }
        assert_eq!(allocated.first(), Some(&32_769));
        assert_eq!(allocated.last(), Some(&65_534));
    }

    #[test]
    #[should_panic(expected = "all 32768 ephemeral ports are in use")]
    fn connect_past_the_last_ephemeral_port_panics() {
        let mut stack = TcpStack::new(14);
        let mut out = Vec::new();
        for port in 32_768..=u16::MAX {
            out.clear();
            assert_eq!(stack.connect(SERVER, 443, &mut out).local_port, port);
        }
        stack.connect(SERVER, 443, &mut out);
    }

    #[test]
    fn ephemeral_ports_unique() {
        let mut client = TcpStack::new(8);
        let mut out = Vec::new();
        let k1 = client.connect(SERVER, 80, &mut out);
        let k2 = client.connect(SERVER, 80, &mut out);
        assert_ne!(k1.local_port, k2.local_port);
    }

    #[test]
    fn handshake_then_immediate_data_like_decoy_flow() {
        // Phase I flow: handshake, then the HTTP decoy, then close.
        let mut vp = TcpStack::new(9);
        let mut site = TcpStack::new(10);
        site.listen(80);
        let mut out = Vec::new();
        let key = vp.connect(SERVER, 80, &mut out);
        pump(&mut vp, &mut site, out, Vec::new());
        let mut out = Vec::new();
        vp.send(
            key,
            b"GET / HTTP/1.1\r\nhost: decoy\r\n\r\n".to_vec(),
            &mut out,
        );
        vp.close(key, &mut out);
        let (_, s_ev) = pump(&mut vp, &mut site, out, Vec::new());
        let data: Vec<_> = s_ev
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(_, d) => Some(d.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 1);
        assert!(data[0].starts_with(b"GET / HTTP/1.1"));
        assert!(s_ev.iter().any(|e| matches!(e, TcpEvent::Closed(_))));
    }

    #[test]
    fn active_connection_count() {
        let mut client = TcpStack::new(11);
        let mut server = TcpStack::new(12);
        server.listen(80);
        let mut out = Vec::new();
        let key = client.connect(SERVER, 80, &mut out);
        pump(&mut client, &mut server, out, Vec::new());
        assert_eq!(client.active_connections(), 1);
        let mut out = Vec::new();
        client.abort(key, &mut out);
        assert_eq!(client.active_connections(), 0);
        let (_, s_ev) = pump(&mut client, &mut server, out, Vec::new());
        assert!(s_ev.iter().any(|e| matches!(e, TcpEvent::Reset(_))));
    }
}
