//! The vantage-point host: a measurement client behind one VPN egress.
//!
//! VPs execute commands posted by the campaign controller: send a DNS,
//! HTTP, or TLS decoy (Phase I — HTTP/TLS after a real TCP handshake), or
//! send raw handshake-less probes with a chosen initial TTL (Phase II
//! tracerouting; the paper skips handshakes there to avoid holding
//! connections open). Everything a VP observes — DNS answers, ICMP Time
//! Exceeded — is recorded for the campaign to harvest.

use serde::{Deserialize, Serialize};
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::hash::FastMap;
use shadow_netsim::tcp::{ConnKey, TcpEvent, TcpStack};
use shadow_netsim::time::SimTime;
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsMessage, DnsName, Rcode, RecordData};
use shadow_packet::encrypted;
use shadow_packet::http::HttpRequest;
use shadow_packet::icmp::IcmpMessage;
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::tcp::{TcpFlags, TcpSegment};
use shadow_packet::tls::{ClientHello, FRONT_SNI};
use shadow_packet::transport::{DnsTransport, TlsMode};
use shadow_packet::udp::UdpDatagram;
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Retry policy for a DNS decoy: resend the same query (same transaction
/// id, same ident) up to `attempts` more times, `timeout_ms` apart, until
/// an answer arrives. Stub resolvers retry on the lossy real Internet; the
/// fault-injection sweeps rely on this to show DNS-path detection
/// degrading slower than one-shot HTTP/TLS under loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsRetry {
    /// Extra transmissions after the first (0 = retries disabled).
    pub attempts: u8,
    /// Gap between transmissions in simulated milliseconds. Keep this
    /// above the worst-case answer RTT: fault-free runs must never fire a
    /// spurious retransmission, or they would no longer be byte-identical
    /// to runs planned without retry.
    pub timeout_ms: u64,
}

impl DnsRetry {
    /// Paper-realistic stub-resolver default: two retries, 15 s apart.
    pub const STANDARD: DnsRetry = DnsRetry {
        attempts: 2,
        timeout_ms: 15_000,
    };
}

/// A command posted to a VP by the campaign controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VpCommand {
    /// UDP/53 A query for `domain` to `dst` with initial TTL `ttl`;
    /// optionally retry-protected.
    DnsDecoy {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
        retry: Option<DnsRetry>,
    },
    /// TCP handshake to `dst:80`, then `GET / HTTP/1.1` with Host `domain`.
    HttpDecoy {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
    },
    /// TCP handshake to `dst:443`, then a ClientHello with SNI `domain`.
    TlsDecoy {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
    },
    /// Handshake-less HTTP payload probe (Phase II traceroute).
    RawHttpProbe {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
    },
    /// Handshake-less TLS ClientHello probe (Phase II traceroute). The
    /// hello is framed per `mode` so the sweep replays the Phase I flow's
    /// transport instead of leaking sealed names in the clear.
    RawTlsProbe {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
        mode: TlsMode,
    },
    /// Raw UDP datagram (platform pre-flight checks).
    RawUdp {
        dst: Ipv4Addr,
        dst_port: u16,
        ttl: u8,
        payload: Vec<u8>,
    },
    /// Encrypted DNS decoy (the §6 encryption axis): the query is opaque
    /// on the wire — framed per `transport` (DoT/DoH/DoQ) — and only the
    /// terminating resolver sees the name.
    EncryptedDnsDecoy {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
        transport: DnsTransport,
    },
    /// TLS decoy with Encrypted Client Hello (§6 encryption axis):
    /// handshake, then a ClientHello with no clear-text experiment SNI at
    /// all — only the cover name.
    EchTlsDecoy {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
    },
    /// TLS decoy through a fronting CDN: the clear SNI names the front,
    /// the real name rides sealed to the terminating edge. Name-keyed
    /// on-path taps attribute this flow to the wrong site.
    FrontedTlsDecoy {
        domain: DnsName,
        dst: Ipv4Addr,
        ttl: u8,
    },
}

/// A DNS answer the VP received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsAnswerRecord {
    pub at: SimTime,
    pub domain: DnsName,
    pub rcode: Rcode,
    pub answer: Option<Ipv4Addr>,
    pub from: Ipv4Addr,
}

/// An ICMP Time Exceeded the VP received — the traceroute signal. The
/// original datagram's identification field maps it back to the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpObservation {
    pub at: SimTime,
    /// The router that expired the probe (the candidate observer address).
    pub router: Ipv4Addr,
    pub orig_dst: Ipv4Addr,
    pub orig_ident: u16,
}

/// Everything a VP recorded, harvested post-run.
#[derive(Debug, Clone, Default)]
pub struct VpReport {
    pub dns_answers: Vec<DnsAnswerRecord>,
    pub icmp: Vec<IcmpObservation>,
    /// Completed decoy emissions: (time payload left, domain, ident used).
    pub decoys_sent: Vec<(SimTime, DnsName, u16)>,
    /// Probe ident → (domain, requested initial TTL, destination).
    pub ident_map: HashMap<u16, (DnsName, u8, Ipv4Addr)>,
    pub handshake_failures: u64,
}

#[derive(Debug)]
enum PendingConn {
    Http { domain: DnsName, ident: u16 },
    Tls { domain: DnsName, ident: u16 },
    EchTls { domain: DnsName, ident: u16 },
    FrontedTls { domain: DnsName, ident: u16 },
}

/// An unanswered retry-protected DNS decoy awaiting its timeout.
#[derive(Debug)]
struct PendingDns {
    dst: Ipv4Addr,
    ttl: u8,
    /// Encoded UDP datagram of the original query — retransmissions are
    /// byte-identical (same transaction id, same ident).
    payload: Vec<u8>,
    remaining: u8,
    timeout_ms: u64,
}

/// Timer-token namespace for DNS retry timers; low 16 bits carry the ident.
const DNS_RETRY_TOKEN: u64 = 0x5245_5452_0000_0000;

/// The VP host.
pub struct VantagePointHost {
    addr: Ipv4Addr,
    /// Ground-truth provider defect: force every outgoing TTL to this
    /// value (the paper excludes such VPNs after pre-flight checks).
    ttl_rewrite: Option<u8>,
    tcp: TcpStack,
    next_ident: u16,
    pending_conns: FastMap<ConnKey, PendingConn>,
    /// TTL to use for packets of each pending connection.
    conn_ttl: FastMap<ConnKey, u8>,
    /// Unanswered retry-protected DNS decoys, by ident.
    pending_dns: FastMap<u16, PendingDns>,
    pub report: VpReport,
}

impl VantagePointHost {
    pub fn new(addr: Ipv4Addr, seed: u32, ttl_rewrite: Option<u8>) -> Self {
        Self {
            addr,
            ttl_rewrite,
            tcp: TcpStack::new(seed),
            next_ident: 1,
            pending_conns: FastMap::default(),
            conn_ttl: FastMap::default(),
            pending_dns: FastMap::default(),
            report: VpReport::default(),
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    fn effective_ttl(&self, requested: u8) -> u8 {
        self.ttl_rewrite.unwrap_or(requested)
    }

    fn alloc_ident(&mut self, domain: &DnsName, ttl: u8, dst: Ipv4Addr) -> u16 {
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1).max(1);
        self.report
            .ident_map
            .insert(ident, (domain.clone(), ttl, dst));
        ident
    }

    fn packet(
        &self,
        dst: Ipv4Addr,
        proto: IpProtocol,
        ttl: u8,
        ident: u16,
        payload: Vec<u8>,
    ) -> Ipv4Packet {
        Ipv4Packet::new(
            self.addr,
            dst,
            proto,
            self.effective_ttl(ttl),
            ident,
            payload,
        )
    }

    fn emit_tcp(&self, key: ConnKey, segs: Vec<TcpSegment>, ident: u16, ctx: &mut Ctx<'_>) {
        let ttl = self.conn_ttl.get(&key).copied().unwrap_or(DEFAULT_TTL);
        for seg in segs {
            ctx.send(self.packet(key.peer, IpProtocol::Tcp, ttl, ident, seg.encode()));
        }
    }

    fn run_command(&mut self, cmd: VpCommand, ctx: &mut Ctx<'_>) {
        match cmd {
            VpCommand::DnsDecoy {
                domain,
                dst,
                ttl,
                retry,
            } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let query = DnsMessage::query(ident, domain.clone());
                let datagram = UdpDatagram::new(10_000 + ident, 53, query.encode()).encode();
                let pkt = self.packet(dst, IpProtocol::Udp, ttl, ident, datagram.clone());
                self.report.decoys_sent.push((ctx.now(), domain, ident));
                ctx.send(pkt);
                // Retry-free decoys arm no timer at all, so runs planned
                // without retry stay byte-identical to pre-chaos runs.
                if let Some(retry) = retry.filter(|r| r.attempts > 0) {
                    self.pending_dns.insert(
                        ident,
                        PendingDns {
                            dst,
                            ttl,
                            payload: datagram,
                            remaining: retry.attempts,
                            timeout_ms: retry.timeout_ms,
                        },
                    );
                    ctx.timer(
                        shadow_netsim::time::SimDuration::from_millis(retry.timeout_ms),
                        DNS_RETRY_TOKEN | u64::from(ident),
                    );
                }
            }
            VpCommand::HttpDecoy { domain, dst, ttl } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let mut segs = Vec::new();
                let key = self.tcp.connect(dst, 80, &mut segs);
                self.conn_ttl.insert(key, ttl);
                self.pending_conns
                    .insert(key, PendingConn::Http { domain, ident });
                self.emit_tcp(key, segs, ident, ctx);
            }
            VpCommand::TlsDecoy { domain, dst, ttl } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let mut segs = Vec::new();
                let key = self.tcp.connect(dst, 443, &mut segs);
                self.conn_ttl.insert(key, ttl);
                self.pending_conns
                    .insert(key, PendingConn::Tls { domain, ident });
                self.emit_tcp(key, segs, ident, ctx);
            }
            VpCommand::RawHttpProbe { domain, dst, ttl } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let req = HttpRequest::get(domain.as_str(), "/");
                let seg =
                    TcpSegment::new(20_000 + ident, 80, 1, 1, TcpFlags::PSH_ACK, req.encode());
                self.report.decoys_sent.push((ctx.now(), domain, ident));
                ctx.send(self.packet(dst, IpProtocol::Tcp, ttl, ident, seg.encode()));
            }
            VpCommand::RawTlsProbe {
                domain,
                dst,
                ttl,
                mode,
            } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let hello = match mode {
                    TlsMode::ClearSni => {
                        ClientHello::with_sni(domain.as_str(), derive_random(ident))
                    }
                    TlsMode::Ech => ClientHello::with_ech(
                        derive_random(ident),
                        encrypted::seal_name(domain.as_str(), u32::from(ident)),
                    ),
                    TlsMode::FrontedCdn => ClientHello::with_fronted(
                        FRONT_SNI,
                        derive_random(ident),
                        encrypted::seal_name(domain.as_str(), u32::from(ident)),
                    ),
                };
                let seg = TcpSegment::new(
                    21_000 + ident,
                    443,
                    1,
                    1,
                    TcpFlags::PSH_ACK,
                    hello.encode_record(),
                );
                self.report.decoys_sent.push((ctx.now(), domain, ident));
                ctx.send(self.packet(dst, IpProtocol::Tcp, ttl, ident, seg.encode()));
            }
            VpCommand::RawUdp {
                dst,
                dst_port,
                ttl,
                payload,
            } => {
                let ident = self.next_ident;
                self.next_ident = self.next_ident.wrapping_add(1).max(1);
                ctx.send(self.packet(
                    dst,
                    IpProtocol::Udp,
                    ttl,
                    ident,
                    UdpDatagram::new(9_999, dst_port, payload).encode(),
                ));
            }
            VpCommand::EncryptedDnsDecoy {
                domain,
                dst,
                ttl,
                transport,
            } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let query = DnsMessage::query(ident, domain.clone());
                let frame = encrypted::seal_dns(transport, &query, u32::from(ident));
                let pkt = self.packet(
                    dst,
                    IpProtocol::Udp,
                    ttl,
                    ident,
                    UdpDatagram::new(10_000 + ident, encrypted::port_for(transport), frame)
                        .encode(),
                );
                self.report.decoys_sent.push((ctx.now(), domain, ident));
                ctx.send(pkt);
            }
            VpCommand::EchTlsDecoy { domain, dst, ttl } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let mut segs = Vec::new();
                let key = self.tcp.connect(dst, 443, &mut segs);
                self.conn_ttl.insert(key, ttl);
                self.pending_conns
                    .insert(key, PendingConn::EchTls { domain, ident });
                self.emit_tcp(key, segs, ident, ctx);
            }
            VpCommand::FrontedTlsDecoy { domain, dst, ttl } => {
                let ident = self.alloc_ident(&domain, ttl, dst);
                let mut segs = Vec::new();
                let key = self.tcp.connect(dst, 443, &mut segs);
                self.conn_ttl.insert(key, ttl);
                self.pending_conns
                    .insert(key, PendingConn::FrontedTls { domain, ident });
                self.emit_tcp(key, segs, ident, ctx);
            }
        }
    }

    fn on_tcp(&mut self, src: Ipv4Addr, seg: TcpSegment, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        let events = self.tcp.on_segment(src, seg, &mut out);
        // Out-of-band segments (raw probes answered by RSTs) have no conn
        // state; emit with default ident.
        if let Some(key) = out.first().map(|s| ConnKey {
            peer: src,
            peer_port: s.dst_port,
            local_port: s.src_port,
        }) {
            let ident = match self.pending_conns.get(&key) {
                Some(PendingConn::Http { ident, .. })
                | Some(PendingConn::Tls { ident, .. })
                | Some(PendingConn::EchTls { ident, .. })
                | Some(PendingConn::FrontedTls { ident, .. }) => *ident,
                None => 0,
            };
            self.emit_tcp(key, out, ident, ctx);
        }
        for event in events {
            match event {
                TcpEvent::Established(key) => {
                    let Some(pending) = self.pending_conns.get(&key) else {
                        continue;
                    };
                    let (payload, ident, domain) = match pending {
                        PendingConn::Http { domain, ident } => (
                            HttpRequest::get(domain.as_str(), "/").encode(),
                            *ident,
                            domain.clone(),
                        ),
                        PendingConn::Tls { domain, ident } => (
                            ClientHello::with_sni(domain.as_str(), derive_random(*ident))
                                .encode_record(),
                            *ident,
                            domain.clone(),
                        ),
                        PendingConn::EchTls { domain, ident } => {
                            // The real name travels only in the encrypted
                            // inner hello (modeled as a sealed name).
                            let inner = encrypted::seal_name(domain.as_str(), u32::from(*ident));
                            (
                                ClientHello::with_ech(derive_random(*ident), inner).encode_record(),
                                *ident,
                                domain.clone(),
                            )
                        }
                        PendingConn::FrontedTls { domain, ident } => {
                            // Clear SNI = the front; real name sealed for
                            // the terminating edge only.
                            let inner = encrypted::seal_name(domain.as_str(), u32::from(*ident));
                            (
                                ClientHello::with_fronted(FRONT_SNI, derive_random(*ident), inner)
                                    .encode_record(),
                                *ident,
                                domain.clone(),
                            )
                        }
                    };
                    self.report.decoys_sent.push((ctx.now(), domain, ident));
                    let mut out = Vec::new();
                    self.tcp.send(key, payload, &mut out);
                    self.tcp.close(key, &mut out);
                    self.emit_tcp(key, out, ident, ctx);
                }
                TcpEvent::Reset(key) => {
                    if self.pending_conns.remove(&key).is_some() {
                        self.report.handshake_failures += 1;
                    }
                    self.conn_ttl.remove(&key);
                }
                TcpEvent::Closed(key) => {
                    self.pending_conns.remove(&key);
                    self.conn_ttl.remove(&key);
                }
                TcpEvent::Data(..) => {}
            }
        }
    }
}

/// Deterministic ClientHello randomness derived from the probe ident.
fn derive_random(ident: u16) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut x = u64::from(ident) ^ 0x9e37_79b9_7f4a_7c15;
    for chunk in out.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_be_bytes());
    }
    out
}

impl Host for VantagePointHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        match Transport::parse(&pkt) {
            Ok(Transport::Udp(dg))
                if (dg.src_port == encrypted::DOQ_PORT || dg.src_port == encrypted::DOH_PORT)
                    && encrypted::looks_encrypted(&dg.payload) =>
            {
                if let Ok(msg) = encrypted::open(&dg.payload) {
                    if msg.flags.response {
                        if let Some(qname) = msg.qname().cloned() {
                            let answer = msg.answers.iter().find_map(|rr| match rr.data {
                                RecordData::A(a) => Some(a),
                                _ => None,
                            });
                            self.report.dns_answers.push(DnsAnswerRecord {
                                at: ctx.now(),
                                domain: qname,
                                rcode: msg.flags.rcode,
                                answer,
                                from: pkt.header.src,
                            });
                        }
                    }
                }
            }
            Ok(Transport::Udp(dg)) if dg.src_port == 53 => {
                if let Ok(msg) = DnsMessage::decode(&dg.payload) {
                    if msg.flags.response {
                        // An answer (any rcode) settles the decoy: cancel
                        // any outstanding retry.
                        self.pending_dns.remove(&msg.id);
                        if let Some(qname) = msg.qname().cloned() {
                            let answer = msg.answers.iter().find_map(|rr| match rr.data {
                                RecordData::A(a) => Some(a),
                                _ => None,
                            });
                            self.report.dns_answers.push(DnsAnswerRecord {
                                at: ctx.now(),
                                domain: qname,
                                rcode: msg.flags.rcode,
                                answer,
                                from: pkt.header.src,
                            });
                        }
                    }
                }
            }
            Ok(Transport::Tcp(seg)) => self.on_tcp(pkt.header.src, seg, ctx),
            Ok(Transport::Icmp(IcmpMessage::TimeExceeded {
                original_header, ..
            })) => {
                self.report.icmp.push(IcmpObservation {
                    at: ctx.now(),
                    router: pkt.header.src,
                    orig_dst: original_header.dst,
                    orig_ident: original_header.identification,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token & DNS_RETRY_TOKEN != DNS_RETRY_TOKEN {
            return;
        }
        let ident = (token & 0xFFFF) as u16;
        // Already answered ⇒ the timer is a no-op.
        let Some(pending) = self.pending_dns.get_mut(&ident) else {
            return;
        };
        pending.remaining -= 1;
        let (dst, ttl, payload) = (pending.dst, pending.ttl, pending.payload.clone());
        let rearm = pending.remaining > 0;
        if !rearm {
            self.pending_dns.remove(&ident);
        }
        if let Some(m) = ctx.telemetry().metrics() {
            m.dns_retries.inc();
        }
        // Byte-identical retransmission; not re-recorded in decoys_sent —
        // it is the same logical decoy.
        let pkt = self.packet(dst, IpProtocol::Udp, ttl, ident, payload);
        ctx.send(pkt);
        if rearm {
            let timeout = self.pending_dns[&ident].timeout_ms;
            ctx.timer(
                shadow_netsim::time::SimDuration::from_millis(timeout),
                DNS_RETRY_TOKEN | u64::from(ident),
            );
        }
    }

    fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
        if let Ok(cmd) = msg.downcast::<VpCommand>() {
            self.run_command(*cmd, ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_random_is_deterministic_and_distinct() {
        assert_eq!(derive_random(7), derive_random(7));
        assert_ne!(derive_random(7), derive_random(8));
    }

    #[test]
    fn effective_ttl_applies_rewrite_defect() {
        let clean = VantagePointHost::new(Ipv4Addr::new(1, 1, 1, 1), 1, None);
        assert_eq!(clean.effective_ttl(5), 5);
        let broken = VantagePointHost::new(Ipv4Addr::new(1, 1, 1, 1), 1, Some(64));
        assert_eq!(broken.effective_ttl(5), 64);
        assert_eq!(broken.effective_ttl(1), 64);
    }

    #[test]
    fn ident_allocation_tracks_probes() {
        let mut vp = VantagePointHost::new(Ipv4Addr::new(1, 1, 1, 1), 1, None);
        let d = DnsName::parse("x.www.experiment.example").unwrap();
        let dst = Ipv4Addr::new(8, 8, 8, 8);
        let i1 = vp.alloc_ident(&d, 3, dst);
        let i2 = vp.alloc_ident(&d, 4, dst);
        assert_ne!(i1, i2);
        assert_eq!(vp.report.ident_map[&i1], (d.clone(), 3, dst));
        assert_eq!(vp.report.ident_map[&i2], (d, 4, dst));
    }
}
