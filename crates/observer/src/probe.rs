//! Probe origins: the hosts that emit unsolicited requests.
//!
//! The paper stresses that "observers may not initiate unsolicited requests
//! by themselves" — the data flows from the on-path observer to some other
//! machine which performs the probing (security-company proxies, analysis
//! farms, resolver partners). A [`ProbeOriginHost`] is that machine: it
//! receives [`ProbeOrder`] messages (posted by DPI taps or shadowing
//! resolvers), resolves the observed domain, and issues DNS re-queries,
//! HTTP path-enumeration scans, or TLS probes.

use crate::policy::ProbeKind;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha20Rng;
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::hash::FastMap;
use shadow_netsim::tcp::{ConnKey, TcpEvent, TcpStack};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsMessage, DnsName, RecordData};
use shadow_packet::http::HttpRequest;
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::tls::ClientHello;
use shadow_packet::udp::UdpDatagram;
use std::any::Any;
use std::net::Ipv4Addr;

/// How this origin turns a domain into an address for HTTP/TLS probes, and
/// where its unsolicited DNS re-queries go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsVia {
    /// Through a recursive resolver (the common case — hence Google's AS
    /// dominating Figure 6's origins of unsolicited DNS queries).
    Resolver(Ipv4Addr),
    /// Straight at the zone's authoritative server (FireEye-style systems
    /// that extracted the NS themselves).
    Authoritative(Ipv4Addr),
}

impl DnsVia {
    fn target(self) -> Ipv4Addr {
        match self {
            DnsVia::Resolver(a) | DnsVia::Authoritative(a) => a,
        }
    }
}

/// An instruction to probe one observed domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOrder {
    pub domain: DnsName,
    pub kind: ProbeKind,
    /// Ground-truth provenance label (which exhibitor sent this), carried
    /// for tests; the measurement pipeline never reads it.
    pub exhibitor: String,
    /// Per-order randomness (path choice, ClientHello random), drawn by the
    /// exhibitor from its observation-derived stream. Keeping it on the
    /// order makes the origin host's behaviour a pure function of the
    /// orders it receives, independent of their interleaving.
    pub seed: u64,
}

/// One emitted probe, logged for tests and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRecord {
    pub at: SimTime,
    pub domain: DnsName,
    pub kind: ProbeKind,
    pub detail: String,
}

/// The paths an HTTP prober enumerates — the shape Section 5 reports ("95%
/// of requests are performing path enumeration ... no malicious payloads or
/// vulnerability exploit codes").
pub const ENUMERATION_PATHS: &[&str] = &[
    "/",
    "/robots.txt",
    "/admin/",
    "/login",
    "/wp-login.php",
    "/backup/",
    "/.git/config",
    "/config.php",
    "/phpinfo.php",
    "/api/",
    "/static/",
    "/images/",
    "/uploads/",
    "/test/",
    "/old/",
];

#[derive(Debug)]
enum ConnPurpose {
    Http { domain: DnsName, path: String },
    Https { domain: DnsName, seed: u64 },
}

/// Internal self-posted message driving one extra enumeration request; kept
/// separate from [`ProbeOrder`] so follow-ups don't fan out recursively.
struct FollowUpHttp {
    domain: DnsName,
    seed: u64,
}

/// A host that executes probe orders.
pub struct ProbeOriginHost {
    addr: Ipv4Addr,
    dns_via: DnsVia,
    /// Number of HTTP requests one Http order fans into (path enumeration).
    http_paths_per_order: usize,
    tcp: TcpStack,
    next_dns_id: u16,
    /// DNS lookups in flight: query id → (domain, what to do once
    /// resolved, the order's seed).
    pending_dns: FastMap<u16, (DnsName, ProbeKind, u64)>,
    /// TCP connections in flight.
    pending_conns: FastMap<ConnKey, ConnPurpose>,
    /// Everything this origin emitted.
    pub log: Vec<ProbeRecord>,
}

impl ProbeOriginHost {
    pub fn new(addr: Ipv4Addr, dns_via: DnsVia, seed: u64) -> Self {
        Self {
            addr,
            dns_via,
            http_paths_per_order: 2,
            tcp: TcpStack::new(seed as u32 | 1),
            next_dns_id: 1,
            pending_dns: FastMap::default(),
            pending_conns: FastMap::default(),
            log: Vec::new(),
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    pub fn set_http_paths_per_order(&mut self, n: usize) {
        self.http_paths_per_order = n.max(1);
    }

    fn udp(&self, dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>) -> Ipv4Packet {
        Ipv4Packet::new(
            self.addr,
            dst,
            IpProtocol::Udp,
            DEFAULT_TTL,
            0,
            UdpDatagram::new(30_000 + self.next_dns_id, dst_port, payload).encode(),
        )
    }

    fn tcp_packets(
        &self,
        peer: Ipv4Addr,
        segs: Vec<shadow_packet::tcp::TcpSegment>,
        ctx: &mut Ctx<'_>,
    ) {
        for seg in segs {
            ctx.send(Ipv4Packet::new(
                self.addr,
                peer,
                IpProtocol::Tcp,
                DEFAULT_TTL,
                0,
                seg.encode(),
            ));
        }
    }

    /// Issue the DNS lookup that precedes any probe (or *is* the probe, for
    /// `ProbeKind::Dns`).
    fn start_lookup(&mut self, domain: DnsName, kind: ProbeKind, seed: u64, ctx: &mut Ctx<'_>) {
        let id = self.next_dns_id;
        self.next_dns_id = self.next_dns_id.wrapping_add(1).max(1);
        let query = DnsMessage::query(id, domain.clone());
        let pkt = self.udp(self.dns_via.target(), 53, query.encode());
        self.pending_dns.insert(id, (domain.clone(), kind, seed));
        self.log.push(ProbeRecord {
            at: ctx.now(),
            domain,
            kind: ProbeKind::Dns,
            detail: format!("lookup via {:?}", self.dns_via),
        });
        ctx.send(pkt);
    }

    fn on_dns_response(&mut self, msg: DnsMessage, ctx: &mut Ctx<'_>) {
        let Some((domain, kind, seed)) = self.pending_dns.remove(&msg.id) else {
            return;
        };
        let addr = msg.answers.iter().find_map(|rr| match rr.data {
            RecordData::A(a) => Some(a),
            _ => None,
        });
        let Some(addr) = addr else {
            return; // NXDOMAIN or empty answer: probe dies here.
        };
        match kind {
            ProbeKind::Dns => {
                // The lookup itself was the probe; nothing more to do.
            }
            ProbeKind::Http => {
                let mut rng = ChaCha20Rng::seed_from_u64(seed);
                let path = if self
                    .pending_conns
                    .values()
                    .any(|p| matches!(p, ConnPurpose::Http { domain: d, .. } if *d == domain))
                {
                    // Follow-up orders enumerate deeper paths.
                    ENUMERATION_PATHS[rng.gen_range(1..ENUMERATION_PATHS.len())].to_string()
                } else {
                    ENUMERATION_PATHS[rng.gen_range(0..ENUMERATION_PATHS.len())].to_string()
                };
                let mut segs = Vec::new();
                let key = self.tcp.connect(addr, 80, &mut segs);
                self.pending_conns
                    .insert(key, ConnPurpose::Http { domain, path });
                self.tcp_packets(addr, segs, ctx);
            }
            ProbeKind::Https => {
                let mut segs = Vec::new();
                let key = self.tcp.connect(addr, 443, &mut segs);
                self.pending_conns
                    .insert(key, ConnPurpose::Https { domain, seed });
                self.tcp_packets(addr, segs, ctx);
            }
        }
    }

    fn on_tcp(&mut self, src: Ipv4Addr, seg: shadow_packet::tcp::TcpSegment, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        let events = self.tcp.on_segment(src, seg, &mut out);
        self.tcp_packets(src, out, ctx);
        for event in events {
            match event {
                TcpEvent::Established(key) => {
                    let Some(purpose) = self.pending_conns.get(&key) else {
                        continue;
                    };
                    let (payload, record) = match purpose {
                        ConnPurpose::Http { domain, path } => (
                            HttpRequest::get(domain.as_str(), path).encode(),
                            ProbeRecord {
                                at: ctx.now(),
                                domain: domain.clone(),
                                kind: ProbeKind::Http,
                                detail: format!("GET {path}"),
                            },
                        ),
                        ConnPurpose::Https { domain, seed } => {
                            let mut random = [0u8; 32];
                            ChaCha20Rng::seed_from_u64(*seed).fill(&mut random);
                            (
                                ClientHello::with_sni(domain.as_str(), random).encode_record(),
                                ProbeRecord {
                                    at: ctx.now(),
                                    domain: domain.clone(),
                                    kind: ProbeKind::Https,
                                    detail: "ClientHello".to_string(),
                                },
                            )
                        }
                    };
                    self.log.push(record);
                    let mut out = Vec::new();
                    self.tcp.send(key, payload, &mut out);
                    self.tcp_packets(key.peer, out, ctx);
                }
                TcpEvent::Data(key, _bytes) => {
                    // Response received; the prober closes after one round.
                    let mut out = Vec::new();
                    self.tcp.close(key, &mut out);
                    self.tcp_packets(key.peer, out, ctx);
                    self.pending_conns.remove(&key);
                }
                TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                    self.pending_conns.remove(&key);
                }
            }
        }
    }
}

impl Host for ProbeOriginHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        match Transport::parse(&pkt) {
            Ok(Transport::Udp(dg)) if dg.src_port == 53 => {
                if let Ok(msg) = DnsMessage::decode(&dg.payload) {
                    if msg.flags.response {
                        self.on_dns_response(msg, ctx);
                    }
                }
            }
            Ok(Transport::Tcp(seg)) => self.on_tcp(pkt.header.src, seg, ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<ProbeOrder>() {
            Ok(order) => {
                let order = *order;
                match order.kind {
                    ProbeKind::Dns => {
                        self.start_lookup(order.domain, ProbeKind::Dns, order.seed, ctx)
                    }
                    ProbeKind::Https => {
                        self.start_lookup(order.domain, ProbeKind::Https, order.seed, ctx)
                    }
                    ProbeKind::Http => {
                        // Path enumeration: fan one order into several
                        // staggered single-request connections, each with a
                        // sub-seed split from the order's.
                        self.start_lookup(order.domain.clone(), ProbeKind::Http, order.seed, ctx);
                        for i in 1..self.http_paths_per_order {
                            ctx.post(
                                ctx.node(),
                                SimDuration::from_millis(200 * i as u64),
                                Box::new(FollowUpHttp {
                                    domain: order.domain.clone(),
                                    seed: order.seed.wrapping_add(
                                        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                                    ),
                                }),
                            );
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if let Ok(follow_up) = msg.downcast::<FollowUpHttp>() {
            self.start_lookup(follow_up.domain, ProbeKind::Http, follow_up.seed, ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
