//! Web endpoints: the honey websites (HTTP + TLS capture with logging) and,
//! with logging disabled, the generic destination servers standing in for
//! the Tranco-top-1K sites HTTP/TLS decoys are sent to.

use crate::capture::{
    capture_with_telemetry, Arrival, ArrivalProtocol, CaptureLog, Label, SharedArrivalSink,
};
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::hash::FastMap;
use shadow_netsim::tcp::{ConnKey, TcpEvent, TcpStack};
use shadow_netsim::time::SimDuration;
use shadow_netsim::topology::NodeId;
use shadow_netsim::transport::Transport;
use shadow_observer::policy::{ReplayPolicy, WeightedChoice};
use shadow_observer::retention::{ObservedProtocol, RetentionStore};
use shadow_observer::scheduler::plan_probes;
use shadow_packet::dns::DnsName;
use shadow_packet::http::{HttpRequest, HttpResponse};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::tcp::TcpSegment;
use shadow_packet::tls::{ClientHello, TlsRecord};
use std::any::Any;
use std::net::Ipv4Addr;

/// Destination-side shadowing: the server's own network silently records
/// clear-text fields (SNI above all) and probes them later. This models
/// the paper's finding that 65% of TLS observers sit *at the destination*
/// (Table 2) — and the sensor parses raw segments, so even Phase II's
/// handshake-less probes are observed once they reach the host.
pub struct SiteShadow {
    pub label: String,
    pub policy: ReplayPolicy,
    pub origins: Vec<WeightedChoice<NodeId>>,
    pub zone_filter: Option<DnsName>,
    /// Watch HTTP Host headers (off for the common SNI-only sensor: the
    /// paper locates 97.7% of HTTP observers on the wire, not at the
    /// destination, while 65% of TLS observers are destination-side).
    pub watch_http: bool,
    pub watch_tls: bool,
    store: RetentionStore,
    seed: u64,
    pub probes_scheduled: u64,
}

impl SiteShadow {
    pub fn new(
        label: &str,
        policy: ReplayPolicy,
        origins: Vec<WeightedChoice<NodeId>>,
        zone_filter: Option<DnsName>,
        retention_capacity: usize,
        retention_ttl: SimDuration,
        seed: u64,
    ) -> Self {
        policy.validate().expect("site shadow policy must validate");
        assert!(!origins.is_empty(), "site shadow needs probe origins");
        Self {
            label: label.to_string(),
            policy,
            origins,
            zone_filter,
            watch_http: true,
            watch_tls: true,
            store: RetentionStore::new(retention_capacity, retention_ttl),
            seed: seed ^ 0x0517_e5d0,
            probes_scheduled: 0,
        }
    }

    /// The common destination-side sensor shape: SNI only.
    #[allow(clippy::too_many_arguments)]
    pub fn new_tls_only(
        label: &str,
        policy: ReplayPolicy,
        origins: Vec<WeightedChoice<NodeId>>,
        zone_filter: Option<DnsName>,
        retention_capacity: usize,
        retention_ttl: SimDuration,
        seed: u64,
    ) -> Self {
        Self {
            watch_http: false,
            ..Self::new(
                label,
                policy,
                origins,
                zone_filter,
                retention_capacity,
                retention_ttl,
                seed,
            )
        }
    }

    fn observe(&mut self, domain: &DnsName, via: ObservedProtocol, ctx: &mut Ctx<'_>) {
        if let Some(zone) = &self.zone_filter {
            if !domain.is_subdomain_of(zone) {
                return;
            }
        }
        let (orders, plan) = plan_probes(
            &self.policy,
            &mut self.store,
            &self.origins,
            self.seed,
            domain,
            via,
            ctx.now(),
            &self.label,
        );
        if plan.capacity_evictions > 0 {
            if let Some(m) = ctx.telemetry().metrics() {
                m.retention_capacity_evictions.add(plan.capacity_evictions);
            }
        }
        self.probes_scheduled += u64::from(plan.probes);
        record_shadow_probes(ctx, domain, u64::from(plan.probes));
        for (origin, delay, order) in orders {
            ctx.post(origin, delay, Box::new(order));
        }
    }
}

/// Count `probes` scheduled shadow probes and journal one
/// [`ShadowProbeScheduled`](shadow_telemetry::EventKind::ShadowProbeScheduled)
/// event for the triggering domain (no-op when none were scheduled).
fn record_shadow_probes(ctx: &Ctx<'_>, domain: &DnsName, probes: u64) {
    if probes == 0 {
        return;
    }
    let telemetry = ctx.telemetry();
    if let Some(m) = telemetry.metrics() {
        m.shadow_probes_scheduled.add(probes);
    }
    telemetry.event(ctx.now().millis(), Some(ctx.node().0), || {
        shadow_telemetry::EventKind::ShadowProbeScheduled {
            domain: domain.as_str().to_string(),
        }
    });
}

/// The purpose-statement homepage the paper documents on the honeypot
/// website ("we document the purpose of our experiment and contact
/// information on the homepage").
pub const HONEYPOT_HOMEPAGE: &str = "<html><head><title>Measurement experiment</title></head>\
<body><h1>Internet measurement experiment</h1>\
<p>This server is part of an academic measurement of Internet traffic \
shadowing. Requests arriving here were triggered by decoy traffic we \
generated; no user data is involved. Contact: research@experiment.example\
</p></body></html>";

/// A web endpoint on ports 80 and 443.
pub struct WebHost {
    addr: Ipv4Addr,
    tcp: TcpStack,
    /// `Some(region)` = honeypot mode with capture; `None` = plain site.
    honeypot_region: Option<Label>,
    captures: CaptureLog,
    /// Streaming correlation sink; installed by the campaign layer before
    /// Phase I traffic starts, `None` during preflight and unit tests.
    sink: Option<SharedArrivalSink>,
    /// Buffered bytes per connection until a full request parses.
    rx: FastMap<ConnKey, Vec<u8>>,
    /// Optional destination-side shadowing sensor.
    shadow: Option<SiteShadow>,
    pub http_requests_served: u64,
    pub tls_hellos_seen: u64,
}

impl WebHost {
    /// A logging honeypot in `region` ("US", "DE", "SG").
    pub fn honeypot(addr: Ipv4Addr, region: &str, seed: u32) -> Self {
        Self::build(addr, Some(region.into()), seed)
    }

    /// A plain destination website (no capture) — a Tranco-site stand-in.
    pub fn plain(addr: Ipv4Addr, seed: u32) -> Self {
        Self::build(addr, None, seed)
    }

    fn build(addr: Ipv4Addr, honeypot_region: Option<Label>, seed: u32) -> Self {
        let mut tcp = TcpStack::new(seed);
        tcp.listen(80);
        tcp.listen(443);
        Self {
            addr,
            tcp,
            honeypot_region,
            captures: CaptureLog::new(),
            sink: None,
            rx: FastMap::default(),
            shadow: None,
            http_requests_served: 0,
            tls_hellos_seen: 0,
        }
    }

    /// Attach a destination-side shadowing sensor (builder style).
    pub fn with_shadow(mut self, shadow: SiteShadow) -> Self {
        self.shadow = Some(shadow);
        self
    }

    pub fn shadow(&self) -> Option<&SiteShadow> {
        self.shadow.as_ref()
    }

    /// Raw packet-level sniffing run before TCP processing: a port-mirror
    /// sensor sees every segment, including Phase II's handshake-less
    /// probes that the TCP stack itself would RST.
    fn sniff(&mut self, seg: &TcpSegment, ctx: &mut Ctx<'_>) {
        let Some(mut shadow) = self.shadow.take() else {
            return;
        };
        if !seg.payload.is_empty() {
            match seg.dst_port {
                80 if shadow.watch_http => {
                    if let Ok(req) = HttpRequest::decode(&seg.payload) {
                        if let Some(host) = req.host() {
                            if let Ok(domain) = DnsName::parse(host) {
                                shadow.observe(&domain, ObservedProtocol::Http, ctx);
                            }
                        }
                    }
                }
                443 if shadow.watch_tls => {
                    if let Ok(hello) = ClientHello::decode_record(&seg.payload) {
                        // Destination-side sensors share the terminating
                        // server's keys: a fronted hello's sealed inner
                        // name is readable here, unlike at any on-path tap
                        // (which sees only the shared front SNI). ECH
                        // stays sealed — those keys live with the
                        // client-facing front, not this origin.
                        let name = hello.fronted_inner().or_else(|| hello.sni());
                        if let Some(name) = name {
                            if let Ok(domain) = DnsName::parse(&name) {
                                shadow.observe(&domain, ObservedProtocol::Tls, ctx);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        self.shadow = Some(shadow);
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    pub fn captures(&self) -> &CaptureLog {
        &self.captures
    }

    pub fn take_captures(&mut self) -> CaptureLog {
        std::mem::take(&mut self.captures)
    }

    /// Install (or clear) the streaming arrival sink.
    pub fn set_arrival_sink(&mut self, sink: Option<SharedArrivalSink>) {
        self.sink = sink;
    }

    fn emit(&self, peer: Ipv4Addr, segs: Vec<shadow_packet::tcp::TcpSegment>, ctx: &mut Ctx<'_>) {
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

    fn capture(&mut self, arrival: Arrival, ctx: &Ctx<'_>) {
        if self.honeypot_region.is_some() {
            capture_with_telemetry(&mut self.captures, self.sink.as_ref(), arrival, ctx);
        }
    }

    fn handle_http(&mut self, key: ConnKey, raw: &[u8], ctx: &mut Ctx<'_>) -> bool {
        let Ok(req) = HttpRequest::decode(raw) else {
            return false; // wait for more bytes
        };
        self.http_requests_served += 1;
        if let Some(region) = self.honeypot_region.clone() {
            if let Some(host) = req.host() {
                if let Ok(domain) = DnsName::parse(host) {
                    self.capture(
                        Arrival {
                            at: ctx.now(),
                            src: key.peer,
                            protocol: ArrivalProtocol::Http,
                            domain,
                            http_path: Some(req.path.clone()),
                            honeypot: region,
                        },
                        ctx,
                    );
                }
            }
        }
        let response = if req.path == "/" {
            HttpResponse::ok(HONEYPOT_HOMEPAGE.as_bytes().to_vec())
        } else {
            HttpResponse::not_found()
        };
        let mut out = Vec::new();
        self.tcp.send(key, response.encode(), &mut out);
        self.tcp.close(key, &mut out);
        self.emit(key.peer, out, ctx);
        true
    }

    fn handle_tls(&mut self, key: ConnKey, raw: &[u8], ctx: &mut Ctx<'_>) -> bool {
        let Ok(hello) = ClientHello::decode_record(raw) else {
            return false;
        };
        self.tls_hellos_seen += 1;
        // The terminating endpoint opens a fronted hello's sealed inner
        // name — correct attribution exactly where an SNI-keyed on-path
        // tap mislabels the flow as the CDN front.
        let fronted = hello.fronted_inner();
        if fronted.is_some() {
            if let Some(m) = ctx.telemetry().metrics() {
                m.fronted_inner_observed.inc();
            }
        }
        if let Some(region) = self.honeypot_region.clone() {
            if let Some(name) = fronted.or_else(|| hello.sni()) {
                if let Ok(domain) = DnsName::parse(&name) {
                    self.capture(
                        Arrival {
                            at: ctx.now(),
                            src: key.peer,
                            protocol: ArrivalProtocol::Https,
                            domain,
                            http_path: None,
                            honeypot: region,
                        },
                        ctx,
                    );
                }
            }
        }
        // Log-and-decline: answer with a fatal handshake_failure alert.
        let mut out = Vec::new();
        self.tcp
            .send(key, TlsRecord::fatal_alert(40).encode(), &mut out);
        self.tcp.close(key, &mut out);
        self.emit(key.peer, out, ctx);
        true
    }
}

impl Host for WebHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        let Ok(Transport::Tcp(seg)) = Transport::parse(&pkt) else {
            return;
        };
        self.sniff(&seg, ctx);
        let mut out = Vec::new();
        let events = self.tcp.on_segment(pkt.header.src, seg, &mut out);
        self.emit(pkt.header.src, out, ctx);
        for event in events {
            match event {
                TcpEvent::Data(key, bytes) => {
                    let buf = self.rx.entry(key).or_default();
                    buf.extend_from_slice(&bytes);
                    let raw = buf.clone();
                    let consumed = match key.local_port {
                        80 => self.handle_http(key, &raw, ctx),
                        443 => self.handle_tls(key, &raw, ctx),
                        _ => true, // unexpected port: discard
                    };
                    if consumed {
                        self.rx.remove(&key);
                    }
                }
                TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                    self.rx.remove(&key);
                }
                TcpEvent::Established(_) => {}
            }
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
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::Engine;
    use shadow_netsim::time::SimTime;
    use shadow_netsim::topology::{NodeId, TopologyBuilder};

    /// A minimal client driving one HTTP or TLS exchange.
    struct Client {
        addr: Ipv4Addr,
        tcp: TcpStack,
        payload: Vec<u8>,
        port: u16,
        server: Ipv4Addr,
        key: Option<ConnKey>,
        pub responses: Vec<Vec<u8>>,
        started: bool,
    }

    impl Client {
        fn new(addr: Ipv4Addr, server: Ipv4Addr, port: u16, payload: Vec<u8>) -> Self {
            Self {
                addr,
                tcp: TcpStack::new(99),
                payload,
                port,
                server,
                key: None,
                responses: Vec::new(),
                started: false,
            }
        }

        fn emit(&self, segs: Vec<shadow_packet::tcp::TcpSegment>, ctx: &mut Ctx<'_>) {
            for seg in segs {
                ctx.send(Ipv4Packet::new(
                    self.addr,
                    self.server,
                    IpProtocol::Tcp,
                    DEFAULT_TTL,
                    0,
                    seg.encode(),
                ));
            }
        }
    }

    impl Host for Client {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            let Ok(Transport::Tcp(seg)) = Transport::parse(&pkt) else {
                return;
            };
            let mut out = Vec::new();
            let events = self.tcp.on_segment(pkt.header.src, seg, &mut out);
            self.emit(out, ctx);
            for event in events {
                match event {
                    TcpEvent::Established(key) => {
                        let mut out = Vec::new();
                        self.tcp.send(key, self.payload.clone(), &mut out);
                        self.emit(out, ctx);
                    }
                    TcpEvent::Data(_, bytes) => self.responses.push(bytes.to_vec()),
                    _ => {}
                }
            }
        }

        fn on_message(&mut self, _msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
            if !self.started {
                self.started = true;
                let mut out = Vec::new();
                self.key = Some(self.tcp.connect(self.server, self.port, &mut out));
                self.emit(out, ctx);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn world() -> (Engine, NodeId, NodeId, Ipv4Addr, Ipv4Addr) {
        let mut tb = TopologyBuilder::new(6);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let web_addr = Ipv4Addr::new(1, 1, 0, 80);
        let client = tb.add_host(Asn(1), client_addr).unwrap();
        let web = tb.add_host(Asn(1), web_addr).unwrap();
        (
            Engine::new(tb.build().unwrap()),
            client,
            web,
            client_addr,
            web_addr,
        )
    }

    #[test]
    fn honeypot_logs_http_request_with_path() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        engine.add_host(web, Box::new(WebHost::honeypot(web_addr, "US", 1)));
        let req = HttpRequest::get("abc123.www.experiment.example", "/.git/config");
        engine.add_host(
            client,
            Box::new(Client::new(client_addr, web_addr, 80, req.encode())),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let host = engine.host_as::<WebHost>(web).unwrap();
        assert_eq!(host.captures().len(), 1);
        let arrival = host.captures().iter().next().unwrap();
        assert_eq!(arrival.protocol, ArrivalProtocol::Http);
        assert_eq!(arrival.domain.as_str(), "abc123.www.experiment.example");
        assert_eq!(arrival.http_path.as_deref(), Some("/.git/config"));
        assert_eq!(arrival.honeypot, "US");
        // Client got the 404.
        let c = engine.host_as::<Client>(client).unwrap();
        assert!(!c.responses.is_empty());
        let resp = HttpResponse::decode(&c.responses.concat()).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn homepage_returns_purpose_statement() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        engine.add_host(web, Box::new(WebHost::honeypot(web_addr, "DE", 2)));
        let req = HttpRequest::get("x.www.experiment.example", "/");
        engine.add_host(
            client,
            Box::new(Client::new(client_addr, web_addr, 80, req.encode())),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let c = engine.host_as::<Client>(client).unwrap();
        let resp = HttpResponse::decode(&c.responses.concat()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("measurement"));
    }

    #[test]
    fn honeypot_logs_tls_sni_and_declines() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        engine.add_host(web, Box::new(WebHost::honeypot(web_addr, "SG", 3)));
        let hello = ClientHello::with_sni("tls7.www.experiment.example", [5u8; 32]);
        engine.add_host(
            client,
            Box::new(Client::new(
                client_addr,
                web_addr,
                443,
                hello.encode_record(),
            )),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let host = engine.host_as::<WebHost>(web).unwrap();
        assert_eq!(host.captures().len(), 1);
        let arrival = host.captures().iter().next().unwrap();
        assert_eq!(arrival.protocol, ArrivalProtocol::Https);
        assert_eq!(arrival.domain.as_str(), "tls7.www.experiment.example");
        // The client got a fatal alert back.
        let c = engine.host_as::<Client>(client).unwrap();
        let rec = TlsRecord::decode(&c.responses.concat()).unwrap();
        assert_eq!(rec.content_type, shadow_packet::tls::CONTENT_TYPE_ALERT);
    }

    #[test]
    fn plain_site_serves_but_never_captures() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        engine.add_host(web, Box::new(WebHost::plain(web_addr, 4)));
        let req = HttpRequest::get("decoy.www.experiment.example", "/");
        engine.add_host(
            client,
            Box::new(Client::new(client_addr, web_addr, 80, req.encode())),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let host = engine.host_as::<WebHost>(web).unwrap();
        assert_eq!(host.captures().len(), 0, "plain sites do not log");
        assert_eq!(host.http_requests_served, 1, "but they do serve");
    }
}
