//! Phase I: spread decoys from every vantage point to every destination,
//! run the simulated clock forward, and harvest honeypot captures.

use crate::decoy::{DecoyProtocol, DecoyRegistry};
use crate::sink::{CorrelationAggregates, CorrelationSink, SinkConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use shadow_honeypot::authority::ExperimentAuthorityHost;
use shadow_honeypot::capture::{Arrival, CaptureLog};
use shadow_honeypot::web::WebHost;
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::NodeId;
use shadow_packet::dns::DnsName;
use shadow_packet::transport::{DnsTransport, EncryptionDeployment, TlsMode};
use shadow_telemetry::{sort_records, EventKind, JournalRecord, MetricsSnapshot};
use shadow_topo::RouterGraphBuilder;
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::{DnsRetry, VantagePointHost, VpCommand, VpReport};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Phase I configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase1Config {
    pub send_dns: bool,
    pub send_http: bool,
    pub send_tls: bool,
    /// The §6 encryption axis: how deeply DoT/DoH/DoQ and ECH/fronting are
    /// deployed across this campaign's flows. Each planned decoy derives
    /// its [`TransportProfile`](shadow_packet::TransportProfile) from this
    /// deployment by a pure hash of (VP ident, destination) — the default
    /// [`EncryptionDeployment::plaintext`] reproduces pre-encryption-axis
    /// campaigns byte-for-byte.
    pub encryption: EncryptionDeployment,
    /// Full passes over (VP × destination); the paper round-robins
    /// "continuously ... without stop" for two months.
    pub rounds: usize,
    /// Gap between rounds.
    pub round_gap: SimDuration,
    /// How long to keep the clock running after the last send, so that
    /// days-later probes still land (Figure 4's ≥10-day tail).
    pub grace: SimDuration,
    /// Retry policy for clear-text DNS decoys (None = one-shot). Installed
    /// by fault-injection studies: on a lossy network, retried DNS decoys
    /// keep the DNS detection path alive while one-shot HTTP/TLS decoys
    /// fade. Fault-free runs are unaffected — answers always arrive before
    /// the timeout, so no retransmission ever fires.
    pub dns_retry: Option<DnsRetry>,
}

impl Default for Phase1Config {
    fn default() -> Self {
        Self {
            send_dns: true,
            send_http: true,
            send_tls: true,
            encryption: EncryptionDeployment::plaintext(),
            rounds: 1,
            round_gap: SimDuration::from_hours(12),
            grace: SimDuration::from_days(30),
            dns_retry: None,
        }
    }
}

/// Everything Phase I produced: the decoy registry, every capture, and the
/// per-VP reports.
#[derive(Debug, Clone, Default)]
pub struct CampaignData {
    pub registry: DecoyRegistry,
    /// Raw arrivals — populated only when the phase ran with
    /// [`SinkConfig::retain_arrivals`]; the streaming default leaves this
    /// empty and [`CampaignData::aggregates`] carries the analysis state.
    pub arrivals: Vec<Arrival>,
    pub vp_reports: HashMap<VpId, VpReport>,
    /// When the last decoy left a VP.
    pub last_send: SimTime,
    /// Telemetry snapshot for this phase/shard (empty when disabled).
    pub metrics: MetricsSnapshot,
    /// Journal records for this phase/shard (empty unless journaling).
    pub journal: Vec<JournalRecord>,
    /// Streamed correlation aggregates folded at capture time.
    pub aggregates: CorrelationAggregates,
    /// Router-graph fold from Phase II Time-Exceeded evidence (empty for
    /// Phase I). Per-shard folds are disjoint by probe path, so absorbing
    /// them reconstructs the sequential run's graph exactly.
    pub router_graph: RouterGraphBuilder,
}

impl CampaignData {
    /// Absorb another phase's (or shard's) data. Commutative up to the
    /// canonical orders the consumers see: arrivals are re-sorted into the
    /// total [`Arrival::sort_key`] order after every merge, so the result
    /// is independent of absorb order (e.g. worker-thread completion
    /// order). Registries must be disjoint or identical per domain.
    pub fn absorb(&mut self, other: CampaignData) {
        self.registry.absorb(other.registry);
        self.arrivals.extend(other.arrivals);
        self.arrivals
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        for (vp, report) in other.vp_reports {
            self.vp_reports.insert(vp, report);
        }
        self.last_send = self.last_send.max(other.last_send);
        self.metrics.merge(&other.metrics);
        if !other.journal.is_empty() {
            self.journal.extend(other.journal);
            sort_records(&mut self.journal);
        }
        self.aggregates.absorb(other.aggregates);
        self.router_graph.absorb(other.router_graph);
    }
}

/// One scheduled decoy send: post `command` to `node` (VP `vp`) at `at`.
#[derive(Debug, Clone)]
pub struct PlannedSend {
    pub at: SimTime,
    pub vp: VpId,
    pub node: NodeId,
    pub command: VpCommand,
}

/// The global Phase I send schedule: the rate-limited scheduler's output,
/// computed once without touching the engine.
///
/// The plan holds only what is global — one send time per planned decoy —
/// and leaves the decoys themselves (domain, registry record, VP command)
/// to [`CampaignRunner::execute_phase1`], which materializes just the sends
/// its VPs own. A chunk of a multi-chunk run therefore pays for its own
/// slice of decoys, in parallel with the other chunks, while the scheduler
/// pass (whose per-target rate limit couples every VP) still runs once.
///
/// `sends` is in plan order: round → VP (scout roster order) → the DNS
/// destinations, then each site's HTTP and TLS decoy, each protocol only
/// when the config sends it. Every VP owns one run of consecutive times
/// per round.
#[derive(Debug)]
pub struct Phase1Plan {
    /// One scheduled send time per planned decoy, in plan order; its
    /// length is the campaign's planned-send count.
    pub sends: Vec<SimTime>,
    /// When the last decoy leaves a VP — global across all chunks.
    pub last_send: SimTime,
    /// The planning config: its protocol switches fix the plan's layout,
    /// and its encryption and retry settings shape the materialized
    /// commands.
    config: Phase1Config,
    zone: DnsName,
    /// The scout's post-pre-flight VP roster `(id, node, addr)`.
    vps: Vec<(VpId, NodeId, Ipv4Addr)>,
    dns_targets: Vec<Ipv4Addr>,
    web_targets: Vec<Ipv4Addr>,
}

impl Phase1Plan {
    /// One VP's sends in one round, in plan order: the DNS destinations,
    /// then each site's HTTP and TLS decoy. Planning and materialization
    /// both walk this sequence, so send times and decoys line up.
    fn vp_sends(&self) -> impl Iterator<Item = (DecoyProtocol, Ipv4Addr)> + '_ {
        let c = &self.config;
        let dns = self
            .dns_targets
            .iter()
            .filter(move |_| c.send_dns)
            .map(|&dst| (DecoyProtocol::Dns, dst));
        let web = self.web_targets.iter().flat_map(move |&dst| {
            [
                (c.send_http, DecoyProtocol::Http),
                (c.send_tls, DecoyProtocol::Tls),
            ]
            .into_iter()
            .filter(|&(on, _)| on)
            .map(move |(_, protocol)| (protocol, dst))
        });
        dns.chain(web)
    }

    /// Planned sends per VP per round.
    fn sends_per_vp(&self) -> usize {
        self.vp_sends().count()
    }

    /// Register, journal and post one VP's run of sends for one round.
    fn materialize_vp(
        &self,
        world: &mut World,
        registry: &mut DecoyRegistry,
        (vp, node, vp_addr): (VpId, NodeId, Ipv4Addr),
        times: &[SimTime],
    ) {
        for ((protocol, dst), &at) in self.vp_sends().zip(times) {
            let domain = registry
                .register(vp, vp_addr, dst, protocol, DECOY_TTL, at, None)
                .domain;
            let command = decoy_command(&self.config, protocol, vp, dst, domain);
            post_decoy(
                world,
                PlannedSend {
                    at,
                    vp,
                    node,
                    command,
                },
            );
        }
    }
}

/// Initial TTL of every Phase I decoy: high enough to reach any
/// destination (Phase II sweeps lower TTLs to localize observers).
const DECOY_TTL: u8 = 64;

/// The Phase I command for one decoy, over the transport the encryption
/// deployment assigns to `(vp, dst)`.
fn decoy_command(
    config: &Phase1Config,
    protocol: DecoyProtocol,
    vp: VpId,
    dst: Ipv4Addr,
    domain: DnsName,
) -> VpCommand {
    let ttl = DECOY_TTL;
    match protocol {
        DecoyProtocol::Dns => match config.encryption.profile_for(vp.0, dst).dns {
            DnsTransport::Udp53 => VpCommand::DnsDecoy {
                domain,
                dst,
                ttl,
                retry: config.dns_retry,
            },
            transport => VpCommand::EncryptedDnsDecoy {
                domain,
                dst,
                ttl,
                transport,
            },
        },
        DecoyProtocol::Http => VpCommand::HttpDecoy { domain, dst, ttl },
        DecoyProtocol::Tls => match config.encryption.profile_for(vp.0, dst).tls {
            TlsMode::ClearSni => VpCommand::TlsDecoy { domain, dst, ttl },
            TlsMode::Ech => VpCommand::EchTlsDecoy { domain, dst, ttl },
            TlsMode::FrontedCdn => VpCommand::FrontedTlsDecoy { domain, dst, ttl },
        },
    }
}

/// The campaign runner.
pub struct CampaignRunner;

impl CampaignRunner {
    /// Run Phase I on `world` and harvest captures, keeping the raw
    /// arrival vector alongside the streamed aggregates — the one-world
    /// harness for tests and examples. Campaigns run through
    /// [`crate::executor::run_phase1_work_stealing`], which takes a
    /// [`SinkConfig`].
    pub fn run_phase1(world: &mut World, config: &Phase1Config) -> CampaignData {
        let plan = Self::plan_phase1(world, config);
        Self::execute_phase1(world, &plan, config, SinkConfig::retained(), |_| true)
    }

    /// Schedule every Phase I send without posting or naming anything.
    pub fn plan_phase1(world: &World, config: &Phase1Config) -> Phase1Plan {
        let mut scheduler = RateLimitedScheduler::paper_defaults();
        let start0 = world.engine.now() + SimDuration::from_secs(5);
        let mut plan = Phase1Plan {
            sends: Vec::new(),
            last_send: world.engine.now(),
            config: config.clone(),
            zone: world.zone.clone(),
            vps: world
                .platform
                .vps
                .iter()
                .map(|vp| (vp.id, vp.node, vp.addr))
                .collect(),
            dns_targets: world.dns_destinations.iter().map(|d| d.addr).collect(),
            web_targets: world.tranco.iter().map(|s| s.addr).collect(),
        };
        let mut sends = Vec::with_capacity(plan.vps.len() * plan.sends_per_vp() * config.rounds);
        for round in 0..config.rounds {
            let round_start = start0 + config.round_gap.saturating_mul(round as u64);
            for &(vp, _, _) in &plan.vps {
                for (_, dst) in plan.vp_sends() {
                    sends.push(scheduler.reserve(round_start, vp, dst));
                }
            }
        }
        plan.last_send = sends.iter().copied().fold(plan.last_send, SimTime::max);
        plan.sends = sends;
        plan
    }

    /// Materialize and post the sends of `plan` whose VPs satisfy `owns`,
    /// run the clock through the *global* grace window, and harvest. With
    /// `owns = |_| true` this is exactly the one-chunk Phase I; a
    /// multi-chunk run calls it once per chunk with disjoint ownership
    /// predicates and absorbs the results.
    ///
    /// Only owned sends are named, registered and posted — in plan order,
    /// so a chunk's registry, engine post order and journal are the
    /// one-chunk run's restricted to its VPs.
    pub fn execute_phase1(
        world: &mut World,
        plan: &Phase1Plan,
        config: &Phase1Config,
        sink: SinkConfig,
        owns: impl Fn(VpId) -> bool,
    ) -> CampaignData {
        let owned: Vec<bool> = plan.vps.iter().map(|&(vp, _, _)| owns(vp)).collect();
        let per_vp = plan.sends_per_vp();
        let mut registry = DecoyRegistry::new(plan.zone.clone());
        registry.reserve(owned.iter().filter(|&&o| o).count() * per_vp * plan.config.rounds);
        if per_vp > 0 {
            // Run `slot` is VP `slot % #VPs` in round `slot / #VPs`.
            for (slot, times) in plan.sends.chunks_exact(per_vp).enumerate() {
                let vp = slot % plan.vps.len();
                if owned[vp] {
                    plan.materialize_vp(world, &mut registry, plan.vps[vp], times);
                }
            }
        }
        // Posting only queues events, so the sink is in place before any
        // arrival can reach it.
        let shared = install_sink(world, &registry, sink);
        world.engine.run_until(plan.last_send + config.grace);
        let (arrivals, vp_reports) = Self::harvest_filtered(world, &owns);
        let aggregates = drain_sink(world, &shared);
        emit_phase_end(world, "phase1");
        let (metrics, journal) = drain_telemetry(world);
        CampaignData {
            registry,
            arrivals,
            vp_reports,
            last_send: plan.last_send,
            metrics,
            journal,
            aggregates,
            router_graph: RouterGraphBuilder::new(),
        }
    }

    /// Drain capture logs from the authoritative honeypot and the honey
    /// web servers, and snapshot VP reports. Draining means each phase
    /// sees only its own captures.
    pub fn harvest(world: &mut World) -> (Vec<Arrival>, HashMap<VpId, VpReport>) {
        Self::harvest_filtered(world, |_| true)
    }

    /// Like [`CampaignRunner::harvest`], but only snapshot reports for VPs
    /// satisfying `owns` (a shard reports only the VPs it drove; the
    /// others sat idle in its copy of the world).
    pub fn harvest_filtered(
        world: &mut World,
        owns: impl Fn(VpId) -> bool,
    ) -> (Vec<Arrival>, HashMap<VpId, VpReport>) {
        let mut logs: Vec<CaptureLog> = Vec::new();
        let auth_node = world.auth_node;
        if let Some(auth) = world
            .engine
            .host_as_mut::<ExperimentAuthorityHost>(auth_node)
        {
            logs.push(std::mem::take(&mut auth.captures));
        }
        let web_nodes: Vec<_> = world.honey_web.iter().map(|&(node, _, _)| node).collect();
        for node in web_nodes {
            if let Some(web) = world.engine.host_as_mut::<WebHost>(node) {
                logs.push(web.take_captures());
            }
        }
        let arrivals = CaptureLog::merged(logs);
        let mut vp_reports = HashMap::new();
        for vp in &world.platform.vps {
            if !owns(vp.id) {
                continue;
            }
            if let Some(host) = world.engine.host_as::<VantagePointHost>(vp.node) {
                vp_reports.insert(vp.id, host.report.clone());
            }
        }
        (arrivals, vp_reports)
    }
}

/// Build a [`CorrelationSink`] over this phase's registry slice and hand a
/// shared handle to every capture point. The sink sees arrivals in the
/// exact order the honeypots capture them.
pub(crate) fn install_sink(
    world: &mut World,
    registry: &DecoyRegistry,
    config: SinkConfig,
) -> shadow_honeypot::capture::SharedArrivalSink {
    let shared = CorrelationSink::shared(std::sync::Arc::new(registry.clone()), config);
    world.install_arrival_sink(Some(shared.clone()));
    shared
}

/// Uninstall the phase's sink and take its aggregates, recording the sink
/// state size (classifier entries + per-decoy folds) into the run metrics.
pub(crate) fn drain_sink(
    world: &mut World,
    shared: &shadow_honeypot::capture::SharedArrivalSink,
) -> CorrelationAggregates {
    world.install_arrival_sink(None);
    let (aggregates, state_size) = CorrelationSink::drain_shared(shared);
    if let Some(m) = world.engine.telemetry().metrics() {
        m.sink_tracked_decoys.add(state_size as u64);
    }
    aggregates
}

/// Count a planned decoy send and (when journaling) record the
/// [`EventKind::DecoySent`] event, stamped with its scheduled sim-time and
/// the VP's node. Pre-flight `RawUdp` checks carry no decoy identifier and
/// are not counted.
fn record_decoy_send(world: &World, send: &PlannedSend) {
    let telemetry = world.engine.telemetry();
    if !telemetry.is_enabled() {
        return;
    }
    let (protocol, domain, dst, ttl) = match &send.command {
        VpCommand::DnsDecoy {
            domain, dst, ttl, ..
        }
        | VpCommand::EncryptedDnsDecoy {
            domain, dst, ttl, ..
        } => ("DNS", domain, *dst, *ttl),
        VpCommand::HttpDecoy { domain, dst, ttl }
        | VpCommand::RawHttpProbe { domain, dst, ttl } => ("HTTP", domain, *dst, *ttl),
        VpCommand::TlsDecoy { domain, dst, ttl }
        | VpCommand::EchTlsDecoy { domain, dst, ttl }
        | VpCommand::FrontedTlsDecoy { domain, dst, ttl }
        | VpCommand::RawTlsProbe {
            domain, dst, ttl, ..
        } => ("TLS", domain, *dst, *ttl),
        _ => return,
    };
    if let Some(m) = telemetry.metrics() {
        m.decoys_sent.inc(protocol);
    }
    let vp = send.vp.0;
    telemetry.event(send.at.0, Some(send.node.0), || EventKind::DecoySent {
        protocol: protocol.to_string(),
        domain: domain.as_str().to_string(),
        vp,
        dst,
        ttl,
    });
}

/// Record `send` (see [`record_decoy_send`]) and post its command.
pub(crate) fn post_decoy(world: &mut World, send: PlannedSend) {
    record_decoy_send(world, &send);
    world
        .engine
        .post(send.at, send.node, Box::new(send.command));
}

/// Journal a [`EventKind::PhaseEnded`] marker (meta — skipped by diffs).
pub(crate) fn emit_phase_end(world: &World, phase: &str) {
    let telemetry = world.engine.telemetry();
    let shard = telemetry.shard();
    let phase = phase.to_string();
    telemetry.event(world.engine.now().0, None, || EventKind::PhaseEnded {
        phase,
        shard,
    });
}

/// Snapshot-and-reset the engine's telemetry into `(metrics, journal)`,
/// with the journal sorted into the canonical total order. Each phase calls
/// this once at harvest time, so consecutive phases never double-count.
pub(crate) fn drain_telemetry(world: &World) -> (MetricsSnapshot, Vec<JournalRecord>) {
    let telemetry = world.engine.telemetry();
    let metrics = telemetry.take_snapshot();
    let mut journal = telemetry.drain_journal();
    sort_records(&mut journal);
    (metrics, journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseFilter;
    use crate::world::{generate_spec, WorldConfig};
    use shadow_telemetry::Telemetry;

    fn tiny_world() -> World {
        let mut world = generate_spec(WorldConfig::tiny(7)).instantiate();
        NoiseFilter::run_and_apply(&mut world);
        world
    }

    #[test]
    fn plan_holds_one_time_per_send_for_every_protocol_mix() {
        let world = tiny_world();
        let vps = world.platform.vps.len();
        let dns = world.dns_destinations.len();
        let sites = world.tranco.len();
        assert!(vps > 1 && dns > 0 && sites > 0);
        for mask in 0..8u8 {
            for rounds in [1, 3] {
                let config = Phase1Config {
                    send_dns: mask & 1 != 0,
                    send_http: mask & 2 != 0,
                    send_tls: mask & 4 != 0,
                    rounds,
                    ..Phase1Config::default()
                };
                let plan = CampaignRunner::plan_phase1(&world, &config);
                let per_vp = dns * usize::from(config.send_dns)
                    + sites * (usize::from(config.send_http) + usize::from(config.send_tls));
                assert_eq!(plan.sends_per_vp(), per_vp, "{config:?}");
                assert_eq!(plan.sends.len(), vps * per_vp * rounds, "{config:?}");
                let latest = plan.sends.iter().copied().max();
                assert_eq!(
                    plan.last_send,
                    latest.unwrap_or(world.engine.now()),
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn owning_no_vp_posts_nothing() {
        let mut world = tiny_world();
        world.engine.set_telemetry(Telemetry::metrics_only(0));
        let config = Phase1Config::default();
        let plan = CampaignRunner::plan_phase1(&world, &config);
        assert!(!plan.sends.is_empty());
        let data = CampaignRunner::execute_phase1(
            &mut world,
            &plan,
            &config,
            SinkConfig::retained(),
            |_| false,
        );
        assert!(data.registry.is_empty());
        assert!(data.arrivals.is_empty());
        assert!(data.vp_reports.is_empty());
        assert!(data.metrics.world.decoys_sent.values().all(|&n| n == 0));
        assert_eq!(data.metrics.world.packets_forwarded, 0);
    }
}
