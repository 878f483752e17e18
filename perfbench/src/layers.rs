//! A study composed from each layer's public calls, one chunk at a time,
//! with a span around every call. The same composition (tracer off) is
//! the one-chunk reference every timed study's output is checked against,
//! and it supplies the set-up timings.

use crate::host;
use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::time::Instant;
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_core::campaign::{CampaignData, CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::correlate::{CorrelatedRequest, Correlator, PathKey};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::noise::{NoiseFilter, PreflightOutcome};
use traffic_shadowing::shadow_core::phase2::{
    paths_to_trace_streamed, Phase2Config, Phase2Runner, TracerouteResult,
};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, World, WorldSpec};
use traffic_shadowing::shadow_intel::{Blocklist, PortScanner};
use traffic_shadowing::shadow_netsim::engine::EngineStats;
use traffic_shadowing::shadow_telemetry::{sort_records, JournalRecord, MetricsSnapshot};
use traffic_shadowing::shadow_vantage::platform::VpId;
use traffic_shadowing::shadow_vantage::vp::DnsRetry;
use traffic_shadowing::study::{StudyConfig, StudyOutcome};

/// What a one-chunk study produced beyond its outcome.
pub struct ChunkRun {
    pub outcome: StudyOutcome,
    pub plan_sends: usize,
    /// VmRSS right after the plan was compiled.
    pub plan_rss_mb: f64,
    /// The chunk engine's counters after both phases.
    pub stats: EngineStats,
    /// Phase I execution wall (the one-chunk Phase I is set-up plus this).
    pub execute_s: f64,
    pub phase2_execute_s: f64,
}

/// The Phase I configuration a study runs: the fault profile's DNS retry
/// policy folded in unless the config sets one.
pub fn phase1_config(config: &StudyConfig) -> Phase1Config {
    let mut phase1 = config.phase1.clone();
    if phase1.dns_retry.is_none() {
        if let Some(profile) = &config.faults {
            phase1.dns_retry = profile.dns_retry.map(|r| DnsRetry {
                attempts: r.attempts,
                timeout_ms: r.timeout_ms,
            });
        }
    }
    phase1
}

/// The Phase II configuration: the TTL sweep frames its decoys with the
/// Phase I encryption deployment.
pub fn phase2_config(config: &StudyConfig) -> Phase2Config {
    Phase2Config {
        encryption: config.phase1.encryption.clone(),
        ..config.phase2.clone()
    }
}

pub fn sink_config(config: &StudyConfig) -> SinkConfig {
    if config.retain_arrivals {
        SinkConfig::retained()
    } else {
        SinkConfig::streaming()
    }
}

/// The VPs allowed to post sends: the first `limit` in platform order, as
/// the executor's bounded variants define them (`None`: everyone).
pub fn executing_vps(spec: &WorldSpec, limit: Option<usize>) -> Option<BTreeSet<VpId>> {
    limit.map(|n| spec.platform.vps.iter().take(n).map(|vp| vp.id).collect())
}

/// Run `f` in a span and return its wall seconds too.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    study: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let started = Instant::now();
    let out = tracer.time(name, study, f);
    (out, started.elapsed().as_secs_f64())
}

/// Wall seconds of the four set-up calls alone: spec, instantiate,
/// pre-flight and plan.
pub fn setup_only(config: &StudyConfig) -> f64 {
    let started = Instant::now();
    let spec = generate_spec(config.world.clone());
    let mut world = spec.instantiate();
    NoiseFilter::run_and_apply(&mut world);
    let plan = CampaignRunner::plan_phase1(&world, &phase1_config(config));
    let wall = started.elapsed().as_secs_f64();
    std::hint::black_box(&plan);
    wall
}

/// Run one study in a single chunk through the layers' public calls.
/// `vp_limit` bounds which VPs post Phase I sends, as
/// `run_phase1_work_stealing_bounded` does.
pub fn run_one_chunk(
    config: &StudyConfig,
    vp_limit: Option<usize>,
    tracer: &mut Tracer,
    study: u64,
) -> ChunkRun {
    let spec = tracer.time("world.spec", study, || generate_spec(config.world.clone()));
    let conditioner = config
        .faults
        .as_ref()
        .map(|profile| std::sync::Arc::new(profile.compile(&fault_targets(&spec))));
    let allowed = executing_vps(&spec, vp_limit);
    let mut world = tracer.time("world.instantiate", study, || spec.instantiate());
    let preflight = tracer.time("noise.preflight", study, || {
        NoiseFilter::run_and_apply(&mut world)
    });
    world.engine.set_telemetry(config.telemetry.handle(0));
    world.engine.set_conditioner(conditioner);

    let phase1 = phase1_config(config);
    let sink = sink_config(config);
    let plan = tracer.time("campaign.plan", study, || {
        CampaignRunner::plan_phase1(&world, &phase1)
    });
    let plan_rss_mb = host::rss_mb().unwrap_or(0.0);
    let (mut p1, execute_s) = timed(tracer, "campaign.execute", study, || {
        CampaignRunner::execute_phase1(&mut world, &plan, &phase1, sink, |vp| {
            allowed.as_ref().is_none_or(|a| a.contains(&vp))
        })
    });
    let plan_sends = plan.sends.len();
    drop(plan);
    let correlated = tracer.time("sink.correlate", study, || {
        if config.retain_arrivals {
            Correlator::new(&p1.registry).correlate(&p1.arrivals)
        } else {
            Vec::new()
        }
    });

    let phase2 = phase2_config(config);
    let (traced, traceroutes, mut p2, phase2_execute_s) = if config.run_phase2 {
        let (traced, plan2) = tracer.time("phase2.plan", study, || {
            let traced = paths_to_trace_streamed(&p1.aggregates, config.trace_cap_per_protocol);
            let plan2 = Phase2Runner::plan(&world, &traced, &phase2);
            (traced, plan2)
        });
        let (data, phase2_execute_s) = timed(tracer, "phase2.execute", study, || {
            Phase2Runner::execute(&mut world, &plan2, &phase2, sink, |_| true)
        });
        let results = tracer.time("phase2.localize", study, || {
            Phase2Runner::localize(&data, &plan2.traced, phase2.max_ttl)
        });
        (traced, results, Some(data), phase2_execute_s)
    } else {
        (Vec::new(), Vec::new(), None, 0.0)
    };
    let stats = world.engine.stats().clone();
    let (metrics, journal) = merge_telemetry(config, &mut p1, p2.as_mut());
    let router_graph = tracer.time("topo.finalize", study, || {
        finalize_router_graph(p2.as_ref(), &world)
    });
    let outcome = tracer.time("study.assemble", study, || {
        assemble(
            world,
            preflight,
            p1,
            p2,
            correlated,
            config.retain_arrivals,
            traced,
            traceroutes,
            router_graph,
            metrics,
            journal,
        )
    });
    ChunkRun {
        outcome,
        plan_sends,
        plan_rss_mb,
        stats,
        execute_s,
        phase2_execute_s,
    }
}

/// Merge the per-phase telemetry. Counters only: the classification
/// folds `Study` adds to the world section are not needed by the
/// benchmark's per-layer counters.
pub fn merge_telemetry(
    config: &StudyConfig,
    p1: &mut CampaignData,
    p2: Option<&mut CampaignData>,
) -> (Option<MetricsSnapshot>, Option<Vec<JournalRecord>>) {
    if !config.telemetry.metrics && !config.telemetry.journal {
        return (None, None);
    }
    let mut metrics = std::mem::take(&mut p1.metrics);
    let mut journal = std::mem::take(&mut p1.journal);
    if let Some(p2) = p2 {
        let shards = metrics.run.shards.max(p2.metrics.run.shards);
        metrics.merge(&std::mem::take(&mut p2.metrics));
        metrics.run.shards = shards;
        journal.append(&mut p2.journal);
    }
    sort_records(&mut journal);
    (Some(metrics), config.telemetry.journal.then_some(journal))
}

pub fn finalize_router_graph(
    phase2: Option<&CampaignData>,
    world: &World,
) -> traffic_shadowing::shadow_topo::RouterGraph {
    phase2
        .map(|data| {
            data.router_graph
                .finalize(|addr| world.geo.asn_of(addr).map(|asn| asn.0))
        })
        .unwrap_or_default()
}

/// Build the outcome the analysis accessors read, the way `Study` does
/// after its phases.
#[allow(clippy::too_many_arguments)]
pub fn assemble(
    world: World,
    preflight: PreflightOutcome,
    phase1: CampaignData,
    phase2: Option<CampaignData>,
    correlated: Vec<CorrelatedRequest>,
    retained: bool,
    traced_paths: Vec<PathKey>,
    traceroutes: Vec<TracerouteResult>,
    router_graph: traffic_shadowing::shadow_topo::RouterGraph,
    metrics: Option<MetricsSnapshot>,
    journal: Option<Vec<JournalRecord>>,
) -> StudyOutcome {
    let mut dest_names: BTreeMap<Ipv4Addr, String> = BTreeMap::new();
    for dest in &world.dns_destinations {
        dest_names.insert(dest.addr, dest.dest.name.to_string());
    }
    for site in &world.tranco {
        dest_names.insert(site.addr, format!("site:{}", site.country));
    }
    let blocklist = Blocklist::from_addrs(world.ground_truth.blocklisted_addrs.iter().copied());
    let mut port_scanner = PortScanner::new();
    for addr in &world.ground_truth.bgp_speaking_observers {
        port_scanner.set_open(*addr, 179);
    }
    StudyOutcome {
        world,
        preflight,
        phase1,
        phase2,
        correlated,
        retained,
        traced_paths,
        traceroutes,
        router_graph,
        dest_names,
        blocklist,
        port_scanner,
        metrics,
        journal,
    }
}

/// Every table, figure, §5 probing and case-study accessor, rendered.
/// Returns the rendered length so the work cannot be optimized away.
pub fn render_report(outcome: &StudyOutcome) -> usize {
    let mut out = String::new();
    let geo = &outcome.world.geo;
    out += &format!("{:?}", outcome.world.platform.table1(geo));
    out += &format!("{:?}", outcome.landscape());
    out += &format!("{:?}", outcome.hop_table());
    out += &format!("{:?}", outcome.observer_ips());
    out += &format!("{:?}", outcome.fig4_cdf().paper_grid());
    out += &format!("{:?}", outcome.fig4_hist());
    out += &format!("{:?}", outcome.fig4_other_resolvers_cdf().paper_grid());
    out += &format!("{:?}", outcome.fig4_other_resolvers_hist());
    out += &format!("{:?}", outcome.fig5_breakdown());
    out += &format!("{:?}", outcome.fig6_origins());
    let (http, tls) = outcome.fig7_cdfs();
    out += &format!("{:?}{:?}", http.paper_grid(), tls.paper_grid());
    out += &format!("{:?}", outcome.fig7_hists());
    out += &format!("{:?}", outcome.reuse());
    for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
        out += &format!("{:?}", outcome.probing(protocol));
    }
    out += &format!("{:?}", outcome.resolver_case("Yandex"));
    out += &format!("{:?}", outcome.anycast_case());
    out += &format!("{:?}", outcome.cn_observer_case());
    out += &format!("{:?}", outcome.observer_combos());
    out += &format!("{:?}", outcome.combo_counts());
    out += &format!("{:?}", outcome.observer_port_scan());
    out += &outcome.summary();
    std::hint::black_box(out.len())
}

/// The exported analysis bundle as JSON.
pub fn bundle_json(outcome: &StudyOutcome) -> String {
    outcome
        .export_bundle()
        .to_json()
        .expect("analysis bundle serializes")
}
