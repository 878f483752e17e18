//! Reproducibility: the same (config, seed) must yield byte-identical
//! campaign results; different seeds must actually differ.

use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

/// One chunk on one worker.
fn run(config: StudyConfig) -> StudyOutcome {
    Study::run_work_stealing(config, StealConfig::with_workers(1))
}

fn fingerprint(outcome: &StudyOutcome) -> String {
    let landscape = outcome.landscape();
    let table = outcome.hop_table();
    format!(
        "vps={} decoys={} arrivals={} unsolicited={} dns={:.4} http={:.4} tls={:.4} \
         dns_at_dest={:.2} traced={} localized={}",
        outcome.world.platform.vps.len(),
        outcome.phase1.registry.len(),
        outcome.phase1.aggregates.arrivals_seen,
        outcome.phase1.aggregates.unsolicited_total(),
        landscape.protocol_ratio(DecoyProtocol::Dns),
        landscape.protocol_ratio(DecoyProtocol::Http),
        landscape.protocol_ratio(DecoyProtocol::Tls),
        table.at_destination_percent(DecoyProtocol::Dns),
        outcome.traced_paths.len(),
        outcome
            .traceroutes
            .iter()
            .filter(|r| r.normalized_hop.is_some())
            .count(),
    )
}

#[test]
fn same_seed_same_outcome() {
    // Retained mode so the exact arrival stream is comparable.
    let a = run(StudyConfig::tiny(99).with_retained_arrivals());
    let b = run(StudyConfig::tiny(99).with_retained_arrivals());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // Down to the exact arrival stream and streamed aggregates.
    assert_eq!(a.phase1.arrivals, b.phase1.arrivals);
    assert_eq!(a.phase1.aggregates, b.phase1.aggregates);
    assert_eq!(a.traceroutes, b.traceroutes);
}

#[test]
fn different_seeds_differ() {
    // Streaming default: the capture-time aggregates carry the traffic.
    let a = run(StudyConfig::tiny(100));
    let b = run(StudyConfig::tiny(101));
    assert_ne!(
        a.phase1.aggregates, b.phase1.aggregates,
        "different seeds must produce different traffic"
    );
}
