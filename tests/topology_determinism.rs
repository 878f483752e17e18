//! The shadow-topo guarantees, enforced end to end:
//!
//! 1. **Router-graph determinism.** The Phase II router-graph
//!    reconstruction serializes byte-identically for one chunk and for
//!    K chunks × K workers (K=4), with and without a fault profile — the
//!    per-chunk builders fold disjoint probe-path sets and `absorb` is
//!    commutative, so the merged graph cannot depend on scheduling.
//!
//! 2. **LPM/scan equivalence.** The treebitmap trie behind `GeoDb::lookup`
//!    answers exactly like the old sorted-vec backward scan (kept as
//!    `GeoScanIndex`) on the standard world: asn/country/hosting agree on
//!    every routed address and on adversarial probes around every prefix
//!    boundary.

use std::net::Ipv4Addr;
use traffic_shadowing::shadow_chaos::FaultProfile;
use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

/// One chunk on one worker: the reference shape.
fn run(config: StudyConfig) -> StudyOutcome {
    Study::run_work_stealing(config, StealConfig::with_workers(1))
}

/// Four chunks drained by four workers.
fn run_4x4(config: StudyConfig) -> StudyOutcome {
    Study::run_work_stealing(config, StealConfig::with_workers(4).with_chunks(4))
}

fn graph_json(outcome: &StudyOutcome) -> String {
    serde_json::to_string(&outcome.router_graph).expect("router graph serializes")
}

#[test]
fn router_graph_identical_across_shard_counts() {
    let sequential = run(StudyConfig::tiny(7));
    assert!(
        sequential.router_graph.observations > 0,
        "tiny study must reveal hops"
    );
    assert_eq!(
        graph_json(&sequential),
        graph_json(&run_4x4(StudyConfig::tiny(7))),
        "K=4: router graph diverges from the one-chunk run"
    );
}

#[test]
fn router_graph_identical_across_shard_counts_under_faults() {
    let profile = FaultProfile {
        loss: 0.02,
        icmp_rate_limit: 0.5,
        fault_seed: 3,
        ..FaultProfile::baseline("topo-faults")
    };
    let config = || StudyConfig::tiny(7).with_faults(profile.clone());
    let sequential = run(config());
    let expected = graph_json(&sequential);
    // Rate limiting must actually bite, or this test collapses into the
    // fault-free one above.
    let baseline = run(StudyConfig::tiny(7));
    assert!(
        sequential.router_graph.observations < baseline.router_graph.observations,
        "ICMP rate limiting should suppress some Time-Exceeded answers"
    );
    assert_eq!(
        expected,
        graph_json(&run_4x4(config())),
        "K=4: faulted router graph diverges from the one-chunk run"
    );
}

#[test]
fn trie_agrees_with_scan_reference_on_the_standard_world() {
    let spec = generate_spec(WorldConfig::standard(7));
    let world = spec.instantiate();
    let db = &world.geo;
    let scan = db.scan_index();
    assert!(db.len() > 100, "standard world should carry a real table");

    let mut probes: Vec<Ipv4Addr> = Vec::new();
    // Every routed node address (the acceptance bar), plus adversarial
    // probes around every prefix boundary: base-1, base, base+1, last,
    // last+1 — the addresses where the old /8-bounded backward scan and
    // a trie could plausibly disagree.
    for node in world.engine.topology().nodes() {
        probes.push(node.addr);
    }
    for record in db.iter() {
        let base = record.prefix.base_u32();
        let span = if record.prefix.len() == 0 {
            u32::MAX
        } else {
            (1u64 << (32 - record.prefix.len()) as u64).wrapping_sub(1) as u32
        };
        let last = base.saturating_add(span);
        for probe in [
            base.wrapping_sub(1),
            base,
            base.wrapping_add(1),
            last,
            last.wrapping_add(1),
        ] {
            probes.push(Ipv4Addr::from(probe));
        }
    }

    for addr in probes {
        let via_trie = db
            .lookup(addr)
            .map(|r| (r.prefix, r.asn, r.country, r.hosting));
        let via_scan = scan
            .lookup(addr)
            .map(|r| (r.prefix, r.asn, r.country, r.hosting));
        assert_eq!(via_trie, via_scan, "lookup({addr}) diverges from the scan");
    }
}
