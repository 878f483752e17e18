//! Fault injection must not cost the simulator its headline guarantee:
//! a fixed `(WorldConfig, FaultProfile, seed)` triple produces
//! byte-identical output — run twice, or run at any execution shape.
//! Every fault decision is value-derived from packet bytes, so chunks that
//! each see only a subset of the traffic still agree with the one-chunk
//! run packet-for-packet.
//!
//! Also pins the boundary profiles: total loss delivers nothing, and a
//! compiled-but-impairment-free profile is indistinguishable from running
//! with no profile at all.

use proptest::prelude::*;
use traffic_shadowing::shadow_chaos::{ChurnSpec, FaultProfile, OutageSpec, RetrySpec, Window};
use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

const SEED: u64 = 99;

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One chunk on one worker: the reference shape.
fn run(config: StudyConfig) -> StudyOutcome {
    Study::run_work_stealing(config, StealConfig::with_workers(1))
}

fn bundle_json(outcome: &StudyOutcome) -> String {
    outcome
        .export_bundle()
        .to_json()
        .expect("bundle serializes")
}

/// A profile exercising every fault class at once.
fn rich_profile() -> FaultProfile {
    FaultProfile {
        name: "rich".into(),
        fault_seed: 0xC0FFEE,
        loss: 0.01,
        duplication: 0.005,
        jitter_ms: 3,
        icmp_rate_limit: 0.5,
        router_outage: Some(OutageSpec {
            fraction: 0.1,
            window: Window::new(60_000, 600_000),
        }),
        link_outage: Some(OutageSpec {
            fraction: 0.05,
            window: Window::new(120_000, 300_000),
        }),
        resolver_outage: Some(Window::new(30_000, 90_000)),
        vp_churn: Some(ChurnSpec {
            fraction: 0.2,
            window: Window::new(200_000, 500_000),
        }),
        honeypot_downtime: Some(Window::new(400_000, 450_000)),
        dns_retry: Some(RetrySpec::STANDARD),
    }
}

// Retained mode: these tests compare raw arrival streams packet-for-packet
// (the streaming default buffers nothing — `tests/streaming_equivalence.rs`
// covers that path under the same rich profile).
fn config_with(profile: FaultProfile) -> StudyConfig {
    StudyConfig::tiny(SEED)
        .with_faults(profile)
        .with_retained_arrivals()
}

#[test]
fn same_profile_same_seed_is_byte_identical() {
    let a = run(config_with(rich_profile()));
    let b = run(config_with(rich_profile()));
    assert_eq!(a.phase1.arrivals, b.phase1.arrivals);
    assert_eq!(a.traceroutes, b.traceroutes);
    assert_eq!(bundle_json(&a), bundle_json(&b));
}

/// The conditioner's decisions are value-derived from packet bytes, so
/// neither the chunk count nor nondeterministic chunk→thread placement may
/// change which packets suffer.
fn assert_shapes_survive_faults(shapes: &[StealConfig]) {
    let sequential = run(config_with(rich_profile()));
    let expected = bundle_json(&sequential);
    for &shape in shapes {
        let stolen = Study::run_work_stealing(config_with(rich_profile()), shape);
        assert_eq!(
            sequential.phase1.arrivals, stolen.phase1.arrivals,
            "{shape:?}: Phase I arrival streams diverge under faults"
        );
        assert_eq!(
            sequential.traceroutes, stolen.traceroutes,
            "{shape:?}: Phase II traceroutes diverge under faults"
        );
        assert_eq!(
            expected,
            bundle_json(&stolen),
            "{shape:?}: exported analysis bundles diverge under faults"
        );
    }
}

#[test]
fn sharded_equivalence_survives_faults() {
    // K chunks on K workers, as in tests/sharded_equivalence.rs.
    assert_shapes_survive_faults(
        &[3, 7, num_cpus()].map(|k| StealConfig::with_workers(k).with_chunks(k)),
    );
}

#[test]
fn work_stealing_equivalence_survives_faults() {
    assert_shapes_survive_faults(&[
        StealConfig::with_workers(2).with_chunks(7),
        StealConfig::auto(),
    ]);
}

#[test]
fn fault_seed_changes_which_packets_suffer() {
    let a = run(config_with(FaultProfile::with_loss("l", 0.05, 1)));
    let b = run(config_with(FaultProfile::with_loss("l", 0.05, 2)));
    assert_ne!(
        a.phase1.arrivals, b.phase1.arrivals,
        "different fault seeds must impair different packets"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Total loss delivers nothing: no arrivals, no correlations, no
    /// traceroute ever completes.
    #[test]
    fn total_loss_delivers_nothing(seed in 1u64..1_000) {
        let profile = FaultProfile::with_loss("blackout", 1.0, seed);
        let outcome = run(config_with(profile));
        prop_assert!(outcome.phase1.arrivals.is_empty());
        prop_assert!(outcome.correlated.is_empty());
        prop_assert!(outcome.traceroutes.iter().all(|r| r.normalized_hop.is_none()));
    }

    /// A zero-impairment profile (conditioner installed, nothing to do)
    /// must match running with no profile at all, byte for byte.
    #[test]
    fn fault_free_profile_matches_no_profile(seed in 1u64..1_000) {
        let mut clean = FaultProfile::baseline("clean");
        clean.fault_seed = seed;
        let with_profile = run(config_with(clean));
        let without = run(StudyConfig::tiny(SEED).with_retained_arrivals());
        prop_assert_eq!(&with_profile.phase1.arrivals, &without.phase1.arrivals);
        prop_assert_eq!(bundle_json(&with_profile), bundle_json(&without));
    }
}
