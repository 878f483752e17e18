//! The executor's headline guarantee: for ANY execution shape — K chunks
//! on K workers for K ∈ {3, 7, num_cpus}, fewer workers than chunks (so
//! stealing happens), and the machine-shaped [`StealConfig::auto`] —
//! `Study::run_work_stealing` produces **byte-identical** analysis output
//! to the one-chunk, one-worker reference run. `tests/golden_bundles.rs`
//! pins what that reference produces.
//!
//! "Byte-identical" is enforced on the exported JSON analysis bundle (the
//! full Figure/Table artifact set), the raw Phase I arrival stream, and
//! the unsolicited-request classifications. Two distinct seeds are tested
//! so a bug that collapses output to a constant cannot pass.
//!
//! Below the study level, `multi_round_protocol_subsets_match_one_chunk`
//! drives `execute_phase1` directly with plans the study presets never
//! use (two rounds, one protocol off), where each chunk must pick its own
//! VPs' runs out of every round of the shared send schedule.

use traffic_shadowing::shadow_core::campaign::{CampaignData, CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::correlate::CorrelatedRequest;
use traffic_shadowing::shadow_core::decoy::DecoyRecord;
use traffic_shadowing::shadow_core::executor::{shard_vps, StealConfig};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_netsim::time::SimTime;
use traffic_shadowing::shadow_vantage::platform::VpId;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

const SEEDS: [u64; 2] = [99, 424_242];

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// K chunks drained by K workers — what "K shards" means.
fn k_by_k(k: usize) -> StealConfig {
    StealConfig::with_workers(k).with_chunks(k)
}

/// The reference shape: one chunk, one worker.
fn reference() -> StealConfig {
    StealConfig::with_workers(1)
}

/// The shard counts under test: K×K for K ∈ {3, 7, num_cpus} (so CI
/// exercises whatever parallelism the runner actually has). K=1 is the
/// reference itself.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![3, 7, num_cpus()];
    counts.retain(|&k| k > 1);
    counts.dedup();
    counts
}

/// Stealing shapes: worker counts below the chunk count (stealing only
/// happens when a worker's own deque drains first), and the machine-shaped
/// [`StealConfig::auto`].
fn steal_shapes() -> Vec<StealConfig> {
    let mut shapes: Vec<StealConfig> = Vec::new();
    for shape in [
        StealConfig::with_workers(2).with_chunks(3),
        StealConfig::with_workers(3).with_chunks(7),
        StealConfig::auto(),
    ] {
        if shape != reference() && !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    shapes
}

fn bundle_json(outcome: &StudyOutcome) -> String {
    outcome
        .export_bundle()
        .to_json()
        .expect("bundle serializes")
}

/// The classification facts of one correlated request, independent of any
/// in-memory ordering concerns: (decoy id, label, observed protocol).
fn classifications(correlated: &[CorrelatedRequest]) -> Vec<String> {
    let mut out: Vec<String> = correlated
        .iter()
        .map(|r| {
            format!(
                "{} {:?} {:?} {:?}",
                r.decoy.domain, r.decoy.protocol, r.label, r.arrival.src
            )
        })
        .collect();
    out.sort();
    out
}

/// Retained mode: the raw arrival stream and per-request classifications
/// are part of the comparison (the streaming default is covered
/// shape-for-shape by `tests/streaming_equivalence.rs`). Chunk→thread
/// placement is nondeterministic; the merged output must not be.
fn assert_shapes_match_reference(shapes: &[StealConfig]) {
    for seed in SEEDS {
        let sequential = Study::run_work_stealing(
            StudyConfig::tiny(seed).with_retained_arrivals(),
            reference(),
        );
        let expected_json = bundle_json(&sequential);
        let expected_classes = classifications(&sequential.correlated);
        for &shape in shapes {
            let stolen =
                Study::run_work_stealing(StudyConfig::tiny(seed).with_retained_arrivals(), shape);
            assert_eq!(
                sequential.phase1.arrivals, stolen.phase1.arrivals,
                "seed {seed}, {shape:?}: Phase I arrival streams diverge"
            );
            assert_eq!(
                sequential.phase1.aggregates, stolen.phase1.aggregates,
                "seed {seed}, {shape:?}: streamed aggregates diverge"
            );
            assert_eq!(
                expected_classes,
                classifications(&stolen.correlated),
                "seed {seed}, {shape:?}: unsolicited classifications diverge"
            );
            assert_eq!(
                expected_json,
                bundle_json(&stolen),
                "seed {seed}, {shape:?}: exported analysis bundles diverge"
            );
        }
    }
}

fn assert_phase2_matches_reference(shape: StealConfig) {
    let seed = 99;
    let sequential = Study::run_work_stealing(StudyConfig::tiny(seed), reference());
    let stolen = Study::run_work_stealing(StudyConfig::tiny(seed), shape);
    assert_eq!(sequential.traced_paths, stolen.traced_paths, "{shape:?}");
    assert_eq!(sequential.traceroutes, stolen.traceroutes, "{shape:?}");
}

#[test]
fn sharded_matches_sequential_for_every_shard_count() {
    let shapes: Vec<StealConfig> = shard_counts().into_iter().map(k_by_k).collect();
    assert_shapes_match_reference(&shapes);
}

#[test]
fn work_stealing_matches_sequential_for_every_shape() {
    assert_shapes_match_reference(&steal_shapes());
}

#[test]
fn sharded_preserves_phase2_localization() {
    assert_phase2_matches_reference(k_by_k(2));
}

#[test]
fn work_stealing_preserves_phase2_localization() {
    assert_phase2_matches_reference(StealConfig::with_workers(2).with_chunks(5));
}

#[test]
fn distinct_seeds_still_differ_under_sharding() {
    let a = Study::run_work_stealing(StudyConfig::tiny(SEEDS[0]), k_by_k(2));
    let b = Study::run_work_stealing(StudyConfig::tiny(SEEDS[1]), k_by_k(2));
    assert_ne!(
        a.phase1.aggregates, b.phase1.aggregates,
        "different seeds must produce different sharded traffic"
    );
}

/// Phase I straight through `execute_phase1`: one send schedule planned on
/// a scout world, then one fresh world per ownership set, as the executor
/// runs it. Returns the planned-send count and the per-set data in set
/// order.
fn phase1_chunks(
    seed: u64,
    config: &Phase1Config,
    owned: &[Vec<VpId>],
) -> (usize, Vec<CampaignData>) {
    let spec = generate_spec(WorldConfig::tiny(seed));
    let mut scout = spec.instantiate();
    NoiseFilter::run_and_apply(&mut scout);
    let plan = CampaignRunner::plan_phase1(&scout, config);
    let chunks = owned
        .iter()
        .map(|vps| {
            let mut world = spec.instantiate();
            NoiseFilter::run_and_apply(&mut world);
            CampaignRunner::execute_phase1(
                &mut world,
                &plan,
                config,
                SinkConfig::retained(),
                |vp| vps.contains(&vp),
            )
        })
        .collect();
    (plan.sends.len(), chunks)
}

fn records(data: &CampaignData) -> Vec<DecoyRecord> {
    data.registry.iter().cloned().collect()
}

/// Multi-round, protocol-subset plans: every chunk materializes exactly the
/// one-chunk run's decoys for its VPs, in the same order, and the merged
/// chunks equal the one-chunk run.
fn assert_chunks_match_one_chunk(config: Phase1Config) {
    let seed = 99;
    let vp_ids: Vec<VpId> = generate_spec(WorldConfig::tiny(seed))
        .platform
        .vps
        .iter()
        .map(|vp| vp.id)
        .collect();
    let (planned, mut one) = phase1_chunks(seed, &config, std::slice::from_ref(&vp_ids));
    let one = one.remove(0);
    let parts: Vec<Vec<VpId>> = shard_vps(&vp_ids, 3)
        .into_iter()
        .map(|set| set.into_iter().collect())
        .collect();
    let (_, chunks) = phase1_chunks(seed, &config, &parts);

    assert_eq!(
        one.registry.len(),
        planned,
        "{config:?}: every send registered"
    );
    let second_round = SimTime(config.round_gap.millis());
    assert!(
        one.registry.iter().any(|r| r.planned_at < second_round)
            && one.registry.iter().any(|r| r.planned_at >= second_round),
        "{config:?}: decoys in both rounds"
    );
    assert!(
        !one.arrivals.is_empty(),
        "{config:?}: the run carries traffic"
    );

    for (vps, chunk) in parts.iter().zip(&chunks) {
        let expected: Vec<DecoyRecord> = records(&one)
            .into_iter()
            .filter(|r| vps.contains(&r.vp))
            .collect();
        assert_eq!(records(chunk), expected, "{config:?}: chunk registry");
        assert_eq!(chunk.last_send, one.last_send, "{config:?}: last_send");
    }

    let mut merged = chunks[0].clone();
    for chunk in &chunks[1..] {
        merged.absorb(chunk.clone());
    }
    let mut merged_records = records(&merged);
    let mut one_records = records(&one);
    merged_records.sort_by(|a, b| a.domain.cmp(&b.domain));
    one_records.sort_by(|a, b| a.domain.cmp(&b.domain));
    assert_eq!(merged_records, one_records, "{config:?}: merged registry");
    assert_eq!(
        merged.last_send, one.last_send,
        "{config:?}: merged last_send"
    );
    assert_eq!(merged.arrivals, one.arrivals, "{config:?}: arrivals");
    assert_eq!(merged.aggregates, one.aggregates, "{config:?}: aggregates");
}

#[test]
fn multi_round_protocol_subsets_match_one_chunk() {
    assert_chunks_match_one_chunk(Phase1Config {
        rounds: 2,
        send_http: false,
        ..Phase1Config::default()
    });
    assert_chunks_match_one_chunk(Phase1Config {
        rounds: 2,
        send_dns: false,
        ..Phase1Config::default()
    });
}
