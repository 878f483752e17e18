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

use traffic_shadowing::shadow_core::correlate::CorrelatedRequest;
use traffic_shadowing::shadow_core::executor::StealConfig;
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
