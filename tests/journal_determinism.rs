//! Event-journal determinism.
//!
//! 1. Re-running the same seed + chunk count reproduces a **byte-identical**
//!    serialized journal (the canonical sort makes merge order irrelevant).
//! 2. Journals from different chunk counts align under `journal diff`'s
//!    total event key order: the same world events occur at the same
//!    sim-times regardless of how the VPs were partitioned.

use traffic_shadowing::shadow_core::executor::{StealConfig, TelemetryOptions};
use traffic_shadowing::shadow_telemetry::{diff, from_jsonl, to_jsonl, JournalRecord};
use traffic_shadowing::study::{Study, StudyConfig};

const SEED: u64 = 99;

fn config() -> StudyConfig {
    StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..StudyConfig::tiny(SEED)
    }
}

/// The journal of a K-chunk × K-worker run.
fn journal_of(k: usize) -> Vec<JournalRecord> {
    let shape = StealConfig::with_workers(k).with_chunks(k);
    Study::run_work_stealing(config(), shape)
        .journal
        .expect("journal enabled")
}

#[test]
fn same_seed_and_shard_count_reproduce_identical_journals() {
    for shards in [1, 2] {
        let first = to_jsonl(&journal_of(shards)).expect("serializes");
        let second = to_jsonl(&journal_of(shards)).expect("serializes");
        assert!(!first.is_empty(), "journal must record events");
        assert_eq!(
            first, second,
            "K={shards}: repeated runs must serialize byte-identically"
        );
        // And the serialization round-trips.
        let reparsed = from_jsonl(&first).expect("parses");
        assert_eq!(to_jsonl(&reparsed).expect("serializes"), first);
    }
}

#[test]
fn journals_align_across_shard_counts() {
    let sequential = journal_of(1);
    for k in [2usize, 7] {
        let sharded = journal_of(k);
        let report = diff(&sequential, &sharded);
        assert!(
            report.identical(),
            "K={k} diverges from sequential:\n{}",
            report.render()
        );
        assert!(report.left_events > 0, "diff compared no events");
    }
}

#[test]
fn different_seeds_produce_different_journals() {
    let a = journal_of(1);
    let outcome = Study::run_work_stealing(
        StudyConfig {
            telemetry: TelemetryOptions::enabled(true),
            ..StudyConfig::tiny(SEED + 1)
        },
        StealConfig::with_workers(1),
    );
    let b = outcome.journal.expect("journal enabled");
    let report = diff(&a, &b);
    assert!(
        !report.identical(),
        "distinct seeds must produce distinct journals"
    );
}
