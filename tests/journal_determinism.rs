//! Event-journal determinism.
//!
//! 1. Re-running the same seed + chunk count reproduces a **byte-identical**
//!    serialized journal (the canonical sort makes merge order irrelevant).
//! 2. Journals from different chunk counts align under `journal diff`'s
//!    total event key order: the same world events occur at the same
//!    sim-times regardless of how the VPs were partitioned.
//! 3. `sort_records` orders a shuffled faulty journal exactly as sorting
//!    by the rendered `JournalRecord::sort_key` does.

use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::executor::{StealConfig, TelemetryOptions};
use traffic_shadowing::shadow_telemetry::{
    diff, from_jsonl, sort_records, to_jsonl, JournalRecord,
};
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

#[test]
fn sort_records_matches_the_rendered_sort_key() {
    let faulty = StudyConfig {
        faults: Some(FaultProfile {
            dns_retry: Some(RetrySpec::STANDARD),
            ..FaultProfile::with_loss("oracle-loss", 0.05, 5)
        }),
        ..config()
    };
    let shape = StealConfig::with_workers(2).with_chunks(2);
    let mut records = Study::run_work_stealing(faulty, shape)
        .journal
        .expect("journal enabled");
    // Fisher–Yates under SplitMix64, so the sort has real work to do.
    let mut state = 0x5eed_u64;
    for i in (1..records.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        records.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    let mut oracle = records.clone();
    oracle.sort_by_cached_key(JournalRecord::sort_key);
    let prefix = |r: &JournalRecord| (r.at_ms, r.event.rank(), r.node);
    let ties = oracle
        .windows(2)
        .filter(|w| prefix(&w[0]) == prefix(&w[1]))
        .count();
    assert!(ties > 0, "the journal must exercise the payload tie-break");
    sort_records(&mut records);
    assert!(
        records == oracle,
        "sort_records departs from the sort_key order"
    );
}
