//! A checkpoint file is untrusted input: whatever its bytes,
//! `CampaignCheckpoint::load` and `from_json` return a typed
//! [`ServeError`] and never panic. Truncation (at every line boundary and
//! at random byte offsets), garbage, invalid UTF-8, an extra record line, a
//! hostile record count and a version-1 file are each checked here.

use proptest::prelude::*;
use serde::Serialize;
use shadow_serve::{
    CampaignCheckpoint, CampaignDriver, CheckpointHeader, ServeConfig, ServeError,
    CHECKPOINT_VERSION,
};
use std::sync::OnceLock;
use traffic_shadowing::shadow_core::sink::PortableAggregates;
use traffic_shadowing::shadow_telemetry::{JournalRecord, MetricsSnapshot};

/// Journal records kept in the fixture: enough lines to cut between, few
/// enough that cutting at every one of them stays fast.
const RECORDS: usize = 24;

/// A real 2-wave tiny checkpoint with its journal cut to [`RECORDS`]
/// records: a full head (aggregates, metrics) and a short record block.
fn fixture() -> &'static CampaignCheckpoint {
    static FIXTURE: OnceLock<CampaignCheckpoint> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut driver = CampaignDriver::new(ServeConfig::tiny(11));
        assert_eq!(driver.run_to_completion(), 2);
        let mut checkpoint = driver.checkpoint();
        assert!(checkpoint.journal.len() > RECORDS);
        checkpoint.journal.truncate(RECORDS);
        checkpoint
    })
}

fn fixture_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| fixture().to_json().expect("renders"))
}

/// Parse `bytes` through the in-memory entry point when they are UTF-8,
/// and always through a file and `load`; both must agree on the outcome.
fn parse_bytes(bytes: &[u8], tag: &str) -> Result<CampaignCheckpoint, ServeError> {
    let path = std::env::temp_dir().join(format!(
        "shadow-untrusted-{tag}-{}.ckpt",
        std::process::id()
    ));
    std::fs::write(&path, bytes).expect("writes the case");
    let loaded = CampaignCheckpoint::load(&path);
    std::fs::remove_file(&path).ok();
    if let Ok(text) = std::str::from_utf8(bytes) {
        let parsed = CampaignCheckpoint::from_json(text);
        assert_eq!(
            format!("{parsed:?}"),
            format!("{loaded:?}"),
            "load and from_json disagree"
        );
    }
    loaded
}

#[test]
fn fixture_round_trips() {
    let back = parse_bytes(fixture_text().as_bytes(), "whole").expect("the fixture loads");
    assert_eq!(&back, fixture());
    assert_eq!(fixture_text().lines().count(), RECORDS + 1);
}

#[test]
fn truncation_at_every_line_boundary_is_typed() {
    let text = fixture_text();
    let ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
    assert_eq!(ends.len(), RECORDS + 1);
    assert!(matches!(
        CampaignCheckpoint::from_json(""),
        Err(ServeError::Parse(_))
    ));
    // Keeping the head and 0..RECORDS records: every line present parses,
    // so only the head's count can tell that records are missing.
    for (kept, &end) in ends[..RECORDS].iter().enumerate() {
        match CampaignCheckpoint::from_json(&text[..end]) {
            Err(ServeError::Corrupt(message)) => {
                assert!(message.contains(&format!("holds {kept}")), "{message}")
            }
            other => panic!("cut after {kept} records: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn extra_trailing_record_is_corrupt() {
    let text = fixture_text();
    let last = text.lines().last().expect("has records");
    let padded = format!("{text}{last}\n");
    match parse_bytes(padded.as_bytes(), "extra") {
        Err(ServeError::Corrupt(message)) => assert!(message.contains("more journal lines")),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn hostile_record_count_does_not_reserve_it() {
    let text = fixture_text();
    let count = format!("\"journal_records\":{RECORDS}}}\n");
    assert!(text.contains(&count), "the count closes the head line");
    let hostile = text.replacen(&count, "\"journal_records\":18446744073709551615}\n", 1);
    match parse_bytes(hostile.as_bytes(), "count") {
        Err(ServeError::Corrupt(message)) => {
            assert!(message.contains("18446744073709551615"), "{message}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn garbage_and_invalid_utf8_are_parse_errors() {
    let cases: [(&str, Vec<u8>); 5] = [
        ("text", b"not a checkpoint\n".to_vec()),
        ("array", b"[1,2,3]\n".to_vec()),
        ("head-utf8", b"\xff\xfe{\"header\":1}\n".to_vec()),
        ("nul", vec![0; 64]),
        ("head-only-brace", b"{\n".to_vec()),
    ];
    for (tag, bytes) in cases {
        match parse_bytes(&bytes, tag) {
            Err(ServeError::Parse(_)) => {}
            other => panic!("{tag}: expected Parse, got {other:?}"),
        }
    }
    // Invalid UTF-8 inside a record line, past a valid head.
    let mut bytes = fixture_text().as_bytes().to_vec();
    let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[second_line + 10] = 0xff;
    match parse_bytes(&bytes, "record-utf8") {
        Err(ServeError::Parse(message)) => assert!(message.contains("journal line 1")),
        other => panic!("expected Parse, got {other:?}"),
    }
}

/// Version 1's layout, rendered the way version 1 rendered it: one
/// pretty-printed object with the journal inline.
#[derive(Serialize)]
struct V1 {
    header: CheckpointHeader,
    waves_done: usize,
    sim_cursor_ms: u64,
    rng_streams: Vec<u64>,
    aggregates: PortableAggregates,
    metrics: MetricsSnapshot,
    journal: Vec<JournalRecord>,
}

#[test]
fn version_1_file_is_a_version_error() {
    let c = fixture().clone();
    let v1 = V1 {
        header: CheckpointHeader {
            version: 1,
            ..c.header
        },
        waves_done: c.waves_done,
        sim_cursor_ms: c.sim_cursor_ms,
        rng_streams: c.rng_streams,
        aggregates: c.aggregates,
        metrics: c.metrics,
        journal: c.journal,
    };
    let text = serde_json::to_string_pretty(&v1).unwrap();
    assert!(text.starts_with("{\n  \"header\": {\n    \"version\": 1,\n"));
    match parse_bytes(text.as_bytes(), "v1") {
        Err(ServeError::Version { found, supported }) => {
            assert_eq!((found, supported), (1, CHECKPOINT_VERSION))
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncation_at_any_byte_is_typed(cut in 0usize..1_000_000) {
        // Dropping only the final newline leaves every line whole, so cuts
        // stop one byte short of that.
        let bytes = fixture_text().as_bytes();
        let cut = cut % (bytes.len() - 1);
        match parse_bytes(&bytes[..cut], "cut") {
            Err(ServeError::Parse(_) | ServeError::Corrupt(_)) => {}
            other => prop_assert!(false, "cut at {}: {:?}", cut, other.map(|_| ())),
        }
    }

    #[test]
    fn random_bytes_are_typed(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let result = parse_bytes(&bytes, "soup");
        prop_assert!(result.is_err(), "random bytes parsed as a checkpoint");
    }
}
