//! The durable campaign state: a versioned, line-oriented JSON file.
//!
//! Format (version 2). Line 1 is the *head*, one compact JSON object:
//!
//! * `header` — `version`, a `world_hash` binding the file to the exact
//!   campaign configuration (world/phase/fault config + wave count), the
//!   shard count, and the total wave count;
//! * `waves_done` / `sim_cursor_ms` — resume position on the wave and
//!   simulated-time axes;
//! * `rng_streams` — the per-shard SplitMix64 stream states (also an
//!   integrity check: they must re-derive from `(seed, waves_done)`);
//! * `aggregates` — the cumulative sink aggregates in their portable
//!   entry-vector form ([`PortableAggregates`]);
//! * `metrics` — the merged [`MetricsSnapshot`] (wall-clock timings
//!   zeroed, so the file is deterministic);
//! * `journal_records` — how many journal lines follow.
//!
//! Every following line is one compact [`JournalRecord`] of the cumulative
//! journal on the campaign time axis, byte for byte what
//! [`shadow_telemetry::write_jsonl`] emits for `--journal`.
//!
//! One record per line lets both ends stream: a save renders straight from
//! the driver's state into a buffered file, and a load parses one line at a
//! time, so neither ever holds the whole file or one parse tree of it. A
//! file cut at a line boundary is still well-formed line by line, so the
//! head's `journal_records` is checked against the lines actually present,
//! and a mismatch is [`ServeError::Corrupt`].
//!
//! Versioning: the head's `header.version` is checked before any journal
//! line is read and rejected with [`ServeError::Version`] when it differs
//! from [`CHECKPOINT_VERSION`]; any future layout change bumps the
//! constant. Version 1 files (the whole state as one pretty-printed
//! object) are recognized by their first line and rejected the same way.
//! Rendering is deterministic (all maps were flattened in `BTreeMap`
//! order), so "two checkpoints are byte-equal" is a meaningful — and
//! tested — statement about resume fidelity.

use crate::ServeError;
use serde::{Content, Deserialize, Serialize};
use shadow_core::sink::PortableAggregates;
use shadow_telemetry::{read_jsonl, write_jsonl, JournalRecord, MetricsSnapshot};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Bump on any incompatible change to the checkpoint layout.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The head's record count is untrusted input: reserve room for at most
/// this many records up front and let the vector grow past it.
const MAX_RESERVED_RECORDS: usize = 1 << 20;

/// Identity and position metadata, validated before any payload is used.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    pub version: u32,
    /// FNV-1a over the campaign-shaping configuration; see
    /// [`crate::ServeConfig::world_hash`].
    pub world_hash: u64,
    pub shards: usize,
    pub waves_total: usize,
}

/// Everything needed to continue the campaign exactly where it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    pub header: CheckpointHeader,
    pub waves_done: usize,
    pub sim_cursor_ms: u64,
    pub rng_streams: Vec<u64>,
    pub aggregates: PortableAggregates,
    pub metrics: MetricsSnapshot,
    pub journal: Vec<JournalRecord>,
}

/// A checkpoint's contents by reference: what a file is written from, so
/// the driver saves without cloning its journal.
pub(crate) struct CheckpointView<'a> {
    pub header: CheckpointHeader,
    pub waves_done: usize,
    pub sim_cursor_ms: u64,
    pub rng_streams: &'a [u64],
    pub aggregates: &'a PortableAggregates,
    pub metrics: &'a MetricsSnapshot,
    pub journal: &'a [JournalRecord],
}

/// The head line of a view.
struct Head<'v, 'a>(&'v CheckpointView<'a>);

impl Serialize for Head<'_, '_> {
    fn serialize_content(&self) -> Content {
        let view = self.0;
        Content::Struct(vec![
            ("header", view.header.serialize_content()),
            ("waves_done", view.waves_done.serialize_content()),
            ("sim_cursor_ms", view.sim_cursor_ms.serialize_content()),
            ("rng_streams", view.rng_streams.serialize_content()),
            ("aggregates", view.aggregates.serialize_content()),
            ("metrics", view.metrics.serialize_content()),
            ("journal_records", view.journal.len().serialize_content()),
        ])
    }
}

/// The head line as read back.
#[derive(Deserialize)]
struct OwnedHead {
    header: CheckpointHeader,
    waves_done: usize,
    sim_cursor_ms: u64,
    rng_streams: Vec<u64>,
    aggregates: PortableAggregates,
    metrics: MetricsSnapshot,
    journal_records: usize,
}

impl CheckpointView<'_> {
    fn write(&self, mut out: impl Write) -> io::Result<()> {
        serde_json::to_writer(&mut out, &Head(self))?;
        out.write_all(b"\n")?;
        write_jsonl(self.journal, out)
    }

    /// Write atomically: stream to a sibling `.tmp` file, then rename over
    /// `path`, so a crash mid-write can never leave a torn checkpoint.
    pub(crate) fn save(&self, path: &Path) -> Result<(), ServeError> {
        let tmp = path.with_extension("tmp");
        let io_err = |source| ServeError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut out = BufWriter::new(File::create(&tmp).map_err(io_err)?);
        self.write(&mut out).map_err(io_err)?;
        out.flush().map_err(io_err)?;
        drop(out);
        std::fs::rename(&tmp, path).map_err(io_err)
    }
}

impl CampaignCheckpoint {
    fn view(&self) -> CheckpointView<'_> {
        CheckpointView {
            header: self.header.clone(),
            waves_done: self.waves_done,
            sim_cursor_ms: self.sim_cursor_ms,
            rng_streams: &self.rng_streams,
            aggregates: &self.aggregates,
            metrics: &self.metrics,
            journal: &self.journal,
        }
    }

    /// Deterministic rendering of the whole file — the resume-fidelity
    /// tests compare these strings byte-for-byte.
    pub fn to_json(&self) -> Result<String, ServeError> {
        let mut out = Vec::new();
        self.view()
            .write(&mut out)
            .map_err(|e| ServeError::Parse(e.to_string()))?;
        String::from_utf8(out).map_err(|e| ServeError::Parse(e.to_string()))
    }

    /// Parse and version-check a whole file held in memory.
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        Self::read(json.as_bytes())
    }

    /// Write atomically; the file holds exactly [`Self::to_json`].
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        self.view().save(path)
    }

    /// Read `path`; a missing file is its own error variant so callers can
    /// say "no checkpoint at <path>" instead of a raw ENOENT.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        match File::open(path) {
            Ok(file) => Self::read(BufReader::new(file)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                Err(ServeError::MissingCheckpoint(path.to_path_buf()))
            }
            Err(e) => Err(ServeError::Io {
                path: path.to_path_buf(),
                source: e,
            }),
        }
    }

    /// Head line, version check, then exactly `journal_records` record
    /// lines up to EOF.
    fn read(mut input: impl BufRead) -> Result<Self, ServeError> {
        let parse_err = |e: &dyn std::fmt::Display| ServeError::Parse(e.to_string());
        let mut line = String::new();
        input.read_line(&mut line).map_err(|e| parse_err(&e))?;
        if line.trim_end() == "{" {
            return Err(legacy_version(input));
        }
        let head: serde_json::Value = serde_json::from_str(&line).map_err(|e| parse_err(&e))?;
        let Some(version) = head["header"]["version"].as_u64() else {
            return Err(ServeError::Parse(
                "head line has no header.version".to_string(),
            ));
        };
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(ServeError::Version {
                found: u32::try_from(version).unwrap_or(u32::MAX),
                supported: CHECKPOINT_VERSION,
            });
        }
        let head: OwnedHead = serde_json::from_value(head).map_err(|e| parse_err(&e))?;
        let declared = head.journal_records;
        let mut journal = Vec::with_capacity(declared.min(MAX_RESERVED_RECORDS));
        for record in read_jsonl(input) {
            let record = record.map_err(|e| ServeError::Parse(format!("record block: {e}")))?;
            if journal.len() == declared {
                return Err(ServeError::Corrupt(format!(
                    "more journal lines than the {declared} the head declares"
                )));
            }
            journal.push(record);
        }
        if journal.len() != declared {
            return Err(ServeError::Corrupt(format!(
                "the head declares {declared} journal records but the file holds {}",
                journal.len()
            )));
        }
        Ok(CampaignCheckpoint {
            header: head.header,
            waves_done: head.waves_done,
            sim_cursor_ms: head.sim_cursor_ms,
            rng_streams: head.rng_streams,
            aggregates: head.aggregates,
            metrics: head.metrics,
            journal,
        })
    }
}

/// Version 1 wrote the whole state as one pretty-printed object: line 1
/// is `{`, and since `header` is its first field and `version` the
/// header's first, line 3 is `"version": N,`. Reads those two lines only.
fn legacy_version(input: impl BufRead) -> ServeError {
    let found = input.lines().nth(1).and_then(Result::ok).and_then(|line| {
        line.trim()
            .strip_prefix("\"version\":")?
            .trim()
            .trim_end_matches(',')
            .parse()
            .ok()
    });
    match found {
        Some(found) => ServeError::Version {
            found,
            supported: CHECKPOINT_VERSION,
        },
        None => ServeError::Parse(
            "a multi-line JSON object without a leading header version is not a checkpoint"
                .to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CampaignDriver, ServeConfig};

    #[test]
    fn fresh_driver_checkpoint_round_trips() {
        let checkpoint = CampaignDriver::new(ServeConfig::tiny(3)).checkpoint();
        let json = checkpoint.to_json().unwrap();
        let back = CampaignCheckpoint::from_json(&json).unwrap();
        assert_eq!(back, checkpoint);
        assert_eq!(back.to_json().unwrap(), json, "rendering is deterministic");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut checkpoint = CampaignDriver::new(ServeConfig::tiny(3)).checkpoint();
        checkpoint.header.version = CHECKPOINT_VERSION + 1;
        let json = checkpoint.to_json().unwrap();
        match CampaignCheckpoint::from_json(&json) {
            Err(ServeError::Version { found, supported }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_a_distinct_error() {
        let path = std::env::temp_dir().join("shadow-serve-no-such-checkpoint.json");
        match CampaignCheckpoint::load(&path) {
            Err(ServeError::MissingCheckpoint(p)) => assert_eq!(p, path),
            other => panic!("expected MissingCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn save_then_load_preserves_bytes() {
        let checkpoint = CampaignDriver::new(ServeConfig::tiny(5)).checkpoint();
        let path = std::env::temp_dir().join("shadow-serve-checkpoint-roundtrip.json");
        checkpoint.save(&path).unwrap();
        let loaded = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, checkpoint);
        std::fs::remove_file(&path).ok();
    }
}
