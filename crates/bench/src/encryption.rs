//! The encryption-axis trajectory behind `BENCH_encryption.json`: what the
//! transport-profile machinery costs at runtime, and what the deployment-
//! ladder sweep measures on the tiny world.
//!
//! Two timing lines — the same campaign at plaintext and at full
//! encryption (DoQ framing, ECH sealing, hidden-flow telemetry on every
//! tapped packet) — give the encrypted hot path's overhead ratio. The
//! sweep line times `run_default_sweep` end to end (six campaigns) and
//! folds its headline report values into the record, so a regression in
//! either the cost *or* the measured decay shape shows up in the
//! trajectory diff.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;
use traffic_shadowing::encryption::{run_default_sweep, EncryptionReport};
use traffic_shadowing::shadow_core::executor::{StealConfig, TelemetryOptions};
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig};

/// One measured pass over the encryption axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncryptionMetrics {
    /// Shards per sweep cell.
    pub shards: u64,
    /// Ladder levels the sweep ran (plaintext baseline excluded).
    pub levels: u64,
    pub plaintext_elapsed_ns: u64,
    pub encrypted_elapsed_ns: u64,
    /// Encrypted-campaign wall time over plaintext — the runtime price of
    /// sealing every decoy and fingerprinting every hidden flow.
    pub encrypted_over_plaintext: f64,
    /// The full default-ladder sweep (baseline + every level), end to end.
    pub sweep_elapsed_ns: u64,
    /// Report headlines, pinned into the trajectory: the §6 invariant and
    /// the terminal recall/fallback values at full encryption.
    pub resolver_recall_min: f64,
    pub wire_dns_recall_final: f64,
    pub wire_tls_recall_final: f64,
    pub fallback_rate_full: f64,
    /// VmHWM after the sweep (Linux; `None` elsewhere).
    pub rss_peak_bytes: Option<u64>,
}

/// The perf-trajectory record committed as `BENCH_encryption.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncryptionRecord {
    pub bench: String,
    /// The reference measurement this machine compares against; preserved
    /// across re-runs so the trajectory keeps its anchor.
    pub baseline: Option<EncryptionMetrics>,
    pub current: EncryptionMetrics,
    /// `baseline.encrypted_elapsed_ns / current.encrypted_elapsed_ns` —
    /// above 1.0 means the encrypted hot path got faster.
    pub speedup_encrypted_campaign: Option<f64>,
}

fn tiny_config(seed: u64, deployment: EncryptionDeployment) -> StudyConfig {
    let mut config = StudyConfig::tiny(seed);
    config.phase1.encryption = deployment;
    config.telemetry = TelemetryOptions::enabled(false);
    config
}

/// Time the plaintext and full-encryption campaigns, then the whole
/// default-ladder sweep, on the tiny world.
pub fn run_encryption(seed: u64, shards: usize) -> (EncryptionMetrics, EncryptionReport) {
    let started = Instant::now();
    let steal = StealConfig::with_workers(shards).with_chunks(shards);
    let plain =
        Study::run_work_stealing(tiny_config(seed, EncryptionDeployment::plaintext()), steal);
    let plaintext_elapsed = started.elapsed();
    std::hint::black_box(plain.phase1.aggregates.arrivals_seen);

    let started = Instant::now();
    let full = Study::run_work_stealing(tiny_config(seed, EncryptionDeployment::full()), steal);
    let encrypted_elapsed = started.elapsed();
    std::hint::black_box(full.phase1.aggregates.arrivals_seen);

    let base = StudyConfig::tiny(seed);
    let started = Instant::now();
    let report = run_default_sweep(&base, shards, 2);
    let sweep_elapsed = started.elapsed();

    let resolver_recall_min = report
        .cells
        .iter()
        .map(|c| c.resolver_dns_recall)
        .fold(f64::INFINITY, f64::min);
    let full_cell = report.cells.iter().find(|c| c.cell.level == "full");
    let metrics = EncryptionMetrics {
        shards: shards as u64,
        levels: report.cells.len() as u64,
        plaintext_elapsed_ns: plaintext_elapsed.as_nanos() as u64,
        encrypted_elapsed_ns: encrypted_elapsed.as_nanos() as u64,
        encrypted_over_plaintext: encrypted_elapsed.as_secs_f64()
            / plaintext_elapsed.as_secs_f64().max(1e-9),
        sweep_elapsed_ns: sweep_elapsed.as_nanos() as u64,
        resolver_recall_min,
        wire_dns_recall_final: full_cell.map_or(f64::NAN, |c| c.wire_dns_recall),
        wire_tls_recall_final: full_cell.map_or(f64::NAN, |c| c.wire_tls_recall),
        fallback_rate_full: full_cell.map_or(f64::NAN, |c| c.fallback_rate),
        rss_peak_bytes: crate::hotpath::peak_rss_bytes(),
    };
    (metrics, report)
}

/// Fold `current` into the JSON trajectory file at `path`, preserving an
/// existing baseline (same contract as `correlate::record_correlate_json`:
/// a fresh file anchors on its first measurement, and a `current` byte-
/// identical to the stored baseline is refused as a recycled record).
pub fn record_encryption_json(
    path: &Path,
    bench: &str,
    current: EncryptionMetrics,
) -> EncryptionRecord {
    let previous = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<EncryptionRecord>(&text).ok())
        .and_then(|old| old.baseline);
    if let Some(prev) = &previous {
        let same = serde_json::to_string(prev).expect("metrics serialize")
            == serde_json::to_string(&current).expect("metrics serialize");
        assert!(
            !same,
            "stale current: metrics are byte-identical to the recorded baseline in {} — \
             re-run the bench instead of recycling the stored record",
            path.display()
        );
    }
    let baseline = previous.or_else(|| Some(current.clone()));
    let speedup = baseline
        .as_ref()
        .map(|b| b.encrypted_elapsed_ns as f64 / (current.encrypted_elapsed_ns as f64).max(1.0));
    let record = EncryptionRecord {
        bench: bench.to_string(),
        baseline,
        current,
        speedup_encrypted_campaign: speedup,
    };
    let text = serde_json::to_string_pretty(&record).expect("bench record serializes");
    std::fs::write(path, text + "\n").expect("bench record written");
    record
}

/// Workspace-root location of the encryption trajectory file.
pub fn encryption_json_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_encryption.json")
}
