//! Shared fixtures for the benchmark harnesses.
//!
//! Every table/figure bench needs a completed campaign; running one per
//! criterion iteration would be absurd, so the study is executed once per
//! process (a couple of seconds) and cached. Each bench then (a) prints the
//! regenerated table or series — the actual reproduction artifact — and
//! (b) times the analysis computation itself.
//!
//! The [`hotpath`] module holds the engine hot-path fixture behind the
//! `BENCH_pipeline.json` perf-trajectory record: a tapped router chain that
//! isolates per-hop forwarding + DPI inspection cost from campaign logic.

use std::sync::OnceLock;
use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

pub mod correlate;
pub mod encryption;
pub mod hotpath;
pub mod scale;
pub mod serving;
pub mod topo;

/// The seed every bench harness uses, so printed tables match
/// EXPERIMENTS.md.
pub const BENCH_SEED: u64 = 7;

/// The cached full-campaign outcome.
pub fn study() -> &'static StudyOutcome {
    static STUDY: OnceLock<StudyOutcome> = OnceLock::new();
    STUDY.get_or_init(|| {
        eprintln!("[bench fixture] running the standard campaign (seed {BENCH_SEED})...");
        let started = std::time::Instant::now();
        // Retained: the figure benches time the batch (sample-level)
        // analysis passes against the streamed aggregates.
        let outcome = Study::run_work_stealing(
            StudyConfig::standard(BENCH_SEED).with_retained_arrivals(),
            StealConfig::with_workers(1),
        );
        eprintln!("[bench fixture] campaign done in {:?}", started.elapsed());
        outcome
    })
}

/// Percentage formatting shared by harness printers.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Print this harness process's peak RSS (VmHWM) as a grep-friendly
/// tagged line. Every bench harness calls this at the end of its last
/// registered routine, so the CI smoke sweep (`cargo bench -- --test`)
/// reports the memory high-water mark of each harness alongside its
/// printed tables. `null` on platforms without `/proc`.
pub fn report_peak_rss(harness: &str) {
    match hotpath::peak_rss_bytes() {
        Some(bytes) => println!(
            "BENCH_RSS {{\"bench\":\"{harness}\",\"peak_rss_bytes\":{bytes},\"peak_rss_mb\":{:.1}}}",
            bytes as f64 / (1 << 20) as f64
        ),
        None => println!("BENCH_RSS {{\"bench\":\"{harness}\",\"peak_rss_bytes\":null}}"),
    }
}
