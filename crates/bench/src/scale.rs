//! Paper-scale campaign throughput behind `BENCH_scale.json`: Phase I at
//! the source paper's deployment scale (4,364 VPs × 2,325 Tranco sites,
//! ~20M decoys per round) and at 10× that volume, under the work-stealing
//! executor at `K = num_cpus`. The committed record also holds a
//! `fixed @ 4` cell from the retired fixed-shard executor, kept as the
//! measurement that retired it; a re-run replaces the `ws` cells and
//! carries every other cell over.
//!
//! Full Phase I at these scales runs for minutes (paper) to hours (10×)
//! on one core, so each cell executes a bounded, documented **VP slice**:
//! the world, Appendix-E pre-flight and the full-campaign send schedule
//! are built at true scale (one scout schedule shared via `Arc` by every
//! chunk), while only the first `vp_slice` VPs materialize and post their
//! decoys. `hops/sec` is
//! therefore end-to-end throughput of the bounded campaign including
//! setup.
//!
//! Peak RSS is VmHWM, which is a process-lifetime high-water mark — so
//! every cell must run in its own process. `examples/scale_probe.rs`
//! measures one cell and prints it as one-line JSON;
//! `examples/scale_bench.rs` orchestrates the probe across cells and
//! folds the results into the trajectory record.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;
use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::executor::{
    run_phase1_work_stealing_bounded, StealConfig, TelemetryOptions,
};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};

use crate::hotpath::peak_rss_bytes;

/// Deterministic world seed shared by every scale cell.
pub const SCALE_SEED: u64 = 0x5eed_2024;

/// One `(scale, workers)` measurement, produced in a dedicated
/// process so `peak_rss_bytes` attributes to this cell alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleCell {
    /// World scale: `smoke`, `paper` or `10x`.
    pub scale: String,
    /// Executor: `ws` (work-stealing) or the retired `fixed`.
    pub mode: String,
    /// Cores visible to the process that measured the cell.
    pub host_cpus: usize,
    /// Worker threads.
    pub workers: usize,
    pub vps: usize,
    pub sites: usize,
    /// VPs that actually posted decoys (`None` = all of them).
    pub vp_slice: Option<usize>,
    /// Spec generation wall (the incremental world builder's share).
    pub spec_ns: u64,
    /// Phase I wall: instantiation + pre-flight + plan + bounded execution.
    pub run_ns: u64,
    pub events: u64,
    /// Router-hop arrivals (events minus endpoint deliveries).
    pub hops: u64,
    pub packets_sent: u64,
    pub hops_per_sec: f64,
    /// VmHWM at cell end (Linux; `None` elsewhere).
    pub peak_rss_bytes: Option<u64>,
}

/// The trajectory record committed as `BENCH_scale.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRecord {
    pub bench: String,
    pub cells: Vec<ScaleCell>,
    /// Paper-scale `ws` over `fixed` throughput, from the run that
    /// retired the fixed-shard executor (both cells at one host).
    pub ws_over_fixed_paper: Option<f64>,
}

/// The world configuration behind a scale name.
pub fn world_for(scale: &str) -> WorldConfig {
    match scale {
        "paper" => WorldConfig::paper_scale(SCALE_SEED),
        "10x" => WorldConfig::paper_scale_10x(SCALE_SEED),
        "smoke" => WorldConfig::tiny(SCALE_SEED),
        other => panic!("unknown scale {other:?} (expected smoke|paper|10x)"),
    }
}

/// Measure one cell in-process: build the spec, run bounded Phase I on
/// `workers` threads, and derive throughput from the merged engine
/// counters (hops = events − endpoint deliveries, as in the pipeline
/// bench).
pub fn run_scale_cell(scale: &str, workers: usize, vp_slice: Option<usize>) -> ScaleCell {
    let world = world_for(scale);
    let t0 = Instant::now();
    let spec = generate_spec(world);
    let spec_ns = t0.elapsed().as_nanos() as u64;

    let config = Phase1Config::default();
    let telemetry = TelemetryOptions::disabled();
    let sink = SinkConfig::streaming();
    let started = Instant::now();
    let sharded = run_phase1_work_stealing_bounded(
        &spec,
        &config,
        StealConfig::with_workers(workers),
        telemetry,
        None,
        sink,
        vp_slice,
    );
    let run = started.elapsed();

    let stats = sharded.stats;
    let events = stats.events_processed;
    let hops = events - stats.packets_delivered;
    let secs = run.as_secs_f64().max(1e-9);
    ScaleCell {
        scale: scale.to_string(),
        mode: "ws".to_string(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers,
        vps: spec.platform.vps.len(),
        sites: spec.tranco.len(),
        vp_slice,
        spec_ns,
        run_ns: run.as_nanos() as u64,
        events,
        hops,
        packets_sent: stats.packets_sent,
        hops_per_sec: hops as f64 / secs,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Write the record to `path`. The record is regenerated whole: every
/// `ws` cell was freshly measured by a probe process this run, and the
/// historical cells are carried over verbatim by the caller.
pub fn record_scale_json(path: &Path, record: &ScaleRecord) {
    let text = serde_json::to_string_pretty(record).expect("scale record serializes");
    std::fs::write(path, text + "\n").expect("scale record written");
}

/// The committed record at `path`, if there is one.
pub fn load_scale_json(path: &Path) -> Option<ScaleRecord> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(serde_json::from_str(&text).expect("committed scale record parses"))
}

/// Workspace-root location of the scale trajectory file.
pub fn scale_json_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json")
}
