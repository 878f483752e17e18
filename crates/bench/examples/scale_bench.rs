//! Paper-scale throughput bench orchestrator behind `BENCH_scale.json`.
//!
//! Runs `scale_probe` once per `(scale, workers)` cell — each in its own
//! process, because peak RSS (VmHWM) is a process-lifetime high-water
//! mark — and folds the cells into the trajectory record:
//!
//! * `paper / ws @ num_cpus` — the paper's deployment, bounded VP slice;
//! * `10x / ws @ num_cpus` — ten times the paper's decoy volume.
//!
//! The committed `BENCH_scale.json` also holds a `fixed @ 4` cell and the
//! `ws_over_fixed_paper` ratio: the fixed-shard executor's cost, the
//! measurement that retired it. A re-run replaces the `ws` cells and
//! carries those over unchanged.
//!
//! With `--test` only the tiny smoke cells run (full fidelity, every
//! subsystem, seconds of wall) and no record is written — the CI hook.
//!
//! The probe binary must be built first:
//! `cargo build --release -p shadow-bench --example scale_probe`.

use shadow_bench::scale::{
    load_scale_json, record_scale_json, scale_json_path, ScaleCell, ScaleRecord,
};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Paper-scale cells execute this many VPs; setup — world, pre-flight,
/// the full ~20M-send plan — runs unbounded. See `shadow_bench::scale`.
const PAPER_SLICE: usize = 16;

/// The 10x world carries ~3.2x the sites (sends per VP), so a smaller
/// slice keeps the executed volume comparable.
const TENX_SLICE: usize = 8;

fn probe_bin() -> PathBuf {
    let me = std::env::current_exe().expect("current exe");
    let bin = me.parent().expect("exe dir").join("scale_probe");
    assert!(
        bin.exists(),
        "scale_probe not built — run `cargo build --release -p shadow-bench --example scale_probe` first"
    );
    bin
}

fn run_cell(bin: &Path, scale: &str, workers: usize, vp_slice: usize) -> ScaleCell {
    eprintln!("[scale] {scale} workers={workers} vp_slice={vp_slice} ...");
    let out = Command::new(bin)
        .args([scale, &workers.to_string(), &vp_slice.to_string()])
        .output()
        .expect("scale_probe runs");
    assert!(
        out.status.success(),
        "scale_probe {scale} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("scale_probe output is UTF-8");
    let cell: ScaleCell =
        serde_json::from_str(stdout.trim()).expect("scale_probe prints one-line cell JSON");
    eprintln!(
        "[scale]   {:.0} hops/sec, {} hops, {:.1}s wall, peak RSS {:.1} MB",
        cell.hops_per_sec,
        cell.hops,
        cell.run_ns as f64 / 1e9,
        cell.peak_rss_bytes.unwrap_or(0) as f64 / (1 << 20) as f64,
    );
    cell
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let bin = probe_bin();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if test_mode {
        // Smoke: the tiny world end-to-end; here we only need the cell to
        // run, produce traffic and capture its peak RSS.
        let ws = run_cell(&bin, "smoke", cpus, 0);
        assert!(ws.hops > 0, "smoke cell produced no traffic");
        assert!(
            ws.peak_rss_bytes.is_some(),
            "peak-RSS capture missing from smoke cell"
        );
        println!(
            "scale bench smoke OK: ws {:.0} hops/sec (peak RSS {} MB)",
            ws.hops_per_sec,
            ws.peak_rss_bytes.unwrap_or(0) / (1 << 20),
        );
        return;
    }

    let path = scale_json_path();
    let previous = load_scale_json(&path);
    let mut cells = vec![
        run_cell(&bin, "paper", cpus, PAPER_SLICE),
        run_cell(&bin, "10x", cpus, TENX_SLICE),
    ];
    let mut ws_over_fixed_paper = None;
    if let Some(previous) = previous {
        cells.extend(previous.cells.into_iter().filter(|c| c.mode != "ws"));
        ws_over_fixed_paper = previous.ws_over_fixed_paper;
    }
    let record = ScaleRecord {
        bench: "scale/phase1_paper".to_string(),
        cells,
        ws_over_fixed_paper,
    };
    record_scale_json(&path, &record);
    println!("wrote {}", path.display());
}
