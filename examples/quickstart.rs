//! Quickstart: run a miniature end-to-end study and print the headline
//! numbers. See `full_campaign.rs` for the paper-scale reproduction.

use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::study::{Study, StudyConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let started = std::time::Instant::now();
    // The default configuration streams: arrivals are classified at capture
    // time into compact per-chunk aggregates, and no raw arrival vector is
    // retained anywhere. One chunk on one worker: on the tiny world a second
    // chunk costs more in world setup than it saves.
    let outcome = Study::run_work_stealing(StudyConfig::tiny(seed), StealConfig::with_workers(1));
    println!("=== traffic-shadowing quickstart (seed {seed}) ===\n");
    println!("{}", outcome.summary());
    println!("\nunsolicited requests by Decoy-Request combination:");
    for (combo, n) in outcome.combo_counts() {
        println!("  {combo:<12} {n}");
    }
    let fig4 = outcome.fig4_hist();
    if !fig4.is_empty() {
        println!("\nResolver_h retention (Figure 4 grid, streamed histogram):");
        for (label, fraction) in
            traffic_shadowing::shadow_analysis::temporal::histogram_paper_grid(&fig4)
        {
            println!("  ≤{label:<5} {:.1}%", fraction * 100.0);
        }
    }
    println!("\n(elapsed: {:?})", started.elapsed());
}
