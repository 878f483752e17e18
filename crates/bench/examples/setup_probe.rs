//! Setup-cost breakdown behind DESIGN.md's plan numbers:
//! `setup_probe <smoke|paper|10x>` times spec generation, instantiation,
//! pre-flight replay and Phase I planning separately, and reports the
//! process's peak RSS (VmHWM) once the plan is built.

use shadow_bench::hotpath::peak_rss_bytes;
use shadow_bench::scale::world_for;
use std::time::Instant;
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::world::generate_spec;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args.get(1).map(String::as_str).unwrap_or("paper");
    eprintln!(
        "scale     {scale} (available_parallelism {})",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let t = Instant::now();
    let spec = generate_spec(world_for(scale));
    eprintln!("spec      {:?}", t.elapsed());
    let t = Instant::now();
    let mut world = spec.instantiate();
    eprintln!("instant   {:?}", t.elapsed());
    let t = Instant::now();
    let pf = NoiseFilter::run_and_apply(&mut world);
    eprintln!(
        "preflight {:?} (vetted {} )",
        t.elapsed(),
        pf.ttl_deltas.len()
    );
    let t = Instant::now();
    let plan = CampaignRunner::plan_phase1(&world, &Phase1Config::default());
    eprintln!(
        "plan      {:?} ({} sends, peak rss {} MB)",
        t.elapsed(),
        plan.sends.len(),
        peak_rss_bytes().unwrap_or(0) / (1 << 20)
    );
}
