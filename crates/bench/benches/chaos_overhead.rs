//! Fault-injection overhead benchmark: what does arming the link
//! conditioner cost the Phase I hot path?
//!
//! Three configurations over the same tiny world:
//!
//! * `none` — no conditioner installed. The engine's per-hop check is a
//!   single `Option` test that branch-predicts away; this is the
//!   pre-chaos baseline every fault-free run must match byte-for-byte.
//! * `clean` — a compiled conditioner with zero impairments. Isolates
//!   the fixed cost of consulting the conditioner (outage lookups plus
//!   the value-derived draws) from the cost of acting on its verdicts.
//! * `faulty` — 1% loss + duplication + jitter + a scheduled router
//!   outage, the profile shape `chaos_sweep` exercises at scale.
//!
//! The acceptance posture: `none` vs `clean` is the overhead a user pays
//! for linking the chaos crate without using it, and it should be noise.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_chaos::{FaultProfile, OutageSpec, Window};
use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::executor::{
    run_phase1_work_stealing, StealConfig, TelemetryOptions,
};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_netsim::fault::LinkConditioner;

fn faulty_profile() -> FaultProfile {
    FaultProfile {
        duplication: 0.002,
        jitter_ms: 2,
        router_outage: Some(OutageSpec {
            fraction: 0.1,
            window: Window::new(60_000, 600_000),
        }),
        ..FaultProfile::with_loss("faulty", 0.01, 0xC0FFEE)
    }
}

fn bench(c: &mut Criterion) {
    let spec = generate_spec(WorldConfig::tiny(7));
    let config = Phase1Config::default();
    let targets = fault_targets(&spec);
    let clean = Arc::new(FaultProfile::baseline("clean").compile(&targets));
    let faulty = Arc::new(faulty_profile().compile(&targets));

    let cases: [(&str, Option<Arc<LinkConditioner>>); 3] = [
        ("none", None),
        ("clean", Some(clean)),
        ("faulty", Some(faulty)),
    ];

    let mut group = c.benchmark_group("chaos_overhead");
    group.sample_size(10);
    for (label, conditioner) in &cases {
        group.bench_function(&format!("phase1_{label}"), |b| {
            b.iter(|| {
                run_phase1_work_stealing(
                    &spec,
                    &config,
                    StealConfig::with_workers(1),
                    TelemetryOptions::disabled(),
                    conditioner.clone(),
                    SinkConfig::retained(),
                )
            })
        });
    }
    group.finish();

    shadow_bench::report_peak_rss("chaos_overhead");
}

criterion_group!(benches, bench);
criterion_main!(benches);
