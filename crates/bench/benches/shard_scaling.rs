//! Shard-scaling benchmark: Phase I cost as the campaign is split into
//! K chunks drained by K workers (K = 1/2/4/8; one private world per
//! chunk, one shared plan, merged with the order-stable absorb). The
//! output is byte-identical for every K — see
//! `tests/sharded_equivalence.rs` — so this axis measures pure speedup.
//!
//! Two metrics per thread count:
//!
//! * `BENCH shard_scaling/phase1_threads_K` — wall-clock of the threaded
//!   executor on *this* host. On a single-core box (most CI runners) this
//!   cannot improve with K: the chunks time-slice one core and each one
//!   replays the pre-flight, so wall-clock *grows* with K.
//! * `SHARD_SPEEDUP {"threads":K,...}` — the critical path: the serial
//!   scout setup (instantiate + pre-flight + plan) plus the slowest single
//!   chunk (instantiate + pre-flight + owned Phase I slice; chunk 0
//!   reuses the scout world), measured with chunks run one at a time so
//!   they never contend. This is the wall-clock a host with >= K idle
//!   cores gets, and the number the >=2x-at-4-threads acceptance point
//!   reads.
//!
//! A third line, `SHARD_EVENTS {"threads":K,...}`, reports per-chunk
//! simulator event counts from a metrics-enabled run (taken outside the
//! timed loop; the criterion measurements keep telemetry disabled) so load
//! imbalance across the round-robin VP split is visible.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::executor::{
    run_phase1_work_stealing, shard_vps, StealConfig, TelemetryOptions,
};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_vantage::platform::VpId;

/// K chunks on K workers: the shape "K shards" names everywhere.
fn shape(threads: usize) -> StealConfig {
    StealConfig::with_workers(threads).with_chunks(threads)
}

fn bench(c: &mut Criterion) {
    let spec = generate_spec(WorldConfig::standard(7));
    let config = Phase1Config::default();
    println!(
        "\nsharding {} VPs across worker threads (standard world)",
        spec.platform.vps.len()
    );

    // Critical-path measurement: the scout setup, then each chunk's
    // pipeline alone, taking the slowest — the ideal-parallel wall-clock.
    let vp_ids: Vec<VpId> = spec.platform.vps.iter().map(|vp| vp.id).collect();
    let mut sequential_ns: Option<u128> = None;
    for threads in [1usize, 2, 4, 8] {
        let assignment = shard_vps(&vp_ids, threads);
        let start = Instant::now();
        let mut scout = spec.instantiate();
        NoiseFilter::run_and_apply(&mut scout);
        let plan = CampaignRunner::plan_phase1(&scout, &config);
        let setup_ns = start.elapsed().as_nanos();
        let mut scout = Some(scout);
        let mut slowest_ns: u128 = 0;
        for owned in &assignment {
            let start = Instant::now();
            let mut world = scout.take().unwrap_or_else(|| {
                let mut world = spec.instantiate();
                NoiseFilter::run_and_apply(&mut world);
                world
            });
            let data = CampaignRunner::execute_phase1(
                &mut world,
                &plan,
                &config,
                SinkConfig::retained(),
                |vp| owned.contains(&vp),
            );
            criterion::black_box(data);
            slowest_ns = slowest_ns.max(start.elapsed().as_nanos());
        }
        let critical_ns = setup_ns + slowest_ns;
        let baseline = *sequential_ns.get_or_insert(critical_ns);
        println!(
            "SHARD_SPEEDUP {{\"threads\":{},\"sequential_ns\":{},\"critical_path_ns\":{},\"speedup\":{:.2}}}",
            threads,
            baseline,
            critical_ns,
            baseline as f64 / critical_ns as f64
        );
    }

    // One metrics-enabled run per thread count (outside the timed group —
    // the criterion loop below stays telemetry-disabled) to report how
    // evenly the event load splits across chunks.
    for threads in [1usize, 2, 4, 8] {
        let sharded = run_phase1_work_stealing(
            &spec,
            &config,
            shape(threads),
            TelemetryOptions::enabled(false),
            None,
            SinkConfig::retained(),
        );
        let drained = &sharded.data.metrics.run.events_drained_per_shard;
        let total: u64 = drained.values().sum();
        let per_shard: Vec<String> = drained
            .iter()
            .map(|(shard, n)| format!("\"{shard}\":{n}"))
            .collect();
        println!(
            "SHARD_EVENTS {{\"threads\":{},\"total\":{},\"per_shard\":{{{}}}}}",
            threads,
            total,
            per_shard.join(",")
        );
    }

    // Wall-clock of the real threaded executor on this host.
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(&format!("phase1_threads_{threads}"), |b| {
            b.iter(|| {
                run_phase1_work_stealing(
                    &spec,
                    &config,
                    shape(threads),
                    TelemetryOptions::disabled(),
                    None,
                    SinkConfig::retained(),
                )
            })
        });
    }
    group.finish();

    shadow_bench::report_peak_rss("shard_scaling");
}

criterion_group!(benches, bench);
criterion_main!(benches);
