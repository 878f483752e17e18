//! The three workloads: their inputs (made from the run's seed), the timed
//! closed loop with tracing off, and the traced layer run.

use crate::checks::{check_digest, check_floors, check_resumed, digest, Tally};
use crate::host;
use crate::layers::{
    assemble, bundle_json, finalize_router_graph, merge_telemetry, phase1_config, phase2_config,
    render_report, run_one_chunk, setup_only, sink_config, ChunkRun,
};
use crate::stats::median;
use crate::trace::{self, Tracer};
use shadow_serve::{CampaignCheckpoint, CampaignDriver, ServeConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::correlate::Correlator;
use traffic_shadowing::shadow_core::executor::{
    run_phase1_work_stealing_bounded, run_phase2_work_stealing, StealConfig, TelemetryOptions,
};
use traffic_shadowing::shadow_core::phase2::paths_to_trace_streamed;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_telemetry::MetricsSnapshot;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

/// Worker threads of every parallel executor call.
pub const WORKERS: usize = 2;

/// `standard_report` world seeds. Per-seed study cost differs by about a
/// third, so the list is part of the workload; the run seed only rotates
/// which world goes first.
const STANDARD_SEEDS: [u64; 6] = [100, 101, 102, 103, 104, 105];
/// `paper_eighth` world seeds (one 2.4M-send world per study).
const PAPER_SEEDS: [u64; 1] = [100];
/// `paper_eighth`'s share of the paper's decoy volume; both axes (VPs and
/// sites) scale by its square root, as `WorldConfig::paper_scale_factor`
/// grows them: 771 + 771 VPs against 822 sites.
const PAPER_VOLUME_SHARE: f64 = 0.125;
/// VPs that post Phase I sends in `paper_eighth` (the scale bench's
/// documented VP slice); world, pre-flight and plan stay at full size.
const PAPER_VP_SLICE: usize = 32;
/// `journaled_waves` base seed: one three-wave campaign per cycle.
const JOURNAL_BASE_SEED: u64 = 7;
const JOURNAL_WAVES: usize = 3;
/// Load + resume repetitions on each campaign's final checkpoint.
const RESUME_REPS: usize = 3;
/// Set-up samples taken after each wave of `journaled_waves` (one after
/// each study elsewhere), and the fewest a run reports.
const SETUPS_PER_WAVE: usize = 4;
const MIN_SETUPS: usize = 3;

pub const WORKLOADS: [&str; 3] = ["standard_report", "paper_eighth", "journaled_waves"];

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("study_s", "s"),
    ("resume_s", "s"),
    ("setup_s", "s"),
    ("decoys_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("world.spec_s", "s"),
    ("world.instantiate_s", "s"),
    ("noise.preflight_s", "s"),
    ("noise.vps_excluded", "count"),
    ("campaign.plan_s", "s"),
    ("campaign.plan_sends", "count"),
    ("campaign.plan_ns_per_send", "ns"),
    ("campaign.plan_rss_mb", "MB"),
    ("campaign.execute_s", "s"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.packets_sent", "count"),
    ("netsim.packets_dropped", "count"),
    ("netsim.icmp_time_exceeded", "count"),
    ("sink.arrivals", "count"),
    ("sink.unsolicited_frac", "ratio"),
    ("sink.correlate_s", "s"),
    ("phase2.plan_s", "s"),
    ("phase2.execute_s", "s"),
    ("phase2.localize_s", "s"),
    ("phase2.sweep_decoys", "count"),
    ("phase2.localized_frac", "ratio"),
    ("topo.finalize_s", "s"),
    ("topo.links", "count"),
    ("study.assemble_s", "s"),
    ("analysis.report_s", "s"),
    ("analysis.bundle_s", "s"),
    ("analysis.bundle_bytes", "B"),
    ("executor.phase1_s", "s"),
    ("executor.phase2_s", "s"),
    ("executor.efficiency", "ratio"),
    ("proc.cpu_s", "s"),
    ("serve.wave_s", "s"),
    ("serve.save_s", "s"),
    ("serve.load_s", "s"),
    ("serve.resume_s", "s"),
    ("serve.checkpoint_bytes", "B"),
    ("serve.save_mb_per_s", "MB/s"),
    ("serve.load_mb_per_s", "MB/s"),
    ("telemetry.journal_records", "count"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.tap_observations", "count"),
    ("telemetry.queue_depth_max", "count"),
    ("dns.cache_hit_frac", "ratio"),
    ("observer.retention_evictions", "count"),
    ("chaos.packets_lost", "count"),
    ("chaos.dns_retries", "count"),
    ("trace.wall_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.top_coverage", "ratio"),
    ("trace.studies", "count"),
];

/// What one run of one workload reports.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// One world of a workload: its study config and, for the paper slice,
/// the Phase I VP bound.
#[derive(Clone)]
struct Input {
    id: u64,
    config: StudyConfig,
    vp_limit: Option<usize>,
}

fn rotate(seeds: &[u64], run_seed: u64) -> Vec<u64> {
    let mut v = seeds.to_vec();
    v.rotate_left((run_seed % seeds.len() as u64) as usize);
    v
}

fn standard_inputs(run_seed: u64) -> Vec<Input> {
    rotate(&STANDARD_SEEDS, run_seed)
        .into_iter()
        .map(|s| Input {
            id: s,
            // Retained arrivals, as `full_campaign` runs: the sample-level
            // report sections need them.
            config: StudyConfig::standard(s).with_retained_arrivals(),
            vp_limit: None,
        })
        .collect()
}

fn paper_inputs(run_seed: u64) -> Vec<Input> {
    rotate(&PAPER_SEEDS, run_seed)
        .into_iter()
        .map(|s| {
            let full = WorldConfig::paper_scale(s);
            let axis = PAPER_VOLUME_SHARE.sqrt();
            let scale = |n: usize| (n as f64 * axis).round() as usize;
            let world = WorldConfig {
                vps_global: scale(full.vps_global),
                vps_cn: scale(full.vps_cn),
                tranco_sites: scale(full.tranco_sites),
                ..full
            };
            Input {
                id: s,
                config: StudyConfig {
                    world,
                    ..StudyConfig::paper_scale(s)
                },
                vp_limit: Some(PAPER_VP_SLICE),
            }
        })
        .collect()
}

/// `full_campaign --waves 3 --loss 2` on the standard world, streaming
/// instead of retaining, at one shard.
fn journal_config() -> ServeConfig {
    let faults = FaultProfile {
        dns_retry: Some(RetrySpec::STANDARD),
        ..FaultProfile::with_loss("loss2%", 0.02, 1)
    };
    ServeConfig {
        study: StudyConfig {
            telemetry: TelemetryOptions::enabled(true),
            faults: Some(faults),
            ..StudyConfig::standard(JOURNAL_BASE_SEED)
        },
        waves: JOURNAL_WAVES,
        shards: 1,
        checkpoint_path: None,
        tail_capacity: 4096,
        http_workers: 1,
    }
}

/// Each wave's study, as the driver derives it.
fn journal_inputs(config: &ServeConfig) -> Vec<Input> {
    config
        .wave_seeds()
        .into_iter()
        .map(|s| Input {
            id: s,
            config: config.wave_study_config(s),
            vp_limit: None,
        })
        .collect()
}

fn work_dir() -> PathBuf {
    let dir = Path::new(".perfbench").join("work");
    std::fs::create_dir_all(&dir).expect("work directory under the checkout");
    dir
}

/// Run `workload` for at least `seconds`, tracing off (`trace = false`) or
/// through the traced layer run.
pub fn run(workload: &str, run_seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let budget = Duration::from_secs(seconds);
    let result = match (workload, trace) {
        ("standard_report", false) => studies_e2e(&standard_inputs(run_seed), budget),
        ("paper_eighth", false) => studies_e2e(&paper_inputs(run_seed), budget),
        ("journaled_waves", false) => waves_e2e(budget),
        ("standard_report", true) => traced(workload, &standard_inputs(run_seed), None, run_seed),
        ("paper_eighth", true) => traced(workload, &paper_inputs(run_seed), None, run_seed),
        ("journaled_waves", true) => {
            let config = journal_config();
            traced(workload, &journal_inputs(&config), Some(config), run_seed)
        }
        _ => return Err(format!("unknown workload {workload:?}")),
    };
    Ok(result)
}

/// One-chunk reference study: its bundle digest.
fn reference(tally: &mut Tally, input: &Input) -> Option<u64> {
    tally.attempt("reference study", || {
        let run = run_one_chunk(
            &input.config,
            input.vp_limit,
            &mut Tracer::new(false),
            input.id,
        );
        check_floors(&run.outcome)?;
        render_report(&run.outcome);
        Ok(digest(bundle_json(&run.outcome).as_bytes()))
    })
}

/// Set-up samples of the first world, taken between the timed operations
/// so that they span the whole run: the host's speed drifts within a run
/// (a single-threaded set-up runs up to 1.4x slower on a busy core), and
/// samples bunched at one moment report that moment.
struct SetupSampler<'a> {
    config: &'a StudyConfig,
    samples: Vec<f64>,
    /// Wall spent sampling, kept out of the run's measuring budget.
    spent: Duration,
}

impl<'a> SetupSampler<'a> {
    fn new(config: &'a StudyConfig) -> Self {
        Self {
            config,
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    fn sample(&mut self, n: usize) {
        let t0 = Instant::now();
        for _ in 0..n {
            self.samples.push(setup_only(self.config));
        }
        self.spent += t0.elapsed();
    }

    fn median(mut self) -> f64 {
        self.sample(MIN_SETUPS.saturating_sub(self.samples.len()));
        median(&self.samples).unwrap_or(0.0)
    }
}

/// A study under the 2-worker work-stealing executor, composed from the
/// executor's Phase I and Phase II calls (a span around each) the way
/// `Study::run_work_stealing` composes them, plus the VP bound `Study`
/// does not expose.
fn ws_study(input: &Input, tracer: &mut Tracer) -> StudyOutcome {
    let config = &input.config;
    tracer.enter("executor.study", input.id);
    let spec = generate_spec(config.world.clone());
    let conditioner = config
        .faults
        .as_ref()
        .map(|p| Arc::new(p.compile(&fault_targets(&spec))));
    let sink = sink_config(config);
    let mut sharded = tracer.time("executor.phase1", input.id, || {
        run_phase1_work_stealing_bounded(
            &spec,
            &phase1_config(config),
            StealConfig::with_workers(WORKERS),
            config.telemetry,
            conditioner,
            sink,
            input.vp_limit,
        )
    });
    let correlated = if config.retain_arrivals {
        Correlator::new(&sharded.data.registry).correlate(&sharded.data.arrivals)
    } else {
        Vec::new()
    };
    let traced = paths_to_trace_streamed(&sharded.data.aggregates, config.trace_cap_per_protocol);
    let (traceroutes, phase2) = tracer.time("executor.phase2", input.id, || {
        run_phase2_work_stealing(
            &mut sharded.worlds,
            &sharded.assignment,
            &traced,
            &phase2_config(config),
            WORKERS,
            sink,
        )
    });
    let mut phase1 = sharded.data;
    let mut phase2 = Some(phase2);
    let (metrics, journal) = merge_telemetry(config, &mut phase1, phase2.as_mut());
    let world = sharded.worlds.swap_remove(0);
    let router_graph = finalize_router_graph(phase2.as_ref(), &world);
    let outcome = assemble(
        world,
        sharded.preflight,
        phase1,
        phase2,
        correlated,
        config.retain_arrivals,
        traced,
        traceroutes,
        router_graph,
        metrics,
        journal,
    );
    tracer.exit();
    outcome
}

/// The timed study: `Study::run_work_stealing` itself where it applies,
/// the bounded executor composition for the paper slice.
fn timed_study(input: &Input) -> StudyOutcome {
    match input.vp_limit {
        None => Study::run_work_stealing(input.config.clone(), StealConfig::with_workers(WORKERS)),
        Some(_) => ws_study(input, &mut Tracer::new(false)),
    }
}

/// `standard_report` and `paper_eighth`: closed-loop studies over the
/// world list, in whole passes, each checked against its one-chunk
/// reference. The reference pass doubles as warm-up.
fn studies_e2e(inputs: &[Input], budget: Duration) -> RunResult {
    let mut tally = Tally::default();
    let mut setup = SetupSampler::new(&inputs[0].config);
    let mut refs: BTreeMap<u64, u64> = BTreeMap::new();
    for input in inputs {
        if let Some(d) = reference(&mut tally, input) {
            refs.insert(input.id, d);
        }
    }

    // Whole passes of the world list.
    let mut by_world = Units::new();
    let mut passes = 0;
    let started = Instant::now();
    while passes == 0 || started.elapsed().saturating_sub(setup.spent) < budget {
        let mut walls = Vec::new();
        for input in inputs {
            let t0 = Instant::now();
            let done = tally.attempt("study", || {
                let outcome = timed_study(input);
                render_report(&outcome);
                let json = bundle_json(&outcome);
                let wall = t0.elapsed().as_secs_f64();
                check_digest(digest(json.as_bytes()), refs.get(&input.id).copied())?;
                check_floors(&outcome)?;
                Ok((wall, outcome.total_decoys()))
            });
            if let Some((wall, n)) = done {
                walls.push(wall);
                by_world.record(input.id, n, wall);
            }
            setup.sample(1);
        }
        if walls.is_empty() {
            break;
        }
        passes += 1;
        eprintln!("perfbench: pass {passes} study walls {walls:.4?} s");
    }
    let (study_s, decoys_per_s) = by_world.rates();
    let mut metrics = BTreeMap::new();
    metrics.insert("study_s", study_s);
    // No checkpoint is kept: recovering the report after a crash re-runs
    // the study.
    metrics.insert("resume_s", study_s);
    metrics.insert("setup_s", setup.median());
    metrics.insert("decoys_per_s", decoys_per_s);
    metrics.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    RunResult { tally, metrics }
}

/// Walls per unit of a workload (a world, or a wave index), with the
/// decoys one run of that unit simulates. Units differ in cost by design,
/// so each unit's median wall is taken first: a burst of host noise during
/// one pass moves a median far less than it moves a mean.
struct Units(BTreeMap<u64, (usize, Vec<f64>)>);

impl Units {
    fn new() -> Self {
        Self(BTreeMap::new())
    }

    fn record(&mut self, unit: u64, decoys: usize, wall: f64) {
        let entry = self.0.entry(unit).or_insert((decoys, Vec::new()));
        entry.1.push(wall);
    }

    /// (Mean over units of the median wall, decoys of one pass over the
    /// units ÷ the sum of their median walls.)
    fn rates(&self) -> (f64, f64) {
        let medians: Vec<f64> = self.0.values().filter_map(|(_, w)| median(w)).collect();
        let decoys: usize = self.0.values().map(|(d, _)| d).sum();
        let sum: f64 = medians.iter().sum();
        (
            sum / medians.len().max(1) as f64,
            decoys as f64 / sum.max(1e-9),
        )
    }
}

/// One journaled campaign: every wave followed by its checkpoint save,
/// then load + resume of the final checkpoint, checked against the live
/// driver, [`RESUME_REPS`] times.
struct Cycle {
    waves: Vec<f64>,
    saves: Vec<f64>,
    /// `CampaignCheckpoint::load` walls, one per resume repetition.
    loads: Vec<f64>,
    /// `CampaignDriver::resume` walls after each load.
    resumes: Vec<f64>,
    checkpoint_bytes: u64,
    /// Decoys each wave simulated.
    decoys: Vec<usize>,
}

fn journal_cycle(
    tally: &mut Tally,
    config: &ServeConfig,
    path: &Path,
    tracer: &mut Tracer,
    mut setup: Option<&mut SetupSampler>,
) -> Option<Cycle> {
    let mut live = CampaignDriver::new(config.clone());
    let mut cycle = Cycle {
        waves: Vec::new(),
        saves: Vec::new(),
        loads: Vec::new(),
        resumes: Vec::new(),
        checkpoint_bytes: 0,
        decoys: Vec::new(),
    };
    for wave in 0..config.waves {
        let t0 = Instant::now();
        tracer.enter("serve.wave", wave as u64);
        let done = tally.attempt("wave", || {
            let report = live
                .run_next_wave()
                .ok_or("driver finished early".to_string())?;
            let s0 = Instant::now();
            tracer
                .time("serve.save", wave as u64, || live.save_checkpoint(path))
                .map_err(|e| e.to_string())?;
            let save = s0.elapsed().as_secs_f64();
            check_floors(&report.outcome)?;
            Ok((save, report.outcome.total_decoys()))
        });
        tracer.exit();
        let wall = t0.elapsed().as_secs_f64();
        let Some((save, decoys)) = done else {
            let _ = std::fs::remove_file(path);
            return None;
        };
        if let Some(setup) = setup.as_mut() {
            setup.sample(SETUPS_PER_WAVE);
        }
        cycle.waves.push(wall);
        cycle.saves.push(save);
        cycle.decoys.push(decoys);
    }
    cycle.checkpoint_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    for rep in 0..RESUME_REPS {
        let resumed = tally.attempt("resume", || {
            let t0 = Instant::now();
            let checkpoint = tracer
                .time("serve.load", rep as u64, || CampaignCheckpoint::load(path))
                .map_err(|e| e.to_string())?;
            let load_s = t0.elapsed().as_secs_f64();
            let resumed = tracer
                .time("serve.resume", rep as u64, || {
                    CampaignDriver::resume(config.clone(), checkpoint)
                })
                .map_err(|e| e.to_string())?;
            let total = t0.elapsed().as_secs_f64();
            check_resumed(&live, &resumed)?;
            Ok((load_s, total - load_s))
        });
        let Some((load_s, resume_s)) = resumed else {
            break;
        };
        cycle.loads.push(load_s);
        cycle.resumes.push(resume_s);
    }
    let _ = std::fs::remove_file(path);
    (cycle.resumes.len() == RESUME_REPS).then_some(cycle)
}

fn checkpoint_path() -> PathBuf {
    work_dir().join(format!("checkpoint-{}.json", std::process::id()))
}

/// `journaled_waves`: closed-loop campaigns, each a whole cycle.
fn waves_e2e(budget: Duration) -> RunResult {
    let config = journal_config();
    let inputs = journal_inputs(&config);
    let mut tally = Tally::default();
    let mut setup = SetupSampler::new(&inputs[0].config);
    let path = checkpoint_path();
    // Waves differ by design (saves grow with the journal).
    let mut by_wave = Units::new();
    let mut resumes = Vec::new();
    let started = Instant::now();
    while resumes.is_empty() || started.elapsed().saturating_sub(setup.spent) < budget {
        let mut off = Tracer::new(false);
        let Some(cycle) = journal_cycle(&mut tally, &config, &path, &mut off, Some(&mut setup))
        else {
            break;
        };
        for (wave, (wall, decoys)) in cycle.waves.iter().zip(&cycle.decoys).enumerate() {
            by_wave.record(wave as u64, *decoys, *wall);
        }
        resumes.extend(cycle.loads.iter().zip(&cycle.resumes).map(|(l, r)| l + r));
        eprintln!(
            "perfbench: waves {:.4?} s, loads {:.4?} s, resumes {:.4?} s",
            cycle.waves, cycle.loads, cycle.resumes
        );
    }
    let mut metrics = BTreeMap::new();
    let (study_s, decoys_per_s) = by_wave.rates();
    metrics.insert("study_s", study_s);
    metrics.insert("resume_s", median(&resumes).unwrap_or(0.0));
    metrics.insert("setup_s", setup.median());
    metrics.insert("decoys_per_s", decoys_per_s);
    metrics.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    RunResult { tally, metrics }
}

/// Counters summed over the traced pass.
#[derive(Default)]
struct Counts {
    excluded: f64,
    plan_sends: f64,
    plan_rss_mb: Vec<f64>,
    events: f64,
    packets_sent: f64,
    packets_dropped: f64,
    icmp: f64,
    arrivals: f64,
    unsolicited: f64,
    sweep_decoys: f64,
    traceroutes: f64,
    localized: f64,
    links: f64,
    bundle_bytes: Vec<f64>,
    execute_s: f64,
    phase2_execute_s: f64,
}

impl Counts {
    fn add(&mut self, run: &ChunkRun) {
        let o = &run.outcome;
        self.excluded += o.world.platform.excluded.len() as f64;
        self.plan_sends += run.plan_sends as f64;
        self.plan_rss_mb.push(run.plan_rss_mb);
        self.events += run.stats.events_processed as f64;
        self.packets_sent += run.stats.packets_sent as f64;
        self.packets_dropped +=
            (run.stats.packets_dropped_unroutable + run.stats.packets_dropped_by_tap) as f64;
        self.icmp += run.stats.icmp_time_exceeded_sent as f64;
        self.arrivals += o.phase1.aggregates.arrivals_seen as f64;
        self.unsolicited += o.phase1.aggregates.unsolicited_total() as f64;
        self.sweep_decoys += o.phase2.as_ref().map_or(0, |p| p.registry.len()) as f64;
        self.traceroutes += o.traceroutes.len() as f64;
        self.localized += o
            .traceroutes
            .iter()
            .filter(|r| r.normalized_hop.is_some())
            .count() as f64;
        self.links += o.router_graph.links.len() as f64;
        self.execute_s += run.execute_s;
        self.phase2_execute_s += run.phase2_execute_s;
    }
}

/// Telemetry counters read from a merged snapshot.
fn telemetry_counters(
    snapshot: &MetricsSnapshot,
    journal_records: usize,
) -> [(&'static str, f64); 7] {
    let w = &snapshot.world;
    let r = &snapshot.run;
    let queue_max = r
        .queue_depth
        .bounds
        .iter()
        .zip(&r.queue_depth.counts)
        .filter(|(_, n)| **n > 0)
        .map(|(b, _)| *b)
        .max()
        .unwrap_or(0);
    [
        ("telemetry.journal_records", journal_records as f64),
        ("telemetry.tap_observations", w.tap_observations as f64),
        ("telemetry.queue_depth_max", queue_max as f64),
        (
            "dns.cache_hit_frac",
            w.resolver_cache_hits as f64 / (w.resolver_queries as f64).max(1.0),
        ),
        (
            "observer.retention_evictions",
            r.retention_capacity_evictions as f64,
        ),
        ("chaos.packets_lost", w.fault_packets_lost as f64),
        ("chaos.dns_retries", w.dns_retries as f64),
    ]
}

/// One traced study through the layer calls, with the report and bundle.
fn traced_study(
    tally: &mut Tally,
    input: &Input,
    tracer: &mut Tracer,
    expected: Option<u64>,
) -> Option<(ChunkRun, u64, f64, usize)> {
    tally.attempt("traced study", || {
        let t0 = Instant::now();
        let run = run_one_chunk(&input.config, input.vp_limit, tracer, input.id);
        tracer.time("analysis.report", input.id, || render_report(&run.outcome));
        let json = tracer.time("analysis.bundle", input.id, || bundle_json(&run.outcome));
        let wall = t0.elapsed().as_secs_f64();
        check_floors(&run.outcome)?;
        let d = digest(json.as_bytes());
        expected.map_or(Ok(()), |e| check_digest(d, Some(e)))?;
        Ok((run, d, wall, json.len()))
    })
}

/// The traced layer run: every world of the workload one chunk at a time
/// with spans around each layer call (and once more untraced, for the
/// overhead), then the 2-worker executor calls on the first world (their
/// bundle must match the traced one), telemetry toggled on the first
/// world, and the checkpoint cycle where the workload has one.
fn traced(
    workload: &str,
    inputs: &[Input],
    serve: Option<ServeConfig>,
    run_seed: u64,
) -> RunResult {
    let mut tally = Tally::default();
    // Warm-up: the first study of a process pays for growing the heap;
    // neither the traced nor the untraced pass should.
    tally.attempt("warm-up study", || {
        let run = run_one_chunk(
            &inputs[0].config,
            inputs[0].vp_limit,
            &mut Tracer::new(false),
            0,
        );
        check_floors(&run.outcome)
    });
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let mut tracer = Tracer::new(true);
    let wall0 = Instant::now();

    let mut counts = Counts::default();
    let mut digests = BTreeMap::new();
    let mut study_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut telemetry_on: Option<(MetricsSnapshot, usize)> = None;
    // Each world runs traced and untraced back to back, in alternating
    // order, so host noise hits both sides of the overhead alike.
    // Both must export the same bundle.
    let mut untraced = |tally: &mut Tally, input: &Input, expected: Option<u64>| {
        let t0 = Instant::now();
        let d = tally.attempt("untraced study", || {
            let run = run_one_chunk(
                &input.config,
                input.vp_limit,
                &mut Tracer::new(false),
                input.id,
            );
            render_report(&run.outcome);
            let d = digest(bundle_json(&run.outcome).as_bytes());
            expected.map_or(Ok(()), |e| check_digest(d, Some(e)))?;
            Ok(d)
        });
        untraced_walls.push(t0.elapsed().as_secs_f64());
        d
    };
    for (i, input) in inputs.iter().enumerate() {
        let traced_run = if i % 2 == 0 {
            let traced_run = traced_study(&mut tally, input, &mut tracer, None);
            untraced(&mut tally, input, traced_run.as_ref().map(|t| t.1));
            traced_run
        } else {
            let expected = untraced(&mut tally, input, None);
            traced_study(&mut tally, input, &mut tracer, expected)
        };
        if let Some((run, d, wall, bytes)) = traced_run {
            counts.add(&run);
            counts.bundle_bytes.push(bytes as f64);
            digests.insert(input.id, d);
            study_walls.push(wall);
            if let Some(m) = &run.outcome.metrics {
                let records = run.outcome.journal.as_ref().map_or(0, Vec::len);
                match &mut telemetry_on {
                    None => telemetry_on = Some((m.clone(), records)),
                    Some((acc, n)) => {
                        acc.merge(m);
                        *n += records;
                    }
                }
            }
        }
    }
    let traced_s: f64 = study_walls.iter().sum();
    let untraced_s: f64 = untraced_walls.iter().sum();
    let spans_main = tracer.spans().len();

    // The 2-worker executor on the first world.
    let first = &inputs[0];
    tally.attempt("executor study", || {
        let outcome = ws_study(first, &mut tracer);
        let d = digest(bundle_json(&outcome).as_bytes());
        check_digest(d, digests.get(&first.id).copied())
    });

    // Telemetry toggled on the first world: the overhead is the study with
    // telemetry on minus the same study with it off.
    let toggled = tally.attempt("telemetry probe", || {
        let mut config = first.config.clone();
        let on = !config.telemetry.metrics;
        config.telemetry = if on {
            TelemetryOptions::enabled(true)
        } else {
            TelemetryOptions::disabled()
        };
        let probe = Input {
            config,
            ..first.clone()
        };
        let t0 = Instant::now();
        let run = tracer.time("telemetry.probe", first.id, || {
            let run = run_one_chunk(
                &probe.config,
                probe.vp_limit,
                &mut Tracer::new(false),
                probe.id,
            );
            render_report(&run.outcome);
            let _ = bundle_json(&run.outcome);
            run
        });
        let wall = t0.elapsed().as_secs_f64();
        let snapshot = run
            .outcome
            .metrics
            .clone()
            .map(|m| (m, run.outcome.journal.as_ref().map_or(0, Vec::len)));
        Ok((on, wall, snapshot))
    });

    let cycle = serve.as_ref().and_then(|config| {
        let path = checkpoint_path();
        journal_cycle(&mut tally, config, &path, &mut tracer, None)
    });

    // The traced run's wall leaves out the untraced comparison studies,
    // which carry no spans.
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let untraced_ns = (untraced_s * 1e9) as u64;
    let traced_wall_ns = wall_ns.saturating_sub(untraced_ns);
    let cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu0;

    let spans = tracer.spans();
    let main = &spans[..spans_main];
    let per_study = |name: &str| median(&trace::durations_s(main, name)).unwrap_or(0.0);
    let sum_of = |name: &str| trace::durations_s(spans, name).iter().sum::<f64>();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in [
        "world.spec",
        "world.instantiate",
        "noise.preflight",
        "campaign.plan",
        "campaign.execute",
        "sink.correlate",
        "phase2.plan",
        "phase2.execute",
        "phase2.localize",
        "topo.finalize",
        "study.assemble",
        "analysis.report",
        "analysis.bundle",
    ] {
        let key = PER_LAYER
            .iter()
            .find(|(k, _)| k.strip_suffix("_s") == Some(name))
            .map(|(k, _)| *k)
            .expect("every traced layer call has a metric");
        m.insert(key, per_study(name));
    }
    let studies = study_walls.len().max(1) as f64;
    m.insert("noise.vps_excluded", counts.excluded / studies);
    m.insert("campaign.plan_sends", counts.plan_sends / studies);
    m.insert(
        "campaign.plan_ns_per_send",
        trace::durations_s(main, "campaign.plan")
            .iter()
            .sum::<f64>()
            * 1e9
            / counts.plan_sends.max(1.0),
    );
    m.insert(
        "campaign.plan_rss_mb",
        median(&counts.plan_rss_mb).unwrap_or(0.0),
    );
    m.insert("netsim.events", counts.events / studies);
    m.insert(
        "netsim.events_per_s",
        counts.events / (counts.execute_s + counts.phase2_execute_s).max(1e-9),
    );
    m.insert("netsim.packets_sent", counts.packets_sent / studies);
    m.insert("netsim.packets_dropped", counts.packets_dropped / studies);
    m.insert("netsim.icmp_time_exceeded", counts.icmp / studies);
    m.insert("sink.arrivals", counts.arrivals / studies);
    m.insert(
        "sink.unsolicited_frac",
        counts.unsolicited / counts.arrivals.max(1.0),
    );
    m.insert("phase2.sweep_decoys", counts.sweep_decoys / studies);
    m.insert(
        "phase2.localized_frac",
        counts.localized / counts.traceroutes.max(1.0),
    );
    m.insert("topo.links", counts.links / studies);
    m.insert(
        "analysis.bundle_bytes",
        median(&counts.bundle_bytes).unwrap_or(0.0),
    );

    let executor_p1 = sum_of("executor.phase1");
    let executor_p2 = sum_of("executor.phase2");
    m.insert("executor.phase1_s", executor_p1);
    m.insert("executor.phase2_s", executor_p2);
    let main_first: Vec<&trace::Span> = main.iter().filter(|s| s.study == first.id).collect();
    let one_chunk_phase1: f64 = main_first
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "world.instantiate" | "noise.preflight" | "campaign.plan" | "campaign.execute"
            )
        })
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    m.insert(
        "executor.efficiency",
        one_chunk_phase1 / (WORKERS as f64 * executor_p1).max(1e-9),
    );
    m.insert("proc.cpu_s", cpu_s);

    let (wave_s, save_s, load_s, resume_s, bytes, save_rate, load_rate) = match &cycle {
        Some(c) => {
            let saves: f64 = c.saves.iter().sum();
            let mb = c.checkpoint_bytes as f64 / 1e6;
            (
                median(&c.waves).unwrap_or(0.0),
                median(&c.saves).unwrap_or(0.0),
                median(&c.loads).unwrap_or(0.0),
                median(&c.resumes).unwrap_or(0.0),
                c.checkpoint_bytes as f64,
                // Every save rewrites the growing state; rate over the
                // final checkpoint's size against the final save.
                mb / c.saves.last().copied().unwrap_or(saves).max(1e-9),
                mb / median(&c.loads).unwrap_or(0.0).max(1e-9),
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    m.insert("serve.wave_s", wave_s);
    m.insert("serve.save_s", save_s);
    m.insert("serve.load_s", load_s);
    m.insert("serve.resume_s", resume_s);
    m.insert("serve.checkpoint_bytes", bytes);
    m.insert("serve.save_mb_per_s", save_rate);
    m.insert("serve.load_mb_per_s", load_rate);

    let first_wall = untraced_walls.first().copied().unwrap_or(0.0);
    let mut overhead = 0.0;
    let mut counters_from = telemetry_on;
    if let Some((on, wall, snapshot)) = toggled {
        overhead = if on {
            wall - first_wall
        } else {
            first_wall - wall
        };
        if counters_from.is_none() {
            counters_from = snapshot;
        }
    }
    m.insert("telemetry.overhead_s", overhead);
    let counters = counters_from
        .map(|(s, n)| telemetry_counters(&s, n))
        .unwrap_or_else(|| telemetry_counters(&MetricsSnapshot::default(), 0));
    for (k, v) in counters {
        m.insert(k, v);
    }

    m.insert("trace.wall_s", traced_wall_ns as f64 / 1e9);
    m.insert("trace.traced_s", traced_s);
    m.insert("trace.untraced_s", untraced_s);
    m.insert("trace.overhead_frac", traced_s / untraced_s.max(1e-9) - 1.0);
    m.insert(
        "trace.top_coverage",
        trace::top_level_coverage(spans, wall_ns) * wall_ns as f64 / traced_wall_ns.max(1) as f64,
    );
    m.insert("trace.studies", study_walls.len() as f64);

    write_trace(workload, run_seed, spans, traced_wall_ns, &m);
    RunResult { tally, metrics: m }
}

/// Write the spans, per-name self times and layer shares to
/// `.perfbench/trace-<workload>-seed<N>.json`.
fn write_trace(
    workload: &str,
    run_seed: u64,
    spans: &[trace::Span],
    wall_ns: u64,
    metrics: &BTreeMap<&'static str, f64>,
) {
    let totals = trace::totals_by_name(spans);
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{},\"self_share\":{}}}",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9,
                t.self_ns as f64 / wall_ns.max(1) as f64
            )
        })
        .collect();
    let metric_rows: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let text = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{run_seed},\"wall_s\":{},\n\"layers\":{{{}}},\n\"metrics\":{{{}}},\n\"spans\":{}}}\n",
        wall_ns as f64 / 1e9,
        rows.join(",\n"),
        metric_rows.join(","),
        trace::spans_json(spans)
    );
    let dir = Path::new(".perfbench");
    let path = dir.join(format!("trace-{workload}-seed{run_seed}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_average_per_unit_medians() {
        let mut units = Units::new();
        // Unit 1: median 2.0 of {1, 2, 9}; unit 2: median 4.0 of {4}.
        for wall in [1.0, 9.0, 2.0] {
            units.record(1, 30, wall);
        }
        units.record(2, 60, 4.0);
        let (study_s, decoys_per_s) = units.rates();
        assert_eq!(study_s, 3.0);
        assert_eq!(decoys_per_s, 90.0 / 6.0);
    }

    #[test]
    fn run_seed_rotates_a_fixed_world_list() {
        let ids = |seed| -> Vec<u64> { standard_inputs(seed).iter().map(|i| i.id).collect() };
        assert_eq!(ids(0), STANDARD_SEEDS.to_vec());
        assert_eq!(ids(7), ids(1));
        assert_eq!(ids(1)[0], 101);
        let mut sorted = ids(5);
        sorted.sort_unstable();
        assert_eq!(sorted, STANDARD_SEEDS.to_vec());
    }
}
