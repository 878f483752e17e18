//! The campaign executor: chunked, work-stealing, deterministic.
//!
//! The campaign is embarrassingly parallel across vantage points: every
//! decoy is sent by exactly one VP, and the global send schedule is a pure
//! function of the (deterministic) world. A run therefore:
//!
//! 1. generates the [`WorldSpec`] once (all randomness lives there);
//! 2. partitions the VP set round-robin into [`StealConfig::chunks`]
//!    chunks;
//! 3. instantiates one scout [`World`], replays the Appendix-E pre-flight
//!    on it and schedules the *global* plan once — one send time per
//!    planned decoy, shared read-only by every chunk (the per-target rate
//!    limit couples all VPs, so only the scheduler pass must be global);
//! 4. lets [`StealConfig::workers`] threads drain the chunks, each chunk in
//!    its own private world instantiated from the shared spec (identical
//!    topology, exhibitor seeds and honeypots) with the pre-flight
//!    replayed. A chunk materializes only the decoys its VPs own — their
//!    domains, registry records and commands — posts them, and runs the
//!    clock through the global grace window;
//! 5. merges chunk outputs in chunk order with the commutative,
//!    order-stable [`CampaignData::absorb`].
//!
//! A sequential run is one chunk on one worker
//! (`StealConfig::with_workers(1)`); "K shards" is K chunks on K workers
//! (`StealConfig::with_workers(k).with_chunks(k)`).
//!
//! Because exhibitor randomness is value-derived (seeded per observation
//! from the decoy domain and time, never from a shared RNG stream), a
//! chunk observing only its own VPs' decoys makes the same probing
//! decisions a one-chunk run makes for those decoys. The one documented
//! divergence risk is retention-store *capacity* eviction (FIFO): a chunk
//! sees fewer identifiers than a one-chunk run, so a one-chunk run that
//! overflows a retention store could replay a different (older) subset.
//! The shipped worlds size retention well above per-store load;
//! `tests/sharded_equivalence.rs` enforces byte-identical output across
//! execution shapes and `tests/golden_bundles.rs` pins that output.

use crate::campaign::{CampaignData, CampaignRunner, Phase1Config};
use crate::correlate::PathKey;
use crate::noise::{NoiseFilter, PreflightOutcome};
use crate::phase2::{Phase2Config, Phase2Runner, TracerouteResult};
use crate::sink::SinkConfig;
use crate::world::{World, WorldSpec};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use shadow_netsim::engine::EngineStats;
use shadow_netsim::fault::LinkConditioner;
use shadow_telemetry::{EventKind, JournalRecord, Telemetry};
use shadow_vantage::platform::VpId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a run records about itself.
///
/// Telemetry is installed **after** the pre-flight replay: the Appendix-E
/// pre-flight runs identically in *every* chunk, so counting it K times
/// would break the "merged world counters equal the one-chunk run's"
/// invariant the telemetry exists to check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Collect metrics (counters + histograms).
    pub metrics: bool,
    /// Additionally buffer the structured event journal (implies metrics).
    pub journal: bool,
}

impl TelemetryOptions {
    /// Nothing recorded — the zero-cost default.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Metrics on; `journal` opts into the event journal too.
    pub fn enabled(journal: bool) -> Self {
        Self {
            metrics: true,
            journal,
        }
    }

    /// Build the per-shard engine handle.
    pub fn handle(&self, shard: u32) -> Telemetry {
        if self.journal {
            Telemetry::new(shard, true)
        } else if self.metrics {
            Telemetry::metrics_only(shard)
        } else {
            Telemetry::disabled()
        }
    }
}

/// Partition `vps` into `shards` round-robin sets (VP *i* goes to shard
/// `i % shards`). Deterministic in the input order; every VP lands in
/// exactly one shard. `shards` is clamped to at least 1 and at most the
/// number of VPs (empty shards are pointless but harmless — they still
/// replay the pre-flight — so we avoid creating them).
pub fn shard_vps(vps: &[VpId], shards: usize) -> Vec<BTreeSet<VpId>> {
    let k = shards.clamp(1, vps.len().max(1));
    let mut out = vec![BTreeSet::new(); k];
    for (i, vp) in vps.iter().enumerate() {
        out[i % k].insert(*vp);
    }
    out
}

/// The set of VPs that actually execute under an optional bound: the
/// first `limit` VPs in platform order, or `None` (everyone) when
/// unbounded. A `Some` set composes with shard ownership by intersection.
fn executing_vps(vp_ids: &[VpId], limit: Option<usize>) -> Option<BTreeSet<VpId>> {
    limit.map(|n| vp_ids.iter().take(n).copied().collect())
}

/// Everything a chunked Phase I produces: the merged campaign data plus
/// the per-chunk worlds kept alive for Phase II continuation.
pub struct ShardedPhase1 {
    /// Pre-flight outcome (identical in every chunk; chunk 0's copy).
    pub preflight: PreflightOutcome,
    /// Merged Phase I data, absorbed in chunk order.
    pub data: CampaignData,
    /// Per-chunk worlds, post Phase I. Chunk 0's world doubles as the
    /// analysis world (platform vetting is identical in every chunk).
    pub worlds: Vec<World>,
    /// The VP partition, by chunk index.
    pub assignment: Vec<BTreeSet<VpId>>,
    /// Engine statistics summed across chunks.
    pub stats: EngineStats,
}

/// Execution shape for the work-stealing scheduler: how many path chunks
/// the VP set splits into and how many OS workers drain them.
///
/// Chunks are the unit of stealing — more chunks means better balancing on
/// skewed worlds (a VP whose paths trigger heavy probe replay pins only
/// its own chunk to one thread) at the cost of one world
/// instantiation + pre-flight replay per chunk. The defaults oversubscribe
/// 2× so an unlucky worker always has something to steal, except at
/// `workers == 1` where splitting only adds instantiation overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Number of path-chunk work units (clamped to `[1, #VPs]`).
    pub chunks: usize,
    /// Number of worker threads (clamped to `[1, chunks]`).
    pub workers: usize,
}

impl StealConfig {
    /// Scale to the machine: one worker per available core, 2× chunk
    /// oversubscription (collapsing to a single chunk on one core).
    pub fn auto() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(workers)
    }

    /// A fixed worker count with the default 2× chunk oversubscription.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            chunks: if workers == 1 { 1 } else { workers * 2 },
            workers,
        }
    }

    /// Override the chunk count (builder style).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }
}

/// Pop the next chunk index: own deque first, then steal from peers.
/// Returns `None` only once every deque is empty — no new work units are
/// ever produced mid-run, so an `Empty` sweep (with `Retry` re-polled) is
/// a safe termination condition.
fn next_chunk(local: &Worker<usize>, me: usize, stealers: &[Stealer<usize>]) -> Option<usize> {
    if let Some(chunk) = local.pop() {
        return Some(chunk);
    }
    loop {
        let mut contended = false;
        for (peer, stealer) in stealers.iter().enumerate() {
            if peer == me {
                continue;
            }
            match stealer.steal() {
                Steal::Success(chunk) => return Some(chunk),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
        }
    }
}

/// Phase I under the work-stealing scheduler: the VP set splits into
/// [`StealConfig::chunks`] round-robin path chunks, seeded across
/// per-worker deques; idle workers steal chunks from their peers, so a
/// skewed world (one chunk's VPs triggering heavy exhibitor replay) keeps
/// every core busy instead of serializing on the slowest chunk.
///
/// * The global send schedule is computed **once** on a scout world and
///   shared read-only (`Arc`) with every chunk — it is a pure function of
///   the post-pre-flight world, so rescheduling per chunk would be pure
///   overhead. The schedule holds send times only: each chunk names,
///   registers and builds commands for its own VPs' decoys, so that
///   work runs in parallel and a bounded run (see
///   [`run_phase1_work_stealing_bounded`]) materializes only the VPs it
///   executes.
/// * Chunk→thread placement is nondeterministic (stealing), but each chunk
///   runs in its own private world keyed by chunk index and the merge
///   folds in chunk-index order, so output is byte-identical for any
///   `(chunks, workers)`, enforced by `tests/sharded_equivalence.rs`.
/// * Each chunk's engine gets its own telemetry handle (shard index =
///   chunk index) and the *same* fault conditioner, both installed after
///   the pre-flight replay: conditioner decisions are value-derived from
///   packet bytes, so chunks seeing disjoint traffic agree packet for
///   packet, and the pre-flight vets the platform on a healthy network,
///   keeping the global plan identical across shapes even under faults.
///   Snapshots and journals ride back inside each chunk's
///   [`CampaignData`] and merge in [`CampaignData::absorb`].
/// * Each chunk installs its own [`crate::sink::CorrelationSink`] over the
///   registry of the decoys it sent; with [`SinkConfig::streaming`] no chunk ever
///   buffers its arrival vector.
///
/// The scout world is not wasted: worker 0 uses it (post-pre-flight,
/// pre-telemetry) for the first chunk it claims, so `chunks == 1` costs
/// exactly one instantiation.
pub fn run_phase1_work_stealing(
    spec: &WorldSpec,
    config: &Phase1Config,
    steal: StealConfig,
    telemetry: TelemetryOptions,
    conditioner: Option<Arc<LinkConditioner>>,
    sink: SinkConfig,
) -> ShardedPhase1 {
    run_phase1_work_stealing_bounded(spec, config, steal, telemetry, conditioner, sink, None)
}

/// [`run_phase1_work_stealing`] with an optional execution bound: when
/// `vp_limit` is `Some(n)`, only the first `n` VPs (in platform order)
/// post their sends. The scout world, pre-flight replay and send schedule
/// still run at full scale — the bound trims the measured slice, not the
/// fixed setup cost. Unbounded callers are unaffected.
#[allow(clippy::too_many_arguments)]
pub fn run_phase1_work_stealing_bounded(
    spec: &WorldSpec,
    config: &Phase1Config,
    steal: StealConfig,
    telemetry: TelemetryOptions,
    conditioner: Option<Arc<LinkConditioner>>,
    sink: SinkConfig,
    vp_limit: Option<usize>,
) -> ShardedPhase1 {
    let vp_ids: Vec<VpId> = spec.platform.vps.iter().map(|vp| vp.id).collect();
    let allowed = executing_vps(&vp_ids, vp_limit);
    let allowed = &allowed;
    let chunks = steal.chunks.clamp(1, vp_ids.len().max(1));
    let workers = steal.workers.clamp(1, chunks);
    let assignment = shard_vps(&vp_ids, chunks);

    // Scout: pay one instantiation + pre-flight up front to compute the
    // global plan every chunk shares.
    let mut scout = spec.instantiate();
    let scout_preflight = NoiseFilter::run_and_apply(&mut scout);
    let plan = Arc::new(CampaignRunner::plan_phase1(&scout, config));
    let mut scout_slot = Some((scout, scout_preflight));

    let locals: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<usize>> = locals.iter().map(|w| w.stealer()).collect();
    for chunk in 0..chunks {
        locals[chunk % workers].push(chunk);
    }

    let mut chunk_outputs: Vec<(usize, (World, PreflightOutcome, CampaignData))> =
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = locals
                .into_iter()
                .enumerate()
                .map(|(me, local)| {
                    let stealers = &stealers;
                    let assignment = &assignment;
                    let plan = Arc::clone(&plan);
                    let conditioner = conditioner.clone();
                    // Worker 0 recycles the scout world for its first chunk.
                    let mut spare = if me == 0 { scout_slot.take() } else { None };
                    s.spawn(move || {
                        let mut done = Vec::new();
                        while let Some(chunk) = next_chunk(&local, me, stealers) {
                            let started = std::time::Instant::now();
                            let (mut world, preflight) = match spare.take() {
                                Some(ready) => ready,
                                None => {
                                    let mut world = spec.instantiate();
                                    let preflight = NoiseFilter::run_and_apply(&mut world);
                                    (world, preflight)
                                }
                            };
                            world.engine.set_telemetry(telemetry.handle(chunk as u32));
                            world.engine.set_conditioner(conditioner.clone());
                            let owned = &assignment[chunk];
                            let mut data = CampaignRunner::execute_phase1(
                                &mut world,
                                &plan,
                                config,
                                sink,
                                |vp| {
                                    owned.contains(&vp)
                                        && allowed.as_ref().is_none_or(|a| a.contains(&vp))
                                },
                            );
                            record_phase_wall(&mut data, "phase1", started);
                            done.push((chunk, (world, preflight, data)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("steal worker panicked"))
                .collect()
        });

    // Completion order is schedule-dependent; the merge order is not.
    chunk_outputs.sort_by_key(|(chunk, _)| *chunk);
    merge_shards(
        chunk_outputs.into_iter().map(|(_, out)| out).collect(),
        assignment,
    )
}

/// Phase II under the work-stealing scheduler, over the chunk worlds kept
/// from [`run_phase1_work_stealing`]. The sweep plan is computed once on
/// chunk 0's world and shared; workers steal `(chunk, world)` pairs from a
/// global injector until the queue drains. Observer localization reads
/// the merged aggregates' smallest-triggering-TTL fold, so
/// [`SinkConfig::streaming`] sweeps never buffer arrivals either.
pub fn run_phase2_work_stealing(
    worlds: &mut [World],
    assignment: &[BTreeSet<VpId>],
    paths: &[PathKey],
    config: &Phase2Config,
    workers: usize,
    sink: SinkConfig,
) -> (Vec<TracerouteResult>, CampaignData) {
    assert_eq!(
        worlds.len(),
        assignment.len(),
        "one world per chunk, in chunk order"
    );
    let plan = Arc::new(Phase2Runner::plan(&worlds[0], paths, config));
    let workers = workers.clamp(1, worlds.len().max(1));

    let queue: Injector<(usize, &mut World)> = Injector::new();
    for (chunk, world) in worlds.iter_mut().enumerate() {
        queue.push((chunk, world));
    }

    let mut chunk_outputs: Vec<(usize, CampaignData)> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let queue = &queue;
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        match queue.steal() {
                            Steal::Success((chunk, world)) => {
                                let started = std::time::Instant::now();
                                let owned = &assignment[chunk];
                                let mut data =
                                    Phase2Runner::execute(world, &plan, config, sink, |vp| {
                                        owned.contains(&vp)
                                    });
                                record_phase_wall(&mut data, "phase2", started);
                                done.push((chunk, data));
                            }
                            Steal::Retry => continue,
                            Steal::Empty => break,
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("steal worker panicked"))
            .collect()
    });

    chunk_outputs.sort_by_key(|(chunk, _)| *chunk);
    let mut merged: Option<CampaignData> = None;
    for (_, data) in chunk_outputs {
        match &mut merged {
            None => merged = Some(data),
            Some(acc) => acc.absorb(data),
        }
    }
    let mut merged = merged.expect("at least one chunk");
    shadow_telemetry::sort_records(&mut merged.journal);
    let results = Phase2Runner::localize(&merged, &plan.traced, config.max_ttl);
    (results, merged)
}

/// Fold a chunk's wall-clock into its already-taken snapshot. The snapshot
/// is taken inside the phase runner (before the full phase duration is
/// known), so the elapsed time is added to the frozen side here.
fn record_phase_wall(data: &mut CampaignData, phase: &str, started: std::time::Instant) {
    if data.metrics.is_empty() && data.journal.is_empty() {
        return;
    }
    let ns = started.elapsed().as_nanos() as u64;
    *data
        .metrics
        .run
        .phase_wall_ns
        .entry(phase.to_string())
        .or_insert(0) += ns;
}

fn merge_shards(
    shard_outputs: Vec<(World, PreflightOutcome, CampaignData)>,
    assignment: Vec<BTreeSet<VpId>>,
) -> ShardedPhase1 {
    let mut worlds = Vec::with_capacity(shard_outputs.len());
    let mut preflight = None;
    let mut data: Option<CampaignData> = None;
    let mut stats = EngineStats::default();
    for (shard_idx, (world, shard_preflight, mut shard_data)) in
        shard_outputs.into_iter().enumerate()
    {
        stats.absorb(world.engine.stats());
        if preflight.is_none() {
            preflight = Some(shard_preflight);
        }
        // Journaling runs get an audit marker per absorbed shard (meta —
        // diffs skip it, so shard counts stay comparable).
        if !shard_data.journal.is_empty() {
            shard_data.journal.push(JournalRecord {
                at_ms: shard_data.last_send.0,
                shard: shard_idx as u32,
                node: None,
                seq: u64::MAX,
                event: EventKind::ShardMerged {
                    shard: shard_idx as u32,
                    arrivals: shard_data.arrivals.len() as u64,
                    decoys: shard_data.registry.len() as u64,
                },
            });
        }
        match &mut data {
            None => data = Some(shard_data),
            Some(merged) => merged.absorb(shard_data),
        }
        worlds.push(world);
    }
    let mut data = data.expect("at least one shard");
    shadow_telemetry::sort_records(&mut data.journal);
    ShardedPhase1 {
        preflight: preflight.expect("at least one shard"),
        data,
        worlds,
        assignment,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<VpId> {
        raw.iter().map(|&i| VpId(i)).collect()
    }

    #[test]
    fn round_robin_covers_every_vp_exactly_once() {
        let vps = ids(&[0, 1, 2, 3, 4, 5, 6]);
        let shards = shard_vps(&vps, 3);
        assert_eq!(shards.len(), 3);
        let mut seen = BTreeSet::new();
        for shard in &shards {
            for vp in shard {
                assert!(seen.insert(*vp), "{vp:?} assigned twice");
            }
        }
        assert_eq!(seen.len(), vps.len());
        // Round-robin balance: sizes differ by at most one.
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
    }

    #[test]
    fn shard_count_is_clamped() {
        let vps = ids(&[0, 1]);
        assert_eq!(shard_vps(&vps, 0).len(), 1);
        assert_eq!(shard_vps(&vps, 100).len(), 2);
        assert_eq!(shard_vps(&[], 5).len(), 1);
    }
}
