//! End-to-end daemon test over a real loopback socket: start
//! `shadow-serve` on an ephemeral port, hammer `/api/aggregates` from
//! many concurrent readers while the campaign runs, and assert the final
//! served snapshot is **byte-identical** to the batch one-chunk
//! `Study::run_work_stealing` result — the acceptance bar for "the daemon
//! is the batch pipeline, continuously".

use shadow_serve::client::{http_get, sse_collect};
use shadow_serve::{serve, CampaignDriver, ServeConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::shadow_core::sink::CorrelationAggregates;
use traffic_shadowing::study::Study;

const SEED: u64 = 90_210;
const READERS: usize = 8;

/// What the daemon *should* serve after every wave completes: the
/// commutative absorb of each wave's batch aggregates, run as one chunk
/// on one worker whatever `config.shards` is (output is K-invariant), and
/// rendered exactly as `/api/aggregates` renders.
fn expected_aggregates_json(config: &ServeConfig) -> String {
    let mut cumulative = CorrelationAggregates::default();
    for wave_seed in config.wave_seeds() {
        let outcome = Study::run_work_stealing(
            config.wave_study_config(wave_seed),
            StealConfig::with_workers(1),
        );
        cumulative.absorb(outcome.phase1.aggregates);
    }
    serde_json::to_string_pretty(&cumulative.to_portable()).expect("renders")
}

fn run_daemon_under_load(config: ServeConfig) {
    let expected = expected_aggregates_json(&config);
    let mut handle = serve(CampaignDriver::new(config), "127.0.0.1:0").expect("daemon starts");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let polls = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let polls = Arc::clone(&polls);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let (code, body) = http_get(addr, "/api/aggregates").expect("GET aggregates");
                    assert_eq!(code, 200);
                    assert!(body.starts_with('{'), "not JSON: {body:.40}");
                    ok += 1;
                    polls.fetch_add(1, Ordering::Relaxed);
                }
                ok
            })
        })
        .collect();

    // One SSE subscriber rides along for the whole campaign.
    let tail = std::thread::spawn(move || {
        sse_collect(addr, "/api/journal/tail", 100_000, Duration::from_secs(120))
            .expect("SSE stream")
    });

    let driver = handle.join_campaign().expect("campaign finishes");
    let mid_run_polls = polls.load(Ordering::Relaxed);
    stop.store(true, Ordering::Release);
    for reader in readers {
        assert!(reader.join().expect("reader thread") >= 1);
    }
    assert!(
        mid_run_polls >= READERS as u64,
        "readers only managed {mid_run_polls} polls while the campaign ran"
    );

    // Byte-identity of the final served snapshot with the batch result.
    let (code, served) = http_get(addr, "/api/aggregates").expect("final GET");
    assert_eq!(code, 200);
    assert_eq!(served, expected, "served aggregates diverge from batch");

    // Metrics served == the driver's own cumulative render.
    let (_, metrics) = http_get(addr, "/api/metrics").expect("GET metrics");
    assert_eq!(metrics, driver.metrics().to_json().expect("renders"));

    // Status reflects completion and surfaces the backpressure counter.
    let (_, status) = http_get(addr, "/api/status").expect("GET status");
    assert!(status.contains("\"done\": true"), "{status}");
    assert!(status.contains("\"tail_events_dropped\""), "{status}");

    // Robustness cell of the latest wave is being served.
    let (_, robustness) = http_get(addr, "/api/robustness").expect("GET robustness");
    assert!(robustness.contains("\"name\""), "{robustness}");

    // The SSE stream terminates with the end event; whatever records it
    // caught are valid journal JSON on the campaign time axis.
    let (events, ended) = tail.join().expect("tail thread");
    assert!(ended, "tail subscriber never saw the end event");
    for event in &events {
        assert!(
            event.contains("\"at_ms\""),
            "not a journal record: {event:.80}"
        );
    }

    // Unknown routes 404, other methods 405.
    let (code, _) = http_get(addr, "/api/nope").expect("GET unknown");
    assert_eq!(code, 404);
}

#[test]
fn daemon_serves_batch_identical_aggregates_k1() {
    run_daemon_under_load(ServeConfig {
        waves: 1,
        shards: 1,
        ..ServeConfig::tiny(SEED)
    });
}

#[test]
#[ignore = "two sharded waves + batch twin: run in release via the CI serve-equivalence job"]
fn daemon_serves_batch_identical_aggregates_k4_two_waves() {
    run_daemon_under_load(ServeConfig {
        waves: 2,
        shards: 4,
        ..ServeConfig::tiny(SEED)
    });
}
