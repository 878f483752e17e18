//! Golden analysis bundles: the exported JSON of three fixed studies,
//! pinned as FNV-1a-64 digest plus byte length.
//!
//! This is the implementation-independent oracle for every execution
//! shape: the equivalence matrices compare shapes with each other, this
//! file pins what they must all agree *on*. A change that moves any of
//! these constants changed the study's output, not just its speed.
//!
//! The standard-world digest is release-only (too slow for the debug
//! suite): `cargo test --release --test golden_bundles -- --include-ignored`.

use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::shadow_netsim::fault::fnv1a64;
use traffic_shadowing::study::{Study, StudyConfig};

/// `(fnv1a64, length)` of `export_bundle().to_json()` for `config`, run
/// as one chunk on one worker.
fn digest(config: StudyConfig) -> (u64, usize) {
    let json = Study::run_work_stealing(config, StealConfig::with_workers(1))
        .export_bundle()
        .to_json()
        .expect("bundle serializes");
    (fnv1a64(json.as_bytes()), json.len())
}

#[test]
fn tiny_streaming_bundle_is_pinned() {
    assert_eq!(
        digest(StudyConfig::tiny(7)),
        (TINY_STREAMING, TINY_STREAMING_LEN)
    );
}

#[test]
fn tiny_retained_bundle_is_pinned() {
    assert_eq!(
        digest(StudyConfig::tiny(7).with_retained_arrivals()),
        (TINY_RETAINED, TINY_RETAINED_LEN)
    );
}

#[test]
#[ignore = "standard world: release-only, run with --include-ignored"]
fn standard_streaming_bundle_is_pinned() {
    assert_eq!(
        digest(StudyConfig::standard(7)),
        (STANDARD_STREAMING, STANDARD_STREAMING_LEN)
    );
}

const TINY_STREAMING: u64 = 0x37f9_4177_db5c_48dd;
const TINY_STREAMING_LEN: usize = 38_843;
/// The tiny-world bundle `full_campaign 7 --tiny` writes.
const TINY_RETAINED: u64 = 0x1eaf_bf1e_f14d_7121;
const TINY_RETAINED_LEN: usize = 41_202;
const STANDARD_STREAMING: u64 = 0xd59b_6a8d_0a64_18fd;
const STANDARD_STREAMING_LEN: usize = 507_674;
