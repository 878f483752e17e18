//! Golden Phase I plans: the send times `plan_phase1` schedules for two
//! fixed worlds, pinned as FNV-1a-64 digest plus send count.
//!
//! The scheduler's output is a pure function of the post-pre-flight
//! roster, the destination lists and the rate limits; any change to how
//! it indexes VPs or targets must leave these constants alone.

use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::world::{World, WorldConfig};
use traffic_shadowing::shadow_netsim::fault::fnv1a64;

/// `(fnv1a64 over the little-endian send times, send count)` of the plan
/// for `world` after the pre-flight.
fn plan_digest(world: WorldConfig, config: &Phase1Config) -> (u64, usize) {
    let mut world = World::build(world);
    NoiseFilter::run_and_apply(&mut world);
    let plan = CampaignRunner::plan_phase1(&world, config);
    let bytes: Vec<u8> = plan.sends.iter().flat_map(|t| t.0.to_le_bytes()).collect();
    (fnv1a64(&bytes), plan.sends.len())
}

#[test]
fn standard_two_round_dns_tls_plan_is_pinned() {
    let config = Phase1Config {
        send_http: false,
        rounds: 2,
        ..Phase1Config::default()
    };
    assert_eq!(
        plan_digest(WorldConfig::standard(7), &config),
        (STANDARD_TWO_ROUNDS, STANDARD_TWO_ROUNDS_SENDS)
    );
}

#[test]
fn paper_sixty_fourth_plan_is_pinned() {
    // 1/64 of the paper's volume: both axes scale by 1/8, as
    // `WorldConfig::paper_scale_factor` grows them.
    let full = WorldConfig::paper_scale(100);
    let eighth = |n: usize| (n as f64 / 8.0).round() as usize;
    let world = WorldConfig {
        vps_global: eighth(full.vps_global),
        vps_cn: eighth(full.vps_cn),
        tranco_sites: eighth(full.tranco_sites),
        ..full
    };
    assert_eq!(
        (world.vps_global, world.vps_cn, world.tranco_sites),
        (273, 273, 291)
    );
    assert_eq!(
        plan_digest(world, &Phase1Config::default()),
        (PAPER_SIXTY_FOURTH, PAPER_SIXTY_FOURTH_SENDS)
    );
}

const STANDARD_TWO_ROUNDS: u64 = 0x96ec_b164_1c0f_d349;
const STANDARD_TWO_ROUNDS_SENDS: usize = 31_008;
const PAPER_SIXTY_FOURTH: u64 = 0x16fc_bcc1_e0a6_69a0;
const PAPER_SIXTY_FOURTH_SENDS: usize = 308_382;
