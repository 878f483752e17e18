//! End-to-end integration tests over the whole stack: a miniature campaign
//! must qualitatively recover every headline finding of the paper.

use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::executor::StealConfig;
use traffic_shadowing::shadow_netsim::time::SimDuration;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

fn outcome() -> &'static StudyOutcome {
    use std::sync::OnceLock;
    static OUTCOME: OnceLock<StudyOutcome> = OnceLock::new();
    // Retained: several of these tests are sample-level (Figure 6 origins,
    // probing payloads, the case studies).
    OUTCOME.get_or_init(|| {
        Study::run_work_stealing(
            StudyConfig::tiny(1234).with_retained_arrivals(),
            StealConfig::with_workers(1),
        )
    })
}

#[test]
fn heavy_resolvers_dominate_dns_landscape() {
    let outcome = outcome();
    let landscape = outcome.landscape();
    let yandex = landscape.destination_ratio("Yandex", DecoyProtocol::Dns);
    let google = landscape.destination_ratio("Google", DecoyProtocol::Dns);
    let control = landscape.destination_ratio("self-built", DecoyProtocol::Dns);
    let root = landscape.destination_ratio("a.root", DecoyProtocol::Dns);
    assert!(yandex > 0.8, "Yandex nearly always shadows ({yandex})");
    assert!(yandex > google, "Resolver_h above benign resolvers");
    assert_eq!(control, 0.0, "the control resolver stays clean");
    assert_eq!(root, 0.0, "roots stay clean");
}

#[test]
fn dns_decoys_more_susceptible_than_http_tls() {
    let outcome = outcome();
    let landscape = outcome.landscape();
    let dns = landscape.protocol_ratio(DecoyProtocol::Dns);
    let http = landscape.protocol_ratio(DecoyProtocol::Http);
    let tls = landscape.protocol_ratio(DecoyProtocol::Tls);
    assert!(dns > http, "DNS ({dns}) above HTTP ({http})");
    assert!(dns > tls, "DNS ({dns}) above TLS ({tls})");
}

#[test]
fn dns_observers_sit_at_the_destination() {
    let outcome = outcome();
    let table = outcome.hop_table();
    if table.localized_paths(DecoyProtocol::Dns) == 0 {
        panic!("phase II localized no DNS paths");
    }
    assert!(
        table.at_destination_percent(DecoyProtocol::Dns) > 80.0,
        "DNS shadowing is resolver-side (paper: 99.7%)"
    );
}

#[test]
fn retention_reaches_past_ten_days() {
    let outcome = outcome();
    let cdf = outcome.fig4_cdf();
    assert!(!cdf.is_empty());
    let at_10d = cdf.fraction_at(SimDuration::from_days(10));
    assert!(
        at_10d < 1.0,
        "some unsolicited requests arrive ≥10 days later (paper: 40% for Yandex)"
    );
    // No cache-refresh spike at the wildcard TTL mark.
    let spike = cdf.mass_near(SimDuration::from_hours(1), SimDuration::from_mins(5));
    assert!(spike < 0.2, "no 1h spike expected, got {spike}");
}

#[test]
fn benign_resolvers_retry_within_a_minute() {
    let outcome = outcome();
    let others = outcome.fig4_other_resolvers_cdf();
    if others.is_empty() {
        return; // tiny worlds may have no benign retries with some seeds
    }
    assert!(
        others.fraction_at(SimDuration::from_mins(1)) > 0.8,
        "non-Resolver_h unsolicited requests are prompt retries (paper: 95%)"
    );
}

#[test]
fn data_is_reused_multiple_times() {
    let outcome = outcome();
    let reuse = outcome.reuse();
    assert!(reuse.late_active_decoys() > 0);
    assert!(
        reuse.fraction_exceeding(3) > 0.2,
        "a sizable share of late-active decoys produce >3 requests (paper: 51%)"
    );
    assert!(reuse.max_reuse() > 3);
}

#[test]
fn google_is_a_dominant_dns_requery_origin() {
    let outcome = outcome();
    let origins = outcome.fig6_origins();
    assert!(
        origins.as_share(15169) > 0.2,
        "exhibitors re-query via Google Public DNS (paper: dominant origin)"
    );
}

#[test]
fn probing_is_enumeration_not_exploitation() {
    let outcome = outcome();
    let probing = outcome.probing(DecoyProtocol::Dns);
    assert_eq!(probing.exploits, 0, "no exploit payloads (as in the paper)");
    if probing.http_requests > 0 {
        assert!(
            probing.enumeration_fraction() > 0.7,
            "probes enumerate paths (paper: ~95%)"
        );
    }
    // Blocklist rates: HTTP origins dirtier than DNS origins.
    let dns_rate = probing.blocklist_rate("DNS");
    let http_rate = probing.blocklist_rate("HTTP");
    if probing.http_requests > 0 {
        assert!(
            http_rate > dns_rate,
            "HTTP probe origins hit the blocklist more ({http_rate} vs {dns_rate})"
        );
    }
}

#[test]
fn yandex_case_study_shape() {
    let outcome = outcome();
    let case = outcome.resolver_case("Yandex").expect("Yandex deployed");
    assert!(case.decoys > 0);
    assert!(
        case.shadowed_fraction() > 0.8,
        "paper: >99% of Yandex decoys shadowed"
    );
    assert!(
        case.http_probed_fraction() > 0.2,
        "paper: 51% trigger HTTP(S) probes"
    );
}

#[test]
fn summary_renders() {
    let outcome = outcome();
    let summary = outcome.summary();
    assert!(summary.contains("decoys:"));
    assert!(summary.contains("path ratios:"));
}
