//! The §6 mitigation ablation: what happens to the shadowing landscape when
//! decoys use encrypted protocols?
//!
//! The paper's discussion predicts:
//!  * encryption blinds *on-path* observers ("prevents data from being
//!    observed on the wire");
//!  * it does **not** stop the destination ("especially for DNS", where the
//!    resolver decrypts and sees everything);
//!  * ECH is needed because plain TLS still leaks the SNI.
//!
//! This example runs two identical campaigns — clear-text vs. encrypted
//! (DoQ-style DNS + ECH TLS) — on identically-seeded worlds and compares.
//!
//! Run with `cargo run --release --example encryption_mitigation [seed]`.

use shadow_analysis::report::pct;
use traffic_shadowing::shadow_analysis;
use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::executor::{StealConfig, TelemetryOptions};
use traffic_shadowing::shadow_core::phase2::Phase2Config;
use traffic_shadowing::shadow_core::world::WorldConfig;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

fn run(seed: u64, encrypted: bool) -> StudyOutcome {
    Study::run_work_stealing(
        StudyConfig {
            world: WorldConfig::standard(seed),
            phase1: Phase1Config {
                encryption: if encrypted {
                    EncryptionDeployment::full()
                } else {
                    EncryptionDeployment::plaintext()
                },
                ..Phase1Config::default()
            },
            phase2: Phase2Config::default(),
            trace_cap_per_protocol: 0, // landscape comparison only
            run_phase2: false,
            telemetry: TelemetryOptions::disabled(),
            faults: None,
            retain_arrivals: true,
        },
        StealConfig::with_workers(1),
    )
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!("running clear-text campaign (seed {seed})...");
    let clear = run(seed, false);
    println!("running encrypted campaign (same world, DoQ + ECH)...\n");
    let encrypted = run(seed, true);

    let clear_ls = clear.landscape();
    let enc_ls = encrypted.landscape();

    println!("=== §6 ablation: clear-text vs encrypted decoys ===\n");
    println!("{:<28} {:>12} {:>12}", "", "clear-text", "encrypted");
    for (label, dest) in [
        ("Yandex (resolver-side)", "Yandex"),
        ("One DNS (resolver-side)", "One DNS"),
        ("DNS PAI (resolver-side)", "DNS PAI"),
        ("Google (benign)", "Google"),
    ] {
        println!(
            "{:<28} {:>12} {:>12}",
            label,
            pct(clear_ls.destination_ratio(dest, DecoyProtocol::Dns)),
            pct(enc_ls.destination_ratio(dest, DecoyProtocol::Dns)),
        );
    }
    println!(
        "{:<28} {:>12} {:>12}",
        "TLS paths (SNI / ECH)",
        pct(clear_ls.protocol_ratio(DecoyProtocol::Tls)),
        pct(enc_ls.protocol_ratio(DecoyProtocol::Tls)),
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "HTTP paths (unencrypted)",
        pct(clear_ls.protocol_ratio(DecoyProtocol::Http)),
        pct(enc_ls.protocol_ratio(DecoyProtocol::Http)),
    );

    // On-wire DNS observers: unsolicited requests on *benign*-resolver
    // paths arriving well past the retry window can only come from on-path
    // DPI (benign resolvers retry within a minute). Encryption must zero
    // these out.
    let wire_evidence = |outcome: &StudyOutcome| {
        outcome
            .correlated
            .iter()
            .filter(|r| {
                r.label.is_unsolicited()
                    && r.decoy.protocol == DecoyProtocol::Dns
                    && r.interval
                        > traffic_shadowing::shadow_netsim::time::SimDuration::from_mins(10)
                    && {
                        let name = outcome.dest_names.get(&r.decoy.dst());
                        matches!(
                            name.map(String::as_str),
                            Some("Google")
                                | Some("Cloudflare")
                                | Some("Quad9")
                                | Some("OpenDNS")
                                | Some("Level3")
                                | Some("Hurricane")
                                | Some("SafeDNS")
                        )
                    }
            })
            .count()
    };
    println!(
        "\nwire-observer evidence on benign-resolver paths: {} → {}",
        wire_evidence(&clear),
        wire_evidence(&encrypted)
    );

    println!("\nconclusions (cf. paper §6):");
    println!("  * encrypted DNS blinds on-path observers, but resolver-side shadowing persists");
    println!("  * ECH removes the clear-text SNI, killing TLS shadowing entirely");
    println!("  * unencrypted HTTP remains exposed either way");
}
