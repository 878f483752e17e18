//! # traffic-shadowing
//!
//! A full reproduction of *“Yesterday Once More: Global Measurement of
//! Internet Traffic Shadowing Behaviors”* (IMC 2024) over a deterministic
//! packet-level Internet simulator.
//!
//! The workspace layers (see `DESIGN.md`):
//!
//! * [`shadow_packet`] — wire formats (IPv4/UDP/TCP/ICMP/DNS/HTTP/TLS);
//! * [`shadow_netsim`] — the discrete-event network simulator;
//! * [`shadow_geo`] — AS registry, prefix allocation, geolocation;
//! * [`shadow_dns`] — resolver behaviour models + the Table-4 catalog;
//! * [`shadow_observer`] — exhibitor models (DPI taps, probe origins…);
//! * [`shadow_vantage`] — the VPN measurement platform;
//! * [`shadow_honeypot`] — capture endpoints;
//! * [`shadow_core`] — the paper's methodology (decoys, phases, noise
//!   mitigation) and the world builder;
//! * [`shadow_intel`] — blocklist / exploit-db / port-scan substrates;
//! * [`shadow_telemetry`] — run-wide metrics + the structured event journal;
//! * [`shadow_analysis`] — the tables and figures.
//!
//! The [`study`] module wires them into one call:
//!
//! ```no_run
//! use traffic_shadowing::shadow_core::executor::StealConfig;
//! use traffic_shadowing::study::{Study, StudyConfig};
//!
//! // One chunk on one worker; `StealConfig::auto()` scales to the host.
//! let outcome = Study::run_work_stealing(StudyConfig::tiny(42), StealConfig::with_workers(1));
//! println!("{}", outcome.summary());
//! ```

pub use shadow_analysis;
pub use shadow_chaos;
pub use shadow_core;
pub use shadow_dns;
pub use shadow_geo;
pub use shadow_honeypot;
pub use shadow_intel;
pub use shadow_netsim;
pub use shadow_observer;
pub use shadow_packet;
pub use shadow_telemetry;
pub use shadow_topo;
pub use shadow_vantage;

pub mod encryption;
pub mod robustness;
pub mod study;
pub mod topology_report;

pub use study::{Study, StudyConfig, StudyOutcome};
