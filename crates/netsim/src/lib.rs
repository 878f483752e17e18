//! # shadow-netsim
//!
//! A deterministic, discrete-event, packet-level Internet simulator — the
//! substitute for the real Internet the paper measures (see DESIGN.md §2).
//!
//! The pieces:
//!
//! * [`time`] — simulated clock ([`SimTime`], millisecond resolution over the
//!   campaign's simulated two months);
//! * [`topology`] — countries → ASes → routers/hosts, AS-level shortest-path
//!   routing expanded into router-level hop sequences, per-hop latencies,
//!   anycast (one address served by several instances, nearest wins);
//! * [`engine`] — the event loop: per-hop forwarding with TTL decrement,
//!   ICMP Time Exceeded generation (the Phase-II traceroute signal),
//!   pluggable endpoint [`Host`]s and on-path [`WireTap`]s (where DPI-style
//!   traffic observers attach);
//! * [`tcp`] — a segment-level TCP endpoint state machine (handshakes,
//!   data, teardown) shared by every host that speaks HTTP or TLS;
//! * [`fault`] — deterministic fault injection: value-derived per-packet
//!   loss/duplication/jitter, node and link outage windows, ICMP rate
//!   limiting, consulted by the engine only when a profile is installed;
//! * [`hash`] — [`FastHash`], the one deterministic hasher for maps keyed
//!   by simulator-generated values.
//!
//! Everything is deterministic: same topology + same injected events ⇒
//! byte-identical packet streams.

pub mod engine;
pub mod fault;
pub mod hash;
pub mod slab;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod wheel;

pub use engine::{Ctx, Engine, EngineStats, Host, TapVerdict, WireTap};
pub use fault::{LinkConditioner, LinkVerdict, OutageWindow};
pub use hash::{FastHash, FastMap, FastSet};
pub use slab::{Slab, SlabKey};
pub use tcp::{ConnKey, TcpEvent, TcpStack};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkClass, NodeId, NodeKind, Topology, TopologyBuilder, TopologyError};
pub use trace::{PacketTrace, TraceEntry};
pub use transport::Transport;
pub use wheel::TimeWheel;
