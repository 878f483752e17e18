//! `shadow-serve`: the always-on measurement service.
//!
//! The paper's phenomenon is longitudinal — shadowed traffic arrives hours
//! to weeks after the decoy that provoked it — yet `full_campaign` was a
//! one-shot batch: compute, print, exit. This crate turns the campaign
//! into a long-running daemon, in three layers:
//!
//! * **[`driver`]** — a wave-based campaign driver. The daemon's run is a
//!   sequence of bounded, independent *waves*; wave *w* is a full
//!   `Study::run_work_stealing` over a per-wave seed drawn from dedicated
//!   SplitMix64 streams, and its streamed aggregates, telemetry counters,
//!   and journal fold commutatively into the cumulative state. Because
//!   each wave is a pure function of `(base config, wave seed)` and every
//!   fold is commutative, the cumulative state after wave *N* is
//!   byte-identical whether the process ran straight through or was
//!   interrupted and resumed — at any shard count.
//!
//! * **[`checkpoint`]** — the durable form of that cumulative state: a
//!   versioned, world-hashed JSON-lines file. Its head line holds sink
//!   aggregates (in their portable entry-vector form), RNG stream
//!   positions, the simulated-time cursor and merged metrics; the offset
//!   journal follows, one record per line. Streamed to disk atomically
//!   (tmp + rename) after every wave.
//!
//! * **[`http`]** / **[`daemon`]** — a hand-rolled HTTP/1.1 server on
//!   `std::net::TcpListener` with a fixed worker pool (no tokio/hyper; the
//!   vendored stand-ins are the only dependencies). JSON reads come from
//!   an [`state::Snapshot`] published once per wave behind a
//!   `parking_lot::RwLock<Arc<_>>` — responses are pre-rendered strings,
//!   so request handling is O(response bytes) and never contends with the
//!   campaign hot path. `/api/journal/tail` streams the journal as
//!   Server-Sent Events through the bounded
//!   [`shadow_telemetry::JournalTailHub`] rings.

pub mod checkpoint;
pub mod client;
pub mod daemon;
pub mod driver;
pub mod http;
pub mod state;

pub use checkpoint::{CampaignCheckpoint, CheckpointHeader, CHECKPOINT_VERSION};
pub use daemon::{serve, ServeHandle};
pub use driver::{CampaignDriver, ServeConfig, WaveReport};
pub use state::{ServeState, Snapshot};

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong outside a campaign itself: checkpoint
/// I/O and validation, and daemon start-up.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure reading or writing `path`.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// `--resume` named a checkpoint file that does not exist.
    MissingCheckpoint(PathBuf),
    /// The checkpoint file is not valid JSON / not a checkpoint.
    Parse(String),
    /// The checkpoint was written by an incompatible format version.
    Version { found: u32, supported: u32 },
    /// The checkpoint was taken from a different campaign configuration
    /// (world, phase configs, fault profile, or wave count differ).
    WorldMismatch { expected: u64, found: u64 },
    /// The checkpoint was taken at a different shard count.
    ShardMismatch { expected: usize, found: usize },
    /// Internally inconsistent checkpoint contents.
    Corrupt(String),
    /// The HTTP listener could not be started.
    Bind {
        addr: String,
        source: std::io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, source } => {
                write!(f, "checkpoint I/O failed for {}: {source}", path.display())
            }
            ServeError::MissingCheckpoint(path) => {
                write!(f, "checkpoint file not found: {}", path.display())
            }
            ServeError::Parse(msg) => write!(f, "checkpoint does not parse: {msg}"),
            ServeError::Version { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads version {supported})"
            ),
            ServeError::WorldMismatch { expected, found } => write!(
                f,
                "checkpoint world-hash {found:#018x} does not match this configuration's {expected:#018x} \
                 (different world/phase/fault configuration or wave count)"
            ),
            ServeError::ShardMismatch { expected, found } => write!(
                f,
                "checkpoint was taken with {found} shard(s) but this run uses {expected}"
            ),
            ServeError::Corrupt(msg) => write!(f, "checkpoint is corrupt: {msg}"),
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind HTTP listener on {addr}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } | ServeError::Bind { source, .. } => Some(source),
            _ => None,
        }
    }
}
