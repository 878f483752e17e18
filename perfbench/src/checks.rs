//! Output checks and failure accounting. Every operation (study, wave,
//! resume) runs through [`Tally::attempt`]: a panic, a typed error or a
//! mismatch makes it count as failed, never as passed.

use shadow_serve::CampaignDriver;
use std::panic::{catch_unwind, AssertUnwindSafe};
use traffic_shadowing::study::StudyOutcome;

/// 64-bit FNV-1a: a stable digest of exported bundles across processes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Run one operation; `None` when it panicked or returned an error.
    pub fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let result = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(result) => result,
            Err(panic) => Err(panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or("panic".to_string(), |m| format!("panic: {m}"))),
        };
        match result {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {reason}"));
                }
                None
            }
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The exported bundle must match the one-chunk reference of the same
/// world seed byte for byte.
pub fn check_digest(found: u64, reference: Option<u64>) -> Result<(), String> {
    match reference {
        None => Err("no one-chunk reference digest for this world".to_string()),
        Some(expected) if expected == found => Ok(()),
        Some(expected) => Err(format!(
            "bundle digest {found:016x} differs from the one-chunk reference {expected:016x}"
        )),
    }
}

/// Sanity floors every study must clear.
pub fn check_floors(outcome: &StudyOutcome) -> Result<(), String> {
    if outcome.phase1.aggregates.arrivals_seen == 0 {
        return Err("no arrivals captured".to_string());
    }
    if outcome.traced_paths.len() != outcome.traceroutes.len() {
        return Err(format!(
            "{} traced paths but {} traceroute results",
            outcome.traced_paths.len(),
            outcome.traceroutes.len()
        ));
    }
    Ok(())
}

/// A driver resumed from a checkpoint must hold exactly the live driver's
/// cumulative state.
pub fn check_resumed(live: &CampaignDriver, resumed: &CampaignDriver) -> Result<(), String> {
    if resumed.waves_done() != live.waves_done() {
        return Err(format!(
            "resumed at wave {} but the live driver finished {}",
            resumed.waves_done(),
            live.waves_done()
        ));
    }
    if resumed.sim_cursor_ms() != live.sim_cursor_ms() {
        return Err("resumed sim-time cursor differs".to_string());
    }
    if resumed.aggregates() != live.aggregates() {
        return Err("resumed aggregates differ".to_string());
    }
    if resumed.metrics() != live.metrics() {
        return Err("resumed metrics differ".to_string());
    }
    if resumed.journal() != live.journal() {
        return Err(format!(
            "resumed journal differs ({} vs {} records)",
            resumed.journal().len(),
            live.journal().len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_serve::{CampaignCheckpoint, ServeConfig};

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn panics_errors_and_mismatches_count_as_failed() {
        let mut tally = Tally::default();
        assert_eq!(tally.attempt("ok", || Ok::<_, String>(1)), Some(1));
        assert_eq!(tally.attempt("err", || Err::<u8, _>("typed".into())), None);
        assert_eq!(
            tally.attempt("panic", || -> Result<u8, String> { panic!("boom") }),
            None
        );
        let good = digest(b"{\"bundle\":1}");
        let tampered = digest(b"{\"bundle\":2}");
        assert!(tally
            .attempt("digest", || check_digest(tampered, Some(good)))
            .is_none());
        assert!(tally
            .attempt("digest", || check_digest(good, Some(good)))
            .is_some());
        assert!(tally
            .attempt("digest", || check_digest(good, None))
            .is_none());
        assert_eq!((tally.attempted, tally.failed), (6, 4));
        assert!(!tally.all_passed());
        assert!(tally.errors[1].contains("boom"));
    }

    #[test]
    fn tampered_checkpoint_round_trip_fails() {
        let config = ServeConfig {
            waves: 1,
            ..ServeConfig::tiny(7)
        };
        let mut live = CampaignDriver::new(config.clone());
        live.run_to_completion();
        let checkpoint = live.checkpoint();

        let mut tally = Tally::default();
        let faithful = CampaignDriver::resume(config.clone(), checkpoint.clone()).unwrap();
        assert!(tally
            .attempt("resume", || check_resumed(&live, &faithful))
            .is_some());

        let mut dropped: CampaignCheckpoint = checkpoint.clone();
        dropped.journal.pop();
        let resumed = CampaignDriver::resume(config.clone(), dropped).unwrap();
        assert!(tally
            .attempt("resume", || check_resumed(&live, &resumed))
            .is_none());

        let mut bumped = checkpoint;
        bumped.aggregates.arrivals_seen += 1;
        let resumed = CampaignDriver::resume(config, bumped).unwrap();
        assert!(tally
            .attempt("resume", || check_resumed(&live, &resumed))
            .is_none());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
