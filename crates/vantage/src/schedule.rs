//! The decoy send scheduler.
//!
//! The paper runs "switching between different VPs ... in a round-robin
//! fashion without stop" under an ethical rate limit of "no more than 2
//! decoy packets per second to a given target". The scheduler turns a
//! (VP × destination × protocol) work list into deterministic send times
//! honoring both the per-target cap and a per-VP pacing gap.
//!
//! Targets and VPs are dense slot indices: a plan numbers its distinct
//! target addresses (and VPs) once with [`dense_slots`], so a reservation
//! reads and writes two vector entries and hashes nothing.

use shadow_netsim::hash::FastMap;
use shadow_netsim::time::{SimDuration, SimTime};
use std::hash::Hash;

/// Deterministic rate-limited scheduler over `0..targets` target slots and
/// `0..vps` VP slots.
#[derive(Debug)]
pub struct RateLimitedScheduler {
    /// Minimum spacing between sends to one target (2 pps ⇒ 500 ms).
    target_gap: SimDuration,
    /// Minimum spacing between sends from one VP.
    vp_gap: SimDuration,
    next_target_slot: Vec<SimTime>,
    next_vp_slot: Vec<SimTime>,
}

impl RateLimitedScheduler {
    /// The paper's limit: ≤2 packets per second per target.
    pub fn paper_defaults(targets: usize, vps: usize) -> Self {
        Self::new(
            SimDuration::from_millis(500),
            SimDuration::from_millis(100),
            targets,
            vps,
        )
    }

    pub fn new(target_gap: SimDuration, vp_gap: SimDuration, targets: usize, vps: usize) -> Self {
        Self {
            target_gap,
            vp_gap,
            next_target_slot: vec![SimTime::ZERO; targets],
            next_vp_slot: vec![SimTime::ZERO; vps],
        }
    }

    /// Reserve the earliest time at or after `not_before` satisfying both
    /// rate constraints for VP slot `vp` sending to target slot `target`.
    ///
    /// # Panics
    ///
    /// If either slot is out of the range the scheduler was built for.
    pub fn reserve(&mut self, not_before: SimTime, vp: usize, target: usize) -> SimTime {
        let t_slot = &mut self.next_target_slot[target];
        let v_slot = &mut self.next_vp_slot[vp];
        let at = not_before.max(*t_slot).max(*v_slot);
        *t_slot = at + self.target_gap;
        *v_slot = at + self.vp_gap;
        at
    }
}

/// Number `keys` densely in first-seen order: returns each key's slot, in
/// input order, and the number of distinct keys. Equal keys (a site's HTTP
/// and TLS decoys share one address) share a slot.
pub fn dense_slots<K: Hash + Eq>(keys: impl IntoIterator<Item = K>) -> (Vec<usize>, usize) {
    let mut index: FastMap<K, usize> = FastMap::default();
    let slots = keys
        .into_iter()
        .map(|key| {
            let next = index.len();
            *index.entry(key).or_insert(next)
        })
        .collect();
    (slots, index.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::VpId;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// The keyed scheduler the dense one replaced, kept as its oracle:
    /// the same rule over maps keyed by VP id and target address.
    struct KeyedScheduler {
        target_gap: SimDuration,
        vp_gap: SimDuration,
        next_target_slot: HashMap<Ipv4Addr, SimTime>,
        next_vp_slot: HashMap<VpId, SimTime>,
    }

    impl KeyedScheduler {
        fn paper_defaults() -> Self {
            Self {
                target_gap: SimDuration::from_millis(500),
                vp_gap: SimDuration::from_millis(100),
                next_target_slot: HashMap::new(),
                next_vp_slot: HashMap::new(),
            }
        }

        fn reserve(&mut self, not_before: SimTime, vp: VpId, target: Ipv4Addr) -> SimTime {
            let t_slot = self
                .next_target_slot
                .get(&target)
                .copied()
                .unwrap_or(SimTime::ZERO);
            let v_slot = self.next_vp_slot.get(&vp).copied().unwrap_or(SimTime::ZERO);
            let at = not_before.max(t_slot).max(v_slot);
            self.next_target_slot.insert(target, at + self.target_gap);
            self.next_vp_slot.insert(vp, at + self.vp_gap);
            at
        }
    }

    #[test]
    fn per_target_rate_capped_at_2pps() {
        let mut sched = RateLimitedScheduler::paper_defaults(1, 10);
        let times: Vec<SimTime> = (0..10)
            .map(|vp| sched.reserve(SimTime::ZERO, vp, 0))
            .collect();
        for pair in times.windows(2) {
            assert!(
                pair[1].since(pair[0]) >= SimDuration::from_millis(500),
                "gap {} < 500ms",
                pair[1].since(pair[0])
            );
        }
        // Exactly 2 per second.
        assert_eq!(times[2].since(times[0]), SimDuration::from_secs(1));
    }

    #[test]
    fn per_vp_gap_enforced() {
        let mut sched = RateLimitedScheduler::paper_defaults(2, 1);
        let t1 = sched.reserve(SimTime::ZERO, 0, 0);
        let t2 = sched.reserve(SimTime::ZERO, 0, 1);
        assert!(t2.since(t1) >= SimDuration::from_millis(100));
    }

    #[test]
    fn distinct_targets_and_vps_can_share_a_slot() {
        let mut sched = RateLimitedScheduler::paper_defaults(2, 2);
        let t1 = sched.reserve(SimTime::ZERO, 0, 0);
        let t2 = sched.reserve(SimTime::ZERO, 1, 1);
        assert_eq!(t1, t2, "no shared constraint, no delay");
    }

    #[test]
    fn respects_not_before() {
        let mut sched = RateLimitedScheduler::paper_defaults(1, 1);
        let at = sched.reserve(SimTime(5_000), 0, 0);
        assert!(at >= SimTime(5_000));
    }

    #[test]
    #[should_panic]
    fn slots_beyond_the_built_range_panic() {
        RateLimitedScheduler::paper_defaults(1, 1).reserve(SimTime::ZERO, 0, 1);
    }

    #[test]
    fn dense_slots_number_keys_in_first_seen_order() {
        let (slots, count) = dense_slots(["b", "a", "b", "c", "a"]);
        assert_eq!(slots, vec![0, 1, 0, 2, 1]);
        assert_eq!(count, 3);
        assert_eq!(dense_slots(Vec::<u32>::new()), (vec![], 0));
    }

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(8, 8, 8, last)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// A Phase I-shaped plan — round → VP → DNS targets, then each
        /// site's HTTP and TLS decoy — scheduled densely and by key.
        #[test]
        fn dense_schedule_matches_the_keyed_scheduler(
            roster_ids in proptest::collection::vec(any::<u32>(), 1..12),
            dns in proptest::collection::vec(0u8..6, 0..6),
            web in proptest::collection::vec(0u8..6, 0..6),
            protocols in 0u8..8,
            rounds in 1usize..4,
            start_ms in 0u64..10_000,
            round_gap_ms in 0u64..5_000,
        ) {
            // A roster's VP ids are distinct.
            let mut roster: Vec<VpId> = Vec::new();
            for id in roster_ids {
                if !roster.contains(&VpId(id)) {
                    roster.push(VpId(id));
                }
            }
            let (send_dns, send_http, send_tls) =
                (protocols & 1 != 0, protocols & 2 != 0, protocols & 4 != 0);
            let mut row: Vec<Ipv4Addr> = Vec::new();
            if send_dns {
                row.extend(dns.iter().map(|&d| addr(d)));
            }
            for &site in &web {
                for on in [send_http, send_tls] {
                    if on {
                        row.push(addr(site));
                    }
                }
            }
            let (row_slots, targets) = dense_slots(row.iter().copied());
            let mut dense = RateLimitedScheduler::paper_defaults(targets, roster.len());
            let mut keyed = KeyedScheduler::paper_defaults();
            for round in 0..rounds {
                let round_start = SimTime(start_ms + round_gap_ms * round as u64);
                for (vp_slot, &vp) in roster.iter().enumerate() {
                    for (&target, &dst) in row_slots.iter().zip(&row) {
                        prop_assert_eq!(
                            dense.reserve(round_start, vp_slot, target),
                            keyed.reserve(round_start, vp, dst)
                        );
                    }
                }
            }
        }
    }
}
