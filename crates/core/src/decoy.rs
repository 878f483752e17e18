//! Decoy specifications and the campaign-wide registry.

use crate::ident::DecoyIdent;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::SimTime;
use shadow_packet::dns::DnsName;
use shadow_vantage::platform::VpId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The protocol a decoy is sent over — the `Decoy` half of the paper's
/// `Decoy-Request` labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DecoyProtocol {
    Dns,
    Http,
    Tls,
}

impl DecoyProtocol {
    pub fn as_str(self) -> &'static str {
        match self {
            DecoyProtocol::Dns => "DNS",
            DecoyProtocol::Http => "HTTP",
            DecoyProtocol::Tls => "TLS",
        }
    }
}

/// One generated decoy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoyRecord {
    pub domain: DnsName,
    pub ident: DecoyIdent,
    pub protocol: DecoyProtocol,
    pub vp: VpId,
    /// Scheduled emission time.
    pub planned_at: SimTime,
    /// Phase II sweeps group decoys of one traceroute run.
    pub sweep: Option<u32>,
}

impl DecoyRecord {
    pub fn dst(&self) -> Ipv4Addr {
        self.ident.dst
    }

    pub fn ttl(&self) -> u8 {
        self.ident.ttl
    }
}

/// The registry of every decoy the campaign generated, indexed by domain.
/// Honeypot arrivals are resolved against this to recover the triggering
/// decoy.
///
/// Records live in a registration-order vector with a domain → index map
/// on the side: iteration (reports, [`DecoyRegistry::absorb`], Phase II's
/// `filter_vps`) walks the vector with no hashing, and the map entries
/// stay small. Phase I registries are built per chunk, holding only the
/// decoys that chunk's VPs send.
#[derive(Debug, Clone, Default)]
pub struct DecoyRegistry {
    zone: Option<DnsName>,
    by_domain: HashMap<DnsName, u32>,
    records: Vec<DecoyRecord>,
}

impl DecoyRegistry {
    pub fn new(zone: DnsName) -> Self {
        Self {
            zone: Some(zone),
            by_domain: HashMap::new(),
            records: Vec::new(),
        }
    }

    /// Pre-size for `additional` more decoys. The campaign planner knows
    /// its exact send count up front; growing a multi-million-entry map
    /// by doubling re-inserts every entry roughly once, which is real
    /// time at paper scale.
    pub fn reserve(&mut self, additional: usize) {
        self.by_domain.reserve(additional);
        self.records.reserve(additional);
    }

    pub fn zone(&self) -> &DnsName {
        self.zone.as_ref().expect("registry built with a zone")
    }

    /// Build and register a decoy for `(vp, dst, protocol, ttl)` planned at
    /// `planned_at`. Returns the record (domain included).
    ///
    /// # Panics
    ///
    /// If the decoy's domain is already registered. Domains encode the
    /// VP, destination, TTL and send time (100 ms resolution), so a repeat
    /// means the scheduler's rate limits broke — an internal bug.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        vp: VpId,
        vp_addr: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: DecoyProtocol,
        ttl: u8,
        planned_at: SimTime,
        sweep: Option<u32>,
    ) -> DecoyRecord {
        let ident = DecoyIdent::at(planned_at, vp_addr, dst, ttl);
        let mut label_buf = [0u8; DecoyIdent::LABEL_LEN];
        let label = ident.encode_to(&mut label_buf);
        let domain = self
            .zone()
            .prepend(label)
            .expect("identifier labels are DNS-safe");
        let record = DecoyRecord {
            domain: domain.clone(),
            ident,
            protocol,
            vp,
            planned_at,
            sweep,
        };
        // A repeat would repoint the domain at the newer record and
        // misattribute the older decoy's arrivals.
        let previous = self.by_domain.insert(domain, self.records.len() as u32);
        assert!(
            previous.is_none(),
            "decoy domains must be unique: {} reused",
            record.domain
        );
        self.records.push(record.clone());
        record
    }

    pub fn lookup(&self, domain: &DnsName) -> Option<&DecoyRecord> {
        self.by_domain
            .get(domain)
            .map(|&i| &self.records[i as usize])
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &DecoyRecord> {
        self.records.iter()
    }

    /// Count decoys per protocol (the paper reports 46.6M DNS / 1.69G HTTP
    /// / 1.69G TLS; we report our scaled-down equivalents).
    pub fn counts(&self) -> HashMap<DecoyProtocol, usize> {
        let mut counts = HashMap::new();
        for record in self.iter() {
            *counts.entry(record.protocol).or_insert(0) += 1;
        }
        counts
    }

    /// A copy keeping only decoys whose sending VP satisfies `owns`,
    /// preserving registration order. Phase II chunks slice the global
    /// sweep registry this way so chunk registries are disjoint and their
    /// union (via [`DecoyRegistry::absorb`]) recovers the global one.
    pub fn filter_vps(&self, owns: impl Fn(VpId) -> bool) -> DecoyRegistry {
        let mut out = DecoyRegistry {
            zone: self.zone.clone(),
            by_domain: HashMap::new(),
            records: Vec::new(),
        };
        for record in self.iter() {
            if owns(record.vp) {
                out.by_domain
                    .insert(record.domain.clone(), out.records.len() as u32);
                out.records.push(record.clone());
            }
        }
        out
    }

    /// Merge another registry (e.g. Phase II sweeps) into this one. A
    /// domain already present is overwritten in place; new domains append
    /// in the other registry's order.
    pub fn absorb(&mut self, other: DecoyRegistry) {
        self.reserve(other.records.len());
        for record in other.records {
            match self.by_domain.get(&record.domain) {
                Some(&i) => self.records[i as usize] = record,
                None => {
                    self.by_domain
                        .insert(record.domain.clone(), self.records.len() as u32);
                    self.records.push(record);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> DnsName {
        DnsName::parse("www.experiment.example").unwrap()
    }

    fn vp_addr() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 9)
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = DecoyRegistry::new(zone());
        let rec = reg.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(8, 8, 8, 8),
            DecoyProtocol::Dns,
            64,
            SimTime(5_000),
            None,
        );
        assert!(rec.domain.is_subdomain_of(&zone()));
        let found = reg.lookup(&rec.domain).unwrap();
        assert_eq!(found, &rec);
        assert_eq!(found.dst(), Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(found.ttl(), 64);
    }

    #[test]
    fn domains_unique_across_protocols_and_times() {
        let mut reg = DecoyRegistry::new(zone());
        // Same vp/dst/ttl but different seconds → distinct domains.
        let a = reg.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(1, 1, 1, 1),
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
            None,
        );
        let b = reg.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(1, 1, 1, 1),
            DecoyProtocol::Http,
            64,
            SimTime(2_000),
            None,
        );
        assert_ne!(a.domain, b.domain);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "decoy domains must be unique")]
    fn duplicate_domain_panics() {
        let mut reg = DecoyRegistry::new(zone());
        for protocol in [DecoyProtocol::Http, DecoyProtocol::Tls] {
            // Same VP, destination, TTL and 100 ms slot → the same domain.
            reg.register(
                VpId(1),
                vp_addr(),
                Ipv4Addr::new(1, 1, 1, 1),
                protocol,
                64,
                SimTime(1_000),
                None,
            );
        }
    }

    #[test]
    fn counts_by_protocol() {
        let mut reg = DecoyRegistry::new(zone());
        for (i, proto) in [DecoyProtocol::Dns, DecoyProtocol::Dns, DecoyProtocol::Tls]
            .into_iter()
            .enumerate()
        {
            reg.register(
                VpId(1),
                vp_addr(),
                Ipv4Addr::new(1, 1, 1, 1),
                proto,
                64,
                SimTime(1_000 * (i as u64 + 1)),
                None,
            );
        }
        let counts = reg.counts();
        assert_eq!(counts[&DecoyProtocol::Dns], 2);
        assert_eq!(counts[&DecoyProtocol::Tls], 1);
        assert!(!counts.contains_key(&DecoyProtocol::Http));
    }

    #[test]
    fn absorb_merges_without_duplicates() {
        let mut a = DecoyRegistry::new(zone());
        let rec = a.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(1, 1, 1, 1),
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
            None,
        );
        let mut b = DecoyRegistry::new(zone());
        b.register(
            VpId(2),
            vp_addr(),
            Ipv4Addr::new(2, 2, 2, 2),
            DecoyProtocol::Tls,
            7,
            SimTime(3_000),
            Some(1),
        );
        let b_len = b.len();
        a.absorb(b);
        assert_eq!(a.len(), 1 + b_len);
        assert!(a.lookup(&rec.domain).is_some());
    }

    #[test]
    fn identifier_recovers_send_metadata() {
        let mut reg = DecoyRegistry::new(zone());
        let rec = reg.register(
            VpId(3),
            vp_addr(),
            Ipv4Addr::new(114, 114, 114, 114),
            DecoyProtocol::Dns,
            17,
            SimTime(90_000),
            Some(4),
        );
        let decoded = crate::ident::DecoyIdent::from_domain(&rec.domain).unwrap();
        assert_eq!(decoded.sent_time(), SimTime(90_000));
        assert_eq!(decoded.vp, vp_addr());
        assert_eq!(decoded.dst, Ipv4Addr::new(114, 114, 114, 114));
        assert_eq!(decoded.ttl, 17);
    }
}
