//! Network topology: ASes, routers, hosts, routing, latency.
//!
//! Routing is computed at the AS level (BFS shortest path with deterministic
//! tie-breaking over a symmetric peering graph) and expanded into a
//! router-level hop sequence. The expansion is deterministic per
//! (AS, previous AS, next AS), so a given client–server pair always traverses
//! the identical hop sequence — the property Phase-II hop-by-hop tracerouting
//! depends on (the paper assumes stable paths during a TTL sweep).
//!
//! Anycast services (e.g. 114DNS's CN and US instances, Section 5.1 case
//! study II) register several host nodes under one address; routing delivers
//! to the instance closest in AS hops, as BGP anycast does.

use crate::hash::FastMap;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use shadow_geo::{Asn, Region};
use shadow_topo::IpLookupTable;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Index of a node (router or host) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Forwarding device. `responds_icmp` mirrors the paper's limitation
    /// that some hops never answer traceroute probes.
    Router { responds_icmp: bool },
    /// Endpoint that terminates traffic (VP, resolver, honeypot, ...).
    Host,
}

/// One node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    pub addr: Ipv4Addr,
    pub asn: Asn,
    pub kind: NodeKind,
}

impl Node {
    pub fn is_router(&self) -> bool {
        matches!(self.kind, NodeKind::Router { .. })
    }

    pub fn responds_icmp(&self) -> bool {
        matches!(
            self.kind,
            NodeKind::Router {
                responds_icmp: true
            }
        )
    }
}

/// Coarse link classification used by the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkClass {
    IntraAs,
    InterAsSameRegion,
    InterRegion,
}

/// Errors surfaced while assembling a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    UnknownAs(Asn),
    /// An AS hosts endpoints but has no router to carry their traffic.
    NoRouters(Asn),
    DuplicateLink(Asn, Asn),
    SelfLink(Asn),
    UnknownNode(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownAs(a) => write!(f, "unknown AS {a}"),
            TopologyError::NoRouters(a) => write!(f, "{a} has hosts but no routers"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}-{b}"),
            TopologyError::SelfLink(a) => write!(f, "self link on {a}"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone)]
struct AsEntry {
    asn: Asn,
    region: Region,
    routers: Vec<NodeId>,
    hosts: Vec<NodeId>,
}

/// Incremental topology assembly.
#[derive(Debug)]
pub struct TopologyBuilder {
    seed: u64,
    nodes: Vec<Node>,
    ases: FastMap<Asn, AsEntry>,
    links: BTreeSet<(Asn, Asn)>,
    addr_map: FastMap<Ipv4Addr, Vec<NodeId>>,
}

impl TopologyBuilder {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            nodes: Vec::new(),
            ases: FastMap::default(),
            links: BTreeSet::new(),
            addr_map: FastMap::default(),
        }
    }

    /// Register an AS. Idempotent for the same `asn`.
    pub fn add_as(&mut self, asn: Asn, region: Region) {
        self.ases.entry(asn).or_insert(AsEntry {
            asn,
            region,
            routers: Vec::new(),
            hosts: Vec::new(),
        });
    }

    /// Symmetric peering/transit link between two ASes.
    pub fn link(&mut self, a: Asn, b: Asn) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        if !self.ases.contains_key(&a) {
            return Err(TopologyError::UnknownAs(a));
        }
        if !self.ases.contains_key(&b) {
            return Err(TopologyError::UnknownAs(b));
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if !self.links.insert(key) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        Ok(())
    }

    /// True if the link already exists.
    pub fn has_link(&self, a: Asn, b: Asn) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.links.contains(&key)
    }

    fn push_node(
        &mut self,
        addr: Ipv4Addr,
        asn: Asn,
        kind: NodeKind,
    ) -> Result<NodeId, TopologyError> {
        if !self.ases.contains_key(&asn) {
            return Err(TopologyError::UnknownAs(asn));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            addr,
            asn,
            kind,
        });
        self.addr_map.entry(addr).or_default().push(id);
        Ok(id)
    }

    /// Add a forwarding router inside `asn`.
    pub fn add_router(
        &mut self,
        asn: Asn,
        addr: Ipv4Addr,
        responds_icmp: bool,
    ) -> Result<NodeId, TopologyError> {
        let id = self.push_node(addr, asn, NodeKind::Router { responds_icmp })?;
        self.ases
            .get_mut(&asn)
            .expect("checked by push_node")
            .routers
            .push(id);
        Ok(id)
    }

    /// Add an endpoint host inside `asn`. Registering several hosts under
    /// the same address forms an anycast group.
    pub fn add_host(&mut self, asn: Asn, addr: Ipv4Addr) -> Result<NodeId, TopologyError> {
        let id = self.push_node(addr, asn, NodeKind::Host)?;
        self.ases
            .get_mut(&asn)
            .expect("checked by push_node")
            .hosts
            .push(id);
        Ok(id)
    }

    /// Router nodes registered so far for an AS (in insertion order) —
    /// world builders need these before the topology is frozen, e.g. to
    /// attach wire taps. Borrows, matching [`Topology::routers_of`].
    pub fn routers_of(&self, asn: Asn) -> &[NodeId] {
        self.ases
            .get(&asn)
            .map(|e| e.routers.as_slice())
            .unwrap_or(&[])
    }

    /// Register an additional address for an existing node (e.g. a
    /// resolver instance's unicast egress address next to its anycast
    /// service address — upstream answers must come back to the same
    /// instance that asked).
    pub fn add_alias(&mut self, node: NodeId, addr: Ipv4Addr) -> Result<(), TopologyError> {
        if node.0 as usize >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(node));
        }
        self.addr_map.entry(addr).or_default().push(node);
        Ok(())
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<Topology, TopologyError> {
        for entry in self.ases.values() {
            if !entry.hosts.is_empty() && entry.routers.is_empty() {
                return Err(TopologyError::NoRouters(entry.asn));
            }
        }
        let mut adj: FastMap<Asn, Vec<Asn>> = FastMap::default();
        for &(a, b) in &self.links {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        for neighbors in adj.values_mut() {
            neighbors.sort(); // deterministic BFS order
        }
        // Freeze the address map into the LPM table as /32 entries (node
        // addresses are hosts, not prefixes — exact match semantics are
        // preserved). Sorted insertion keeps the trie's internal layout
        // independent of builder call order.
        let mut by_addr: Vec<(Ipv4Addr, Vec<NodeId>)> = self.addr_map.into_iter().collect();
        by_addr.sort_by_key(|(addr, _)| u32::from(*addr));
        let addr_map = by_addr
            .into_iter()
            .map(|(addr, ids)| (addr, 32, ids))
            .collect();
        let node_regions = self
            .nodes
            .iter()
            .map(|n| self.ases[&n.asn].region)
            .collect();
        Ok(Topology {
            seed: self.seed,
            nodes: self.nodes,
            node_regions,
            ases: self.ases,
            adj,
            addr_map,
            bfs_cache: Mutex::new(FastMap::default()),
        })
    }
}

/// BFS tree rooted at one AS: distance and parent per reachable AS.
#[derive(Debug)]
struct BfsTree {
    dist: FastMap<Asn, u32>,
    parent: FastMap<Asn, Asn>,
}

/// The frozen network graph plus routing machinery.
#[derive(Debug)]
pub struct Topology {
    seed: u64,
    nodes: Vec<Node>,
    /// Each node's AS region, indexed by [`NodeId`] (fixed at build time,
    /// so the per-hop latency model never looks an AS up).
    node_regions: Vec<Region>,
    ases: FastMap<Asn, AsEntry>,
    adj: FastMap<Asn, Vec<Asn>>,
    /// Address → anycast group, frozen into the LPM trie at build time
    /// (every entry a /32; the per-packet destination resolutions the
    /// engine's route cache misses on go through this table).
    addr_map: IpLookupTable<Vec<NodeId>>,
    bfs_cache: Mutex<FastMap<Asn, Arc<BfsTree>>>,
}

impl Clone for Topology {
    /// Clone the graph data; the BFS cache is pure memoization and restarts
    /// empty. (Full node-level routes are memoized per engine, not here —
    /// see the engine's route cache — so shards never contend on a lock.)
    fn clone(&self) -> Self {
        Self {
            seed: self.seed,
            nodes: self.nodes.clone(),
            node_regions: self.node_regions.clone(),
            ases: self.ases.clone(),
            adj: self.adj.clone(),
            addr_map: self.addr_map.clone(),
            bfs_cache: Mutex::new(FastMap::default()),
        }
    }
}

impl Topology {
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// All nodes registered under `addr` (several for anycast).
    pub fn nodes_at(&self, addr: Ipv4Addr) -> &[NodeId] {
        self.addr_map
            .exact_match(addr, 32)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Routers of one AS (used to attach wire taps).
    pub fn routers_of(&self, asn: Asn) -> &[NodeId] {
        self.ases
            .get(&asn)
            .map(|e| e.routers.as_slice())
            .unwrap_or(&[])
    }

    fn region(&self, id: NodeId) -> Region {
        self.node_regions[id.0 as usize]
    }

    fn bfs_from(&self, root: Asn) -> Arc<BfsTree> {
        if let Some(tree) = self.bfs_cache.lock().get(&root) {
            return Arc::clone(tree);
        }
        let mut dist = FastMap::default();
        let mut parent = FastMap::default();
        let mut queue = VecDeque::new();
        dist.insert(root, 0u32);
        queue.push_back(root);
        while let Some(cur) = queue.pop_front() {
            let d = dist[&cur];
            if let Some(neighbors) = self.adj.get(&cur) {
                for &next in neighbors {
                    if let std::collections::hash_map::Entry::Vacant(slot) = dist.entry(next) {
                        slot.insert(d + 1);
                        parent.insert(next, cur);
                        queue.push_back(next);
                    }
                }
            }
        }
        let tree = Arc::new(BfsTree { dist, parent });
        self.bfs_cache.lock().insert(root, Arc::clone(&tree));
        tree
    }

    /// AS-level path from `src_as` to `dst_as` (inclusive), or `None` if
    /// disconnected.
    pub fn as_path(&self, src_as: Asn, dst_as: Asn) -> Option<Vec<Asn>> {
        if src_as == dst_as {
            return Some(vec![src_as]);
        }
        let tree = self.bfs_from(src_as);
        tree.dist.get(&dst_as)?;
        let mut path = vec![dst_as];
        let mut cur = dst_as;
        while cur != src_as {
            cur = *tree.parent.get(&cur)?;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Pick the anycast instance of `addr` nearest (in AS hops) to
    /// `src_node`. Distance ties break towards the instance in the client's
    /// own region — BGP anycast catchments are regional — then on node id
    /// for determinism.
    pub fn select_instance(&self, src_node: NodeId, addr: Ipv4Addr) -> Option<NodeId> {
        let candidates = self.nodes_at(addr);
        if candidates.is_empty() {
            return None;
        }
        let src_region = self.region(src_node);
        let tree = self.bfs_from(self.node(src_node).asn);
        candidates
            .iter()
            .filter_map(|&id| {
                let region_penalty = u8::from(self.region(id) != src_region);
                tree.dist
                    .get(&self.node(id).asn)
                    .map(|&d| (region_penalty, d, id))
            })
            .min()
            .map(|(_, _, id)| id)
    }

    /// Routers an AS contributes to a path, chosen deterministically from
    /// the traversal context so the hop sequence is stable.
    fn expand_as(&self, asn: Asn, prev: Option<Asn>, next: Option<Asn>, out: &mut Vec<NodeId>) {
        let Some(entry) = self.ases.get(&asn) else {
            return;
        };
        if entry.routers.is_empty() {
            return;
        }
        let h = mix3(
            self.seed,
            asn.0 as u64,
            (prev.map(|a| a.0).unwrap_or(0) as u64) << 32 | next.map(|a| a.0).unwrap_or(0) as u64,
        );
        let n = entry.routers.len();
        // Transit ASes contribute 1–2 routers; the terminal AS contributes
        // up to 2 as well (edge + border), keeping total hop counts in the
        // 5–15 range typical of real traceroutes.
        let take = 1 + (h as usize % 2.min(n));
        let mut idx = (h >> 8) as usize % n;
        // Stride is never ≡ 0 (mod n), so consecutive picks are distinct
        // routers — a route must not visit the same hop twice in a row.
        let stride = if n > 1 {
            1 + (h >> 16) as usize % (n - 1)
        } else {
            1
        };
        for _ in 0..take.min(n) {
            out.push(entry.routers[idx]);
            idx = (idx + stride) % n;
        }
    }

    /// Full node-level route from `src` to `dst` (both inclusive). `None`
    /// if the ASes are disconnected.
    ///
    /// Pure computation (the AS-level BFS underneath is memoized); callers
    /// on the hot path memoize whole routes themselves — the engine keeps a
    /// per-shard `(src, dst addr) → route` cache so concurrent shards never
    /// serialize on a shared lock here.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
        if src == dst {
            return Some(Arc::from(vec![src].into_boxed_slice()));
        }
        let src_as = self.node(src).asn;
        let dst_as = self.node(dst).asn;
        let as_path = self.as_path(src_as, dst_as)?;
        let mut hops: Vec<NodeId> = vec![src];
        for (i, &asn) in as_path.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(as_path[i - 1]) };
            let next = as_path.get(i + 1).copied();
            self.expand_as(asn, prev, next, &mut hops);
        }
        // Never route *through* the endpoints themselves.
        hops.retain(|&n| n == src || self.node(n).is_router());
        hops.push(dst);
        Some(Arc::from(hops.into_boxed_slice()))
    }

    /// Route to an address, resolving anycast first.
    pub fn route_to_addr(&self, src: NodeId, addr: Ipv4Addr) -> Option<Arc<[NodeId]>> {
        let dst = self.select_instance(src, addr)?;
        self.route(src, dst)
    }

    /// Classify the link between two adjacent path nodes.
    pub fn link_class(&self, a: NodeId, b: NodeId) -> LinkClass {
        if self.node(a).asn == self.node(b).asn {
            LinkClass::IntraAs
        } else if self.region(a) == self.region(b) {
            LinkClass::InterAsSameRegion
        } else {
            LinkClass::InterRegion
        }
    }

    /// Deterministic one-way latency of the (a, b) link in milliseconds.
    pub fn latency_ms(&self, a: NodeId, b: NodeId) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let h = mix3(self.seed ^ 0x1a7e_c0de, lo.0 as u64, hi.0 as u64);
        match self.link_class(a, b) {
            LinkClass::IntraAs => 1 + h % 4,            // 1-4 ms
            LinkClass::InterAsSameRegion => 5 + h % 20, // 5-24 ms
            LinkClass::InterRegion => 40 + h % 80,      // 40-119 ms
        }
    }
}

/// SplitMix64-style deterministic mixing. Public because the fault layer
/// ([`crate::fault`]) derives per-packet fate from the same rule.
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(c);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_geo::Region;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// Three ASes in a chain: 100 (EU) — 200 (EU) — 300 (Asia).
    fn chain() -> (Topology, NodeId, NodeId) {
        let mut tb = TopologyBuilder::new(42);
        tb.add_as(Asn(100), Region::Europe);
        tb.add_as(Asn(200), Region::Europe);
        tb.add_as(Asn(300), Region::EastAsia);
        tb.link(Asn(100), Asn(200)).unwrap();
        tb.link(Asn(200), Asn(300)).unwrap();
        for (asn, base) in [(100u32, 10u8), (200, 20), (300, 30)] {
            for r in 0..3u8 {
                tb.add_router(Asn(asn), addr(base, 0, 0, r + 1), true)
                    .unwrap();
            }
        }
        let client = tb.add_host(Asn(100), addr(10, 1, 0, 1)).unwrap();
        let server = tb.add_host(Asn(300), addr(30, 1, 0, 1)).unwrap();
        (tb.build().unwrap(), client, server)
    }

    #[test]
    fn as_path_shortest() {
        let (topo, _, _) = chain();
        assert_eq!(
            topo.as_path(Asn(100), Asn(300)).unwrap(),
            vec![Asn(100), Asn(200), Asn(300)]
        );
        assert_eq!(topo.as_path(Asn(200), Asn(200)).unwrap(), vec![Asn(200)]);
    }

    #[test]
    fn route_endpoints_and_routers_only() {
        let (topo, client, server) = chain();
        let route = topo.route(client, server).unwrap();
        assert_eq!(route[0], client);
        assert_eq!(*route.last().unwrap(), server);
        for &hop in &route[1..route.len() - 1] {
            assert!(topo.node(hop).is_router(), "{hop} must be a router");
        }
        // Chain of 3 ASes contributing 1-2 routers each: 3..=6 routers.
        let router_count = route.len() - 2;
        assert!((3..=6).contains(&router_count), "got {router_count}");
    }

    #[test]
    fn route_is_deterministic() {
        let (topo, client, server) = chain();
        let r1 = topo.route(client, server).unwrap();
        let r2 = topo.route(client, server).unwrap();
        assert_eq!(r1, r2, "recomputation yields the identical route");
    }

    #[test]
    fn route_to_self_is_loopback() {
        let (topo, client, _) = chain();
        let route = topo.route(client, client).unwrap();
        assert_eq!(route.as_ref(), &[client]);
    }

    #[test]
    fn disconnected_as_unroutable() {
        let mut tb = TopologyBuilder::new(1);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_as(Asn(2), Region::Europe);
        tb.add_router(Asn(1), addr(1, 0, 0, 1), true).unwrap();
        tb.add_router(Asn(2), addr(2, 0, 0, 1), true).unwrap();
        let a = tb.add_host(Asn(1), addr(1, 1, 1, 1)).unwrap();
        let b = tb.add_host(Asn(2), addr(2, 1, 1, 1)).unwrap();
        let topo = tb.build().unwrap();
        assert!(topo.route(a, b).is_none());
    }

    #[test]
    fn anycast_picks_nearest_instance() {
        // Client in AS100; anycast addr served in AS100 and AS300.
        let mut tb = TopologyBuilder::new(9);
        tb.add_as(Asn(100), Region::Europe);
        tb.add_as(Asn(200), Region::Europe);
        tb.add_as(Asn(300), Region::EastAsia);
        tb.link(Asn(100), Asn(200)).unwrap();
        tb.link(Asn(200), Asn(300)).unwrap();
        for asn in [100u32, 200, 300] {
            tb.add_router(Asn(asn), addr((asn / 10) as u8, 0, 0, 1), true)
                .unwrap();
        }
        let client = tb.add_host(Asn(100), addr(10, 1, 0, 1)).unwrap();
        let anycast = addr(99, 9, 9, 9);
        let near = tb.add_host(Asn(100), anycast).unwrap();
        let far = tb.add_host(Asn(300), anycast).unwrap();
        let topo = tb.build().unwrap();
        assert_eq!(topo.select_instance(client, anycast), Some(near));
        let route = topo.route_to_addr(client, anycast).unwrap();
        assert_eq!(*route.last().unwrap(), near);
        assert_ne!(*route.last().unwrap(), far);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut tb = TopologyBuilder::new(0);
        tb.add_as(Asn(1), Region::Europe);
        assert_eq!(
            tb.link(Asn(1), Asn(1)),
            Err(TopologyError::SelfLink(Asn(1)))
        );
        assert_eq!(
            tb.link(Asn(1), Asn(2)),
            Err(TopologyError::UnknownAs(Asn(2)))
        );
        tb.add_as(Asn(2), Region::Europe);
        tb.link(Asn(1), Asn(2)).unwrap();
        assert_eq!(
            tb.link(Asn(2), Asn(1)),
            Err(TopologyError::DuplicateLink(Asn(2), Asn(1)))
        );
        assert!(tb.add_router(Asn(3), addr(3, 0, 0, 1), true).is_err());
        // host without routers in its AS
        tb.add_host(Asn(1), addr(1, 1, 1, 1)).unwrap();
        assert_eq!(tb.build().unwrap_err(), TopologyError::NoRouters(Asn(1)));
    }

    #[test]
    fn latency_scales_with_link_class() {
        let (topo, client, server) = chain();
        let route = topo.route(client, server).unwrap();
        for pair in route.windows(2) {
            let ms = topo.latency_ms(pair[0], pair[1]);
            let class = topo.link_class(pair[0], pair[1]);
            match class {
                LinkClass::IntraAs => assert!((1..=4).contains(&ms)),
                LinkClass::InterAsSameRegion => assert!((5..=24).contains(&ms)),
                LinkClass::InterRegion => assert!((40..=119).contains(&ms)),
            }
            // symmetric
            assert_eq!(ms, topo.latency_ms(pair[1], pair[0]));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let build = |seed| {
            let mut tb = TopologyBuilder::new(seed);
            tb.add_as(Asn(100), Region::Europe);
            tb.add_as(Asn(200), Region::EastAsia);
            tb.link(Asn(100), Asn(200)).unwrap();
            for r in 0..4u8 {
                tb.add_router(Asn(100), addr(10, 0, 0, r + 1), true)
                    .unwrap();
                tb.add_router(Asn(200), addr(20, 0, 0, r + 1), true)
                    .unwrap();
            }
            let a = tb.add_host(Asn(100), addr(10, 1, 0, 1)).unwrap();
            let b = tb.add_host(Asn(200), addr(20, 1, 0, 1)).unwrap();
            let topo = tb.build().unwrap();
            topo.route(a, b).unwrap().to_vec()
        };
        // With 4 routers per AS there are many possible expansions; seeds
        // should eventually disagree.
        let baseline = build(1);
        let differs = (2..20).any(|s| build(s) != baseline);
        assert!(differs, "route expansion ignores the seed");
    }
}
