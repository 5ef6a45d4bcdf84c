//! Pre-built cluster fabrics used by the experiments.

use crate::{LinkId, NodeId, NodeKind, Topology};
use simtime::{Bandwidth, Dur};

/// A dumbbell fabric plus the handles experiments need.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// The fabric itself.
    pub topology: Topology,
    /// Hosts on the left side (senders in the Fig. 1 experiments).
    pub left_hosts: Vec<NodeId>,
    /// Hosts on the right side (receivers).
    pub right_hosts: Vec<NodeId>,
    /// The left→right bottleneck: the paper's `L1`.
    pub bottleneck: LinkId,
    /// The right→left direction of the bottleneck cable.
    pub bottleneck_reverse: LinkId,
}

impl Dumbbell {
    /// The links of the routed path from left host `i` to right host `i`
    /// (NIC, bottleneck, NIC): the single-path route of pair `i`.
    ///
    /// # Panics
    /// Panics if `i` is not a host index.
    pub fn pair_links(&self, i: usize) -> Vec<LinkId> {
        let flow = crate::FlowKey {
            src: self.left_hosts[i],
            dst: self.right_hosts[i],
            tag: 0,
        };
        let path = self.topology.route(flow).expect("dumbbell is connected");
        path.links().to_vec()
    }
}

/// Builds the paper's Fig. 1a testbed shape: `n` hosts on each side of a
/// single switch-to-switch cable, so that every left→right flow shares the
/// bottleneck link `L1`.
///
/// Host NIC links run at `edge`, the bottleneck at `core`. The paper's
/// testbed has 50 Gbps NICs and `L1` at the same rate, so congestion occurs
/// exactly when two jobs communicate at once — pass `edge == core` to
/// reproduce that regime.
///
/// # Panics
/// Panics if `n == 0`.
pub fn dumbbell(n: usize, edge: Bandwidth, core: Bandwidth, delay: Dur) -> Dumbbell {
    assert!(n > 0, "dumbbell: need at least one host per side");
    let mut t = Topology::new();
    let sw_l = t.add_node(NodeKind::TorSwitch, "tor-left");
    let sw_r = t.add_node(NodeKind::TorSwitch, "tor-right");
    let (bottleneck, bottleneck_reverse) = t.add_duplex(sw_l, sw_r, core, delay);
    let mut left_hosts = Vec::with_capacity(n);
    let mut right_hosts = Vec::with_capacity(n);
    for i in 0..n {
        let h = t.add_host(format!("left-{i}"), 8);
        t.add_duplex(h, sw_l, edge, delay);
        left_hosts.push(h);
    }
    for i in 0..n {
        let h = t.add_host(format!("right-{i}"), 8);
        t.add_duplex(sw_r, h, edge, delay);
        right_hosts.push(h);
    }
    Dumbbell {
        topology: t,
        left_hosts,
        right_hosts,
        bottleneck,
        bottleneck_reverse,
    }
}

/// A two-tier (ToR + spine) Clos fabric plus the handles experiments need.
#[derive(Debug, Clone)]
pub struct TwoTier {
    /// The fabric itself.
    pub topology: Topology,
    /// Hosts grouped by rack: `hosts[r][i]` is host `i` in rack `r`.
    pub hosts: Vec<Vec<NodeId>>,
    /// ToR switch of each rack.
    pub tors: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
    /// Uplink `tors[r] → spines[s]` link ids, indexed `[r][s]`.
    pub uplinks: Vec<Vec<LinkId>>,
}

/// Builds a `racks × hosts_per_rack` two-tier Clos with `spines` spine
/// switches. Host↔ToR links run at `edge`; ToR↔spine at `uplink`.
///
/// Used by the cluster-level compatibility experiments (§5): jobs whose
/// workers span racks compete on ToR uplinks, potentially with different
/// jobs on different links.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn two_tier(
    racks: usize,
    hosts_per_rack: usize,
    spines: usize,
    edge: Bandwidth,
    uplink: Bandwidth,
    delay: Dur,
) -> TwoTier {
    assert!(
        racks > 0 && hosts_per_rack > 0 && spines > 0,
        "two_tier: zero dimension"
    );
    let mut t = Topology::new();
    let spine_ids: Vec<NodeId> = (0..spines)
        .map(|s| t.add_node(NodeKind::SpineSwitch, format!("spine-{s}")))
        .collect();
    let mut tors = Vec::with_capacity(racks);
    let mut hosts = Vec::with_capacity(racks);
    let mut uplinks = Vec::with_capacity(racks);
    for r in 0..racks {
        let tor = t.add_node(NodeKind::TorSwitch, format!("tor-{r}"));
        tors.push(tor);
        let mut rack_uplinks = Vec::with_capacity(spines);
        for &spine in &spine_ids {
            let (up, _down) = t.add_duplex(tor, spine, uplink, delay);
            rack_uplinks.push(up);
        }
        uplinks.push(rack_uplinks);
        let mut rack_hosts = Vec::with_capacity(hosts_per_rack);
        for i in 0..hosts_per_rack {
            let h = t.add_host(format!("host-{r}-{i}"), 8);
            t.add_duplex(h, tor, edge, delay);
            rack_hosts.push(h);
        }
        hosts.push(rack_hosts);
    }
    TwoTier {
        topology: t,
        hosts,
        tors,
        spines: spine_ids,
        uplinks,
    }
}

/// A three-tier k-ary fat-tree plus the handles experiments need.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// The fabric itself.
    pub topology: Topology,
    /// Hosts grouped by pod then edge switch:
    /// `hosts[pod][edge][i]`.
    pub hosts: Vec<Vec<Vec<NodeId>>>,
    /// Edge switches per pod: `edges[pod][e]`.
    pub edges: Vec<Vec<NodeId>>,
    /// Aggregation switches per pod: `aggs[pod][a]`.
    pub aggs: Vec<Vec<NodeId>>,
    /// Core switches.
    pub cores: Vec<NodeId>,
}

/// Builds a `k`-ary fat-tree (Al-Fares et al.): `k` pods, each with `k/2`
/// edge and `k/2` aggregation switches; `k/2` hosts per edge switch;
/// `(k/2)²` core switches. Every link runs at `rate`. Full bisection
/// bandwidth by construction — the fabric where ECMP spreading and
/// multi-path compatibility questions get interesting.
///
/// # Panics
/// Panics unless `k` is even and ≥ 2.
pub fn fat_tree(k: usize, rate: Bandwidth, delay: Dur) -> FatTree {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat_tree: k must be even and ≥ 2"
    );
    let half = k / 2;
    let mut t = Topology::new();
    let cores: Vec<NodeId> = (0..half * half)
        .map(|c| t.add_node(NodeKind::SpineSwitch, format!("core-{c}")))
        .collect();
    let mut hosts = Vec::with_capacity(k);
    let mut edges = Vec::with_capacity(k);
    let mut aggs = Vec::with_capacity(k);
    for p in 0..k {
        let pod_aggs: Vec<NodeId> = (0..half)
            .map(|a| t.add_node(NodeKind::SpineSwitch, format!("agg-{p}-{a}")))
            .collect();
        // Aggregation a connects to cores [a·k/2, (a+1)·k/2).
        for (a, &agg) in pod_aggs.iter().enumerate() {
            for c in 0..half {
                t.add_duplex(agg, cores[a * half + c], rate, delay);
            }
        }
        let mut pod_edges = Vec::with_capacity(half);
        let mut pod_hosts = Vec::with_capacity(half);
        for e in 0..half {
            let edge = t.add_node(NodeKind::TorSwitch, format!("edge-{p}-{e}"));
            for &agg in &pod_aggs {
                t.add_duplex(edge, agg, rate, delay);
            }
            let mut edge_hosts = Vec::with_capacity(half);
            for h in 0..half {
                let host = t.add_host(format!("host-{p}-{e}-{h}"), 8);
                t.add_duplex(host, edge, rate, delay);
                edge_hosts.push(host);
            }
            pod_edges.push(edge);
            pod_hosts.push(edge_hosts);
        }
        hosts.push(pod_hosts);
        edges.push(pod_edges);
        aggs.push(pod_aggs);
    }
    FatTree {
        topology: t,
        hosts,
        edges,
        aggs,
        cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowKey;

    fn gbps(g: u64) -> Bandwidth {
        Bandwidth::from_gbps(g)
    }

    #[test]
    fn dumbbell_shares_bottleneck() {
        let d = dumbbell(2, gbps(50), gbps(50), Dur::from_micros(1));
        let t = &d.topology;
        assert_eq!(d.left_hosts.len(), 2);
        assert_eq!(d.right_hosts.len(), 2);
        // Every left→right route crosses L1.
        for (i, &src) in d.left_hosts.iter().enumerate() {
            let dst = d.right_hosts[i];
            let path = t.route(FlowKey { src, dst, tag: 0 }).unwrap();
            assert!(path.uses(d.bottleneck), "flow {i} must cross L1");
            assert!(!path.uses(d.bottleneck_reverse));
            assert_eq!(path.len(), 3); // host→torL, torL→torR, torR→host
        }
        // Reverse traffic uses the reverse direction only.
        let back = t
            .route(FlowKey {
                src: d.right_hosts[0],
                dst: d.left_hosts[0],
                tag: 0,
            })
            .unwrap();
        assert!(back.uses(d.bottleneck_reverse));
        assert!(!back.uses(d.bottleneck));
    }

    #[test]
    fn dumbbell_capacities() {
        let d = dumbbell(1, gbps(100), gbps(50), Dur::ZERO);
        let t = &d.topology;
        assert_eq!(t.link(d.bottleneck).capacity, gbps(50));
        let h = d.left_hosts[0];
        let uplink = t.out_links(h)[0];
        assert_eq!(t.link(uplink).capacity, gbps(100));
    }

    #[test]
    fn two_tier_shape() {
        let f = two_tier(3, 4, 2, gbps(100), gbps(50), Dur::from_micros(1));
        let t = &f.topology;
        assert_eq!(f.hosts.len(), 3);
        assert_eq!(f.hosts[0].len(), 4);
        assert_eq!(f.tors.len(), 3);
        assert_eq!(f.spines.len(), 2);
        // 2 spines * 3 racks duplex + 12 host duplex = (6 + 12) * 2 links.
        assert_eq!(t.link_count(), (6 + 12) * 2);
        // Intra-rack traffic: 2 hops, never touches a spine uplink.
        let p = t
            .route(FlowKey {
                src: f.hosts[0][0],
                dst: f.hosts[0][1],
                tag: 0,
            })
            .unwrap();
        assert_eq!(p.len(), 2);
        // Cross-rack traffic: 4 hops, crosses some rack-0 uplink.
        let p = t
            .route(FlowKey {
                src: f.hosts[0][0],
                dst: f.hosts[2][1],
                tag: 0,
            })
            .unwrap();
        assert_eq!(p.len(), 4);
        assert!(f.uplinks[0].iter().any(|&u| p.uses(u)));
        // ECMP: both spines carry cross-rack flows across many tags.
        let used: std::collections::HashSet<LinkId> = (0..64)
            .map(|tag| {
                let p = t
                    .route(FlowKey {
                        src: f.hosts[0][0],
                        dst: f.hosts[2][1],
                        tag,
                    })
                    .unwrap();
                *f.uplinks[0].iter().find(|&&u| p.uses(u)).unwrap()
            })
            .collect();
        assert_eq!(used.len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn two_tier_rejects_zero() {
        let _ = two_tier(0, 1, 1, gbps(1), gbps(1), Dur::ZERO);
    }

    #[test]
    fn fat_tree_shape_and_routing() {
        let k = 4;
        let f = fat_tree(k, gbps(50), Dur::from_micros(1));
        let t = &f.topology;
        // k-ary fat-tree: k³/4 hosts, (k/2)² cores, k·k/2 edge and agg.
        assert_eq!(t.hosts().len(), k * k * k / 4);
        assert_eq!(f.cores.len(), (k / 2) * (k / 2));
        assert_eq!(f.edges.iter().map(|p| p.len()).sum::<usize>(), k * k / 2);
        assert_eq!(f.aggs.iter().map(|p| p.len()).sum::<usize>(), k * k / 2);

        // Same-edge hosts: 2 hops.
        let (a, b) = (f.hosts[0][0][0], f.hosts[0][0][1]);
        assert_eq!(t.hop_distance(a, b), Some(2));
        // Same-pod, different-edge: 4 hops with k/2 ECMP choices.
        let c = f.hosts[0][1][0];
        assert_eq!(t.hop_distance(a, c), Some(4));
        assert_eq!(t.ecmp_paths(a, c).len(), k / 2);
        // Cross-pod: 6 hops with (k/2)² ECMP choices.
        let d = f.hosts[3][1][1];
        assert_eq!(t.hop_distance(a, d), Some(6));
        assert_eq!(t.ecmp_paths(a, d).len(), (k / 2) * (k / 2));
        // Hashed routing spreads across multiple core paths.
        let distinct: std::collections::HashSet<_> = (0..128)
            .map(|tag| {
                t.route(FlowKey {
                    src: a,
                    dst: d,
                    tag,
                })
                .unwrap()
            })
            .collect();
        assert!(distinct.len() >= 3, "ECMP spread {}", distinct.len());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_rejects_odd_k() {
        let _ = fat_tree(3, gbps(1), Dur::ZERO);
    }
}
