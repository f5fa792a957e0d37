//! Concrete topologies from the paper.
//!
//! * [`testbed`] — the 6-server/2-switch testbed of Fig. 6: four GPU
//!   servers (two A100, two V100), four GPUs each, NVLink full-mesh inside
//!   each server, and every GPU's 100 G port **cross-connected** across the
//!   two Tofino access switches ("2tracks": half the ports per server land
//!   on each switch, for high availability and path diversity).
//! * [`xtracks`] — the parametric large-scale fabric of §V "Simulation
//!   Settings": pods of servers attached to `tracks` access switches, with
//!   a core-switch layer on top. `tracks` controls how spread out the
//!   aggregation traffic is — the 2tracks vs 8tracks contrast in Figs. 8–10.
//! * [`fig2_micro`] — the 3-GPU motivating example of Fig. 2, used to
//!   reproduce the homogeneous-vs-heterogeneous aggregation-delay numbers
//!   (≈160 µs vs ≈90 µs for 1 MB).

use crate::graph::{bandwidth, latency, GpuSpec, Graph, GraphBuilder, LinkKind, NodeId, ServerId};
use crate::routing::{AllPairs, LinkWeight};

/// Handles into a built topology, for tests and experiment harnesses.
#[derive(Clone, Debug)]
pub struct BuiltTopology {
    /// The fabric.
    pub graph: Graph,
    /// GPU node ids grouped by server, server-major order.
    pub gpus_by_server: Vec<Vec<NodeId>>,
    /// Access switch node ids.
    pub access_switches: Vec<NodeId>,
    /// Core switch node ids (empty for single-layer fabrics).
    pub core_switches: Vec<NodeId>,
}

impl BuiltTopology {
    /// All GPU ids, flattened server-major.
    pub fn all_gpus(&self) -> Vec<NodeId> {
        self.gpus_by_server.iter().flatten().copied().collect()
    }

    /// Minimum-latency all-pairs over
    /// [`Graph::gpus_and_ina_switches`]: the table a planned deployment
    /// and its online scheduler route over.
    pub fn gpu_ina_pairs(&self) -> AllPairs {
        let nodes = self.graph.gpus_and_ina_switches();
        AllPairs::compute(&self.graph, &nodes, LinkWeight::Latency, None)
    }
}

/// GPUs per `xtracks` server (paper: 8 for the large-scale simulation),
/// each an A100-80G meshed over A100 NVLink, with a 100 G port to its
/// access switch.
pub const XTRACKS_GPUS_PER_SERVER: usize = 8;

/// Uplinks from each `xtracks` access switch into the core layer, each
/// 400 G.
pub const XTRACKS_UPLINKS_PER_ACCESS: usize = 2;

/// Parameters for the parametric `xtracks` fabric; the per-server and
/// per-switch shape is fixed by [`XTRACKS_GPUS_PER_SERVER`] and
/// [`XTRACKS_UPLINKS_PER_ACCESS`].
#[derive(Clone, Debug)]
pub struct XTracksConfig {
    /// Number of pods (groups of servers sharing access switches).
    pub pods: usize,
    /// Servers per pod (paper: 6 for 2tracks, 16 for 8tracks).
    pub servers_per_pod: usize,
    /// Access switches per pod — the `x` in `xtracks`.
    pub tracks: usize,
    /// Number of core switches shared by all pods.
    pub core_switches: usize,
}

impl XTracksConfig {
    /// The paper's 2tracks flavour, scaled by `pods` so benches stay fast:
    /// 6 servers/pod, 2 access switches/pod.
    pub fn two_tracks(pods: usize) -> Self {
        XTracksConfig {
            pods,
            servers_per_pod: 6,
            tracks: 2,
            core_switches: (pods / 4).max(2),
        }
    }

    /// The paper's 8tracks flavour: 16 servers/pod, 8 access switches/pod —
    /// traffic spread over many more access switches.
    pub fn eight_tracks(pods: usize) -> Self {
        XTracksConfig {
            pods,
            servers_per_pod: 16,
            tracks: 8,
            core_switches: pods.max(2) * 2,
        }
    }

    /// Total GPU count implied by the config.
    pub fn total_gpus(&self) -> usize {
        self.pods * self.servers_per_pod * XTRACKS_GPUS_PER_SERVER
    }
}

/// Add a server's GPUs with an NVLink full mesh; returns the GPU ids.
fn add_server(
    b: &mut GraphBuilder,
    server: ServerId,
    gpus: usize,
    spec: &GpuSpec,
    nvlink_bps: f64,
) -> Vec<NodeId> {
    let ids: Vec<NodeId> = (0..gpus)
        .map(|i| b.add_gpu(server, i as u8, spec.clone()))
        .collect();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            b.add_link(
                ids[i],
                ids[j],
                LinkKind::NvLink,
                nvlink_bps,
                latency::NVLINK_HOP_NS,
            );
        }
    }
    ids
}

/// The Fig. 6 testbed: 4 GPU servers × 4 GPUs, 2 INA-capable access
/// switches, cross-connected ports (2tracks), switch-to-switch interlink.
///
/// Servers 0–1 are A100-40G, servers 2–3 are V100-32G, matching the paper.
/// (The PS and traffic-replay hosts of Fig. 6 carry no model state and are
/// not represented; the workload generator plays their role.)
pub fn testbed() -> BuiltTopology {
    let mut b = GraphBuilder::new();
    let mut gpus_by_server = Vec::new();
    for s in 0..4u32 {
        let spec = if s < 2 {
            GpuSpec::a100_40g()
        } else {
            GpuSpec::v100_32g()
        };
        let nv = if s < 2 {
            bandwidth::NVLINK_A100
        } else {
            bandwidth::NVLINK_V100
        };
        gpus_by_server.push(add_server(&mut b, ServerId(s), 4, &spec, nv));
    }
    let sw0 = b.add_access_switch(true, "tofino0");
    let sw1 = b.add_access_switch(true, "tofino1");
    // Cross-connect: GPUs 0,1 of each server to sw0; GPUs 2,3 to sw1.
    for gpus in &gpus_by_server {
        for (i, &g) in gpus.iter().enumerate() {
            let sw = if i < 2 { sw0 } else { sw1 };
            b.add_link(
                g,
                sw,
                LinkKind::Ethernet,
                bandwidth::ETH_100G,
                latency::ETH_HOP_NS,
            );
        }
    }
    // Inter-switch trunk (2 x 100G bundled).
    b.add_link(
        sw0,
        sw1,
        LinkKind::Ethernet,
        2.0 * bandwidth::ETH_100G,
        latency::ETH_HOP_NS,
    );
    BuiltTopology {
        graph: b.build(),
        gpus_by_server,
        access_switches: vec![sw0, sw1],
        core_switches: vec![],
    }
}

/// Build a parametric pods-of-servers fabric (see [`XTracksConfig`]).
///
/// Wiring: within a pod, each server's GPU ports are spread round-robin
/// over the pod's `tracks` access switches (the cross-connection of
/// Fig. 6 generalized); each access switch takes
/// [`XTRACKS_UPLINKS_PER_ACCESS`] links into the core layer, chosen
/// round-robin so load spreads evenly.
pub fn xtracks(cfg: &XTracksConfig) -> BuiltTopology {
    assert!(cfg.pods > 0 && cfg.servers_per_pod > 0);
    assert!(cfg.tracks > 0, "need at least one access switch per pod");
    let mut b = GraphBuilder::new();
    let mut gpus_by_server = Vec::new();
    let mut access_switches = Vec::new();
    let gpu_spec = GpuSpec::a100_80g();

    // Core layer first so access uplinks can reference it.
    let cores: Vec<NodeId> = (0..cfg.core_switches.max(1))
        .map(|i| b.add_core_switch(true, format!("core{i}")))
        .collect();

    let mut server_id = 0u32;
    let mut uplink_rr = 0usize;
    for pod in 0..cfg.pods {
        let pod_access: Vec<NodeId> = (0..cfg.tracks)
            .map(|t| b.add_access_switch(true, format!("pod{pod}/acc{t}")))
            .collect();
        for _ in 0..cfg.servers_per_pod {
            let gpus = add_server(
                &mut b,
                ServerId(server_id),
                XTRACKS_GPUS_PER_SERVER,
                &gpu_spec,
                bandwidth::NVLINK_A100,
            );
            for (i, &g) in gpus.iter().enumerate() {
                let sw = pod_access[i % cfg.tracks];
                b.add_link(
                    g,
                    sw,
                    LinkKind::Ethernet,
                    bandwidth::ETH_100G,
                    latency::ETH_HOP_NS,
                );
            }
            gpus_by_server.push(gpus);
            server_id += 1;
        }
        for &acc in &pod_access {
            for _ in 0..XTRACKS_UPLINKS_PER_ACCESS {
                let core = cores[uplink_rr % cores.len()];
                uplink_rr += 1;
                b.add_link(
                    acc,
                    core,
                    LinkKind::Ethernet,
                    bandwidth::ETH_400G,
                    latency::ETH_HOP_NS,
                );
            }
        }
        access_switches.extend(pod_access);
    }
    BuiltTopology {
        graph: b.build(),
        gpus_by_server,
        access_switches,
        core_switches: cores,
    }
}

/// Handles for the Fig. 2 micro-example.
#[derive(Clone, Debug)]
pub struct Fig2Micro {
    /// The fabric.
    pub graph: Graph,
    /// GN1, GN2 (server 0, NVLink-connected) and GN3 (server 1).
    pub gpus: [NodeId; 3],
    /// S2 — the access switch reachable in one Ethernet hop from all GPUs.
    pub access: NodeId,
    /// S1 — the core switch of the homogeneous detour path.
    pub core: NodeId,
}

/// The motivating example of Fig. 2: three GPUs performing an all-reduce.
///
/// * Homogeneous INA aggregates at the **core** switch `S1`: every GPU's
///   contribution crosses two 100 G Ethernet hops (≈160 µs for 1 MB,
///   counting serialization on each store-and-forward hop).
/// * Heterogeneous INA first reduces GN1+GN2 over NVLink, then aggregates
///   at the **access** switch `S2` one Ethernet hop away (≈90 µs).
pub fn fig2_micro() -> Fig2Micro {
    let mut b = GraphBuilder::new();
    let gn1 = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
    let gn2 = b.add_gpu(ServerId(0), 1, GpuSpec::a100_40g());
    let gn3 = b.add_gpu(ServerId(1), 0, GpuSpec::a100_40g());
    let s2 = b.add_access_switch(true, "S2");
    let s3 = b.add_access_switch(true, "S3");
    let s1 = b.add_core_switch(true, "S1");
    b.add_link(
        gn1,
        gn2,
        LinkKind::NvLink,
        bandwidth::NVLINK_A100,
        latency::NVLINK_HOP_NS,
    );
    // Cross-connection: every GPU has a port on S2 (its 2tracks partner
    // switch) in addition to its "home" path; GN3's home switch is S3.
    for g in [gn1, gn2, gn3] {
        b.add_link(
            g,
            s2,
            LinkKind::Ethernet,
            bandwidth::ETH_100G,
            latency::ETH_HOP_NS,
        );
    }
    b.add_link(
        gn3,
        s3,
        LinkKind::Ethernet,
        bandwidth::ETH_100G,
        latency::ETH_HOP_NS,
    );
    b.add_link(
        s2,
        s1,
        LinkKind::Ethernet,
        bandwidth::ETH_100G,
        latency::ETH_HOP_NS,
    );
    b.add_link(
        s3,
        s1,
        LinkKind::Ethernet,
        bandwidth::ETH_100G,
        latency::ETH_HOP_NS,
    );
    Fig2Micro {
        graph: b.build(),
        gpus: [gn1, gn2, gn3],
        access: s2,
        core: s1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::shortest_path;

    #[test]
    fn testbed_shape() {
        let t = testbed();
        assert_eq!(t.gpus_by_server.len(), 4);
        assert_eq!(t.all_gpus().len(), 16);
        assert_eq!(t.access_switches.len(), 2);
        assert!(t.graph.validate().is_ok());
        // NVLink full mesh: 6 per server = 24; Ethernet: 16 GPU ports + 1
        // trunk = 17; total 41 links.
        assert_eq!(t.graph.link_count(), 41);
        // Mixed hardware: servers 0-1 A100, 2-3 V100.
        assert_eq!(
            t.graph.gpu_spec(t.gpus_by_server[0][0]).unwrap().model,
            "A100-40G"
        );
        assert_eq!(
            t.graph.gpu_spec(t.gpus_by_server[3][0]).unwrap().model,
            "V100-32G"
        );
    }

    #[test]
    fn testbed_cross_connect_reaches_both_switches() {
        let t = testbed();
        // Within one server, GPU0 homes on sw0, GPU3 on sw1; both switches
        // are one hop from some GPU of every server.
        for gpus in &t.gpus_by_server {
            let mut reach0 = false;
            let mut reach1 = false;
            for &g in gpus {
                for &(nb, _) in t.graph.neighbors(g) {
                    if nb == t.access_switches[0] {
                        reach0 = true;
                    }
                    if nb == t.access_switches[1] {
                        reach1 = true;
                    }
                }
            }
            assert!(reach0 && reach1, "server not cross-connected");
        }
    }

    #[test]
    fn xtracks_counts() {
        let cfg = XTracksConfig::two_tracks(4);
        let t = xtracks(&cfg);
        assert_eq!(t.gpus_by_server.len(), 24); // 4 pods x 6 servers
        assert_eq!(t.all_gpus().len(), cfg.total_gpus());
        assert_eq!(t.access_switches.len(), 8); // 4 pods x 2 tracks
        assert!(t.core_switches.len() >= 2);
        assert!(t.graph.validate().is_ok());
    }

    #[test]
    fn eight_tracks_spreads_wider_than_two() {
        let t2 = xtracks(&XTracksConfig::two_tracks(2));
        let t8 = xtracks(&XTracksConfig::eight_tracks(2));
        // Same pod count: 8tracks has 4x the access switches per pod and
        // more servers, i.e. traffic is spread across more first-hop
        // switches.
        assert_eq!(t2.access_switches.len(), 4);
        assert_eq!(t8.access_switches.len(), 16);
        let per_switch_2 = t2.all_gpus().len() as f64 / t2.access_switches.len() as f64;
        let per_switch_8 = t8.all_gpus().len() as f64 / t8.access_switches.len() as f64;
        assert!(per_switch_8 <= per_switch_2);
    }

    #[test]
    fn xtracks_full_connectivity() {
        let t = xtracks(&XTracksConfig::two_tracks(3));
        let gpus = t.all_gpus();
        // First GPU reaches the last GPU (cross-pod, via core).
        let p = shortest_path(&t.graph, gpus[0], *gpus.last().unwrap(), LinkWeight::Hops);
        assert!(p.is_some(), "cross-pod GPUs disconnected");
        assert!(p.unwrap().hop_count() >= 4);
    }

    #[test]
    fn fig2_paths_match_paper_narrative() {
        let m = fig2_micro();
        // Homogeneous detour: GN3 -> S1 via S3 is 2 Ethernet hops.
        let via_core = shortest_path(&m.graph, m.gpus[2], m.core, LinkWeight::Hops).unwrap();
        assert_eq!(via_core.hop_count(), 2);
        // Heterogeneous: every GPU reaches S2 in 1 hop.
        for g in m.gpus {
            let p = shortest_path(&m.graph, g, m.access, LinkWeight::Hops).unwrap();
            assert_eq!(p.hop_count(), 1);
        }
        // GN1-GN2 are NVLink peers.
        assert!(m.graph.same_server(m.gpus[0], m.gpus[1]));
        assert!(!m.graph.same_server(m.gpus[0], m.gpus[2]));
    }
}
