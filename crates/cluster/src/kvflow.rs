//! KV-cache transfer geometry: Eq. 15 striping across parallel TP pairs.
//!
//! A prefill instance holds the KV cache sharded across its tensor-parallel
//! ranks; the decode instance wants it sharded across *its* ranks. Eq. 15
//! models the shipment as parallel point-to-point streams between rank
//! pairs, so the effective bandwidth is the sum over pairs rather than one
//! NIC's worth. This module computes the stripe plan — which GPU pair
//! carries which share of the bytes — and the engine launches one simnet
//! flow per stripe; the transfer completes when the *slowest* stripe
//! drains. [`KvRoutes::estimate`] prices a shipment the same way.

use hs_topology::{AllPairs, Graph, NodeId};

/// One rank-pair's share of a KV-cache shipment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvStripe {
    /// Source GPU (a prefill-instance rank).
    pub src: NodeId,
    /// Destination GPU (a decode-instance rank).
    pub dst: NodeId,
    /// Bytes carried by this stripe.
    pub bytes: u64,
}

/// Split `bytes` across the Eq. 15 parallel TP pairs.
///
/// With `s` source ranks and `d` destination ranks, `max(s, d)` pairs are
/// formed, pairing rank `i % s` with rank `i % d` — every GPU on the wider
/// side participates, and the narrower side fans in/out round-robin.
/// `src == dst` self-pairs (an interleaved deployment can place prefill
/// and decode shards on the same GPU) are local copies that never touch
/// the fabric, so they are removed *before* the byte split: the shipped
/// payload divides over the stripes that actually carry traffic, with the
/// integer-division remainder landing in the last stripe. The surviving
/// stripes therefore conserve the payload exactly —
/// `Σ stripe.bytes == bytes` whenever the plan is non-empty; the plan is
/// empty only for degenerate inputs (no ranks, zero bytes, or a fully
/// co-located placement where nothing crosses the fabric). Stripes that
/// would carry zero bytes (payload smaller than the stripe count) are
/// dropped from the front, never from the byte total.
pub fn stripe_plan(src_gpus: &[NodeId], dst_gpus: &[NodeId], bytes: u64) -> Vec<KvStripe> {
    stripes(src_gpus, dst_gpus, bytes).collect()
}

/// The Eq. 15 stripe rule behind [`stripe_plan`], without collecting:
/// one pass counts the fabric-crossing pairs, a second yields their
/// stripes. Rank `i`'s pair comes from cycling both rank lists, which is
/// `i % len` on each side without a division per rank.
fn stripes<'a>(
    src_gpus: &'a [NodeId],
    dst_gpus: &'a [NodeId],
    bytes: u64,
) -> impl Iterator<Item = KvStripe> + 'a {
    let n = if src_gpus.is_empty() || dst_gpus.is_empty() || bytes == 0 {
        0
    } else {
        src_gpus.len().max(dst_gpus.len())
    };
    let pairs = move || {
        let ranks = src_gpus.iter().cycle().zip(dst_gpus.iter().cycle());
        ranks.take(n).filter(|(src, dst)| src != dst)
    };
    let k = pairs().count() as u64;
    // With no pair left, the second pass yields nothing and the split is
    // never read; a lone stripe carries everything without a division.
    let (base, rem) = match k {
        0 | 1 => (bytes, 0),
        k => (bytes / k, bytes % k),
    };
    pairs()
        .enumerate()
        .map(move |(i, (&src, &dst))| KvStripe {
            src,
            dst,
            bytes: base + if i as u64 == k - 1 { rem } else { 0 },
        })
        .filter(|s| s.bytes > 0)
}

/// An [`AllPairs`]' shortest routes priced for KV shipments: pair
/// `(i, j)`'s links come from the table's flat route layout
/// ([`AllPairs::path_links`]), and each link's latency (seconds) and
/// capacity sit in per-link arrays, so an estimate walks plain slices
/// instead of `Path`s and `Link`s. Building one copies the per-link
/// arrays and shares the routes.
#[derive(Clone, Debug)]
pub struct KvRoutes {
    ap: AllPairs,
    latency_s: Vec<f64>,
    capacity_bps: Vec<f64>,
}

impl KvRoutes {
    /// Price `ap`'s routes over `g`'s links.
    pub fn new(g: &Graph, ap: &AllPairs) -> Self {
        KvRoutes {
            ap: ap.clone(),
            latency_s: g.links().map(|(_, l)| l.latency_ns as f64 * 1e-9).collect(),
            capacity_bps: g.links().map(|(_, l)| l.capacity_bps).collect(),
        }
    }

    /// Estimated completion time, seconds, of a striped KV-cache shipment
    /// from `src_gpus` to `dst_gpus`: the [`stripe_plan`] stripes run in
    /// parallel, so the shipment finishes with its slowest stripe. Each
    /// stripe costs `Σ bits / B(e) + latency(e)` over its route's links,
    /// summed in route order as `path_transfer_secs` does, with `B(e)`
    /// read from `avail`, the per-link residual bandwidth (bits/s), or
    /// the link's capacity when `avail` is `None`, floored at 1 bit/s.
    /// Stripes whose endpoints the table does not cover are skipped.
    /// Nothing is allocated.
    // Inlined into `HeroScheduler::choose_decode`'s candidate loop across
    // the crate boundary, so `avail` stays in registers per candidate.
    #[inline]
    pub fn estimate(
        &self,
        src_gpus: &[NodeId],
        dst_gpus: &[NodeId],
        bytes: u64,
        avail: Option<&[f64]>,
    ) -> f64 {
        stripes(src_gpus, dst_gpus, bytes)
            .filter_map(|s| Some((self.ap.path_links(s.src, s.dst)?, s.bytes as f64 * 8.0)))
            .map(|(route, bits)| {
                route.iter().fold(0.0, |t, &l| {
                    let l = l.idx();
                    let bw = avail.map_or(self.capacity_bps[l], |b| b[l]).max(1.0);
                    t + (bits / bw + self.latency_s[l])
                })
            })
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn bytes_are_conserved_across_stripes() {
        let src = nodes(&[0, 1, 2, 3]);
        let dst = nodes(&[10, 11, 12, 13]);
        let plan = stripe_plan(&src, &dst, 1_000_003);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), 1_000_003);
        // The integer-division remainder lands in the last stripe.
        assert_eq!(plan[0].bytes, 250_000);
        assert_eq!(plan[1].bytes, 250_000);
        assert_eq!(plan[2].bytes, 250_000);
        assert_eq!(plan[3].bytes, 250_003);
    }

    #[test]
    fn unequal_tp_widths_rotate_the_narrow_side() {
        let src = nodes(&[0, 1]);
        let dst = nodes(&[10, 11, 12, 13]);
        let plan = stripe_plan(&src, &dst, 400);
        assert_eq!(plan.len(), 4, "wider side sets the stripe count");
        let pairs: Vec<(NodeId, NodeId)> = plan.iter().map(|s| (s.src, s.dst)).collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), NodeId(10)),
                (NodeId(1), NodeId(11)),
                (NodeId(0), NodeId(12)),
                (NodeId(1), NodeId(13)),
            ]
        );
    }

    #[test]
    fn tiny_transfers_drop_zero_byte_stripes() {
        let src = nodes(&[0, 1, 2, 3]);
        let dst = nodes(&[10, 11, 12, 13]);
        let plan = stripe_plan(&src, &dst, 3);
        // base = 0, so only the remainder-carrying last stripe survives.
        assert_eq!(plan.len(), 1, "only stripes with bytes survive");
        assert_eq!(
            plan[0],
            KvStripe {
                src: NodeId(3),
                dst: NodeId(13),
                bytes: 3
            }
        );
    }

    #[test]
    fn degenerate_inputs_yield_empty_plans() {
        assert!(stripe_plan(&[], &nodes(&[1]), 100).is_empty());
        assert!(stripe_plan(&nodes(&[1]), &[], 100).is_empty());
        assert!(stripe_plan(&nodes(&[1]), &nodes(&[2]), 0).is_empty());
        // Self-pairs (co-located prefill/decode shards) carry no traffic.
        assert!(stripe_plan(&nodes(&[5]), &nodes(&[5]), 100).is_empty());
    }

    #[test]
    fn co_located_ranks_do_not_leak_bytes() {
        // Rank pair 1 is a self-pair (GPU 1 hosts both a prefill and a
        // decode shard); the payload must still arrive in full over the
        // stripes that cross the fabric.
        let src = nodes(&[0, 1, 2, 3]);
        let dst = nodes(&[10, 1, 12, 13]);
        let plan = stripe_plan(&src, &dst, 1_000);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), 1_000);
        assert_eq!(plan[2].bytes, 333 + 1, "remainder rides the last stripe");
    }

    #[test]
    fn kv_estimate_tracks_congestion_and_locality() {
        use hs_topology::builders::testbed;

        let t = testbed();
        let ap = t.gpu_ina_pairs();
        let src: Vec<NodeId> = t.gpus_by_server[0][..2].to_vec();
        let local: Vec<NodeId> = t.gpus_by_server[0][2..].to_vec();
        let remote: Vec<NodeId> = t.gpus_by_server[1][..2].to_vec();
        let bytes = 64 << 20;
        let routes = KvRoutes::new(&t.graph, &ap);
        let est = |dst: &[NodeId], avail: Option<&[f64]>| routes.estimate(&src, dst, bytes, avail);
        let est_local = est(&local, None);
        let est_remote = est(&remote, None);
        assert!(est_local > 0.0);
        assert!(
            est_local < est_remote,
            "NVLink-local shipment must beat Ethernet: {est_local} vs {est_remote}"
        );
        // Idle residual bandwidth is link capacity.
        let caps = t.graph.capacities();
        assert_eq!(est(&remote, Some(&caps)), est_remote);
        // Congesting the remote server's links inflates only that path.
        let mut hot = caps.clone();
        for (lid, link) in t.graph.links() {
            if t.gpus_by_server[1].contains(&link.a) || t.gpus_by_server[1].contains(&link.b) {
                hot[lid.idx()] *= 0.1;
            }
        }
        let est_remote_hot = est(&remote, Some(&hot));
        let est_local_hot = est(&local, Some(&hot));
        assert!(est_remote_hot > est_remote * 2.0);
        assert!((est_local_hot - est_local).abs() < 1e-12);
        // Degenerate shipment: nothing to move, zero estimate.
        assert_eq!(est(&src, None), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Σ stripe.bytes == payload for arbitrary rank counts, overlap,
        /// and payload sizes — unless *every* pair is co-located, in which
        /// case nothing crosses the fabric and the plan is empty.
        #[test]
        fn stripes_conserve_payload(
            src in proptest::collection::vec(0u32..24, 1..16),
            dst in proptest::collection::vec(0u32..24, 1..16),
            bytes in 1u64..1 << 33,
        ) {
            let src: Vec<NodeId> = src.into_iter().map(NodeId).collect();
            let dst: Vec<NodeId> = dst.into_iter().map(NodeId).collect();
            let n = src.len().max(dst.len());
            let all_self = (0..n).all(|i| src[i % src.len()] == dst[i % dst.len()]);
            let plan = stripe_plan(&src, &dst, bytes);
            if all_self {
                prop_assert!(plan.is_empty());
            } else {
                prop_assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), bytes);
                prop_assert!(plan.iter().all(|s| s.bytes > 0 && s.src != s.dst));
            }
        }

        /// The route table's estimate equals, bit for bit, the definition
        /// it replaced: the max over the collected stripe plan of each
        /// stripe's `path_transfer_secs` on the `AllPairs` route. TP widths
        /// 1–8 on either side, shared and self-paired GPUs, payloads below
        /// the stripe count, and idle or priced links (dead, saturated at
        /// the 1 % floor, partly used or idle) all agree.
        #[test]
        fn estimate_is_the_max_over_the_stripe_plan(
            src in proptest::collection::vec(0usize..16, 1..9),
            dst in proptest::collection::vec(0usize..16, 1..9),
            bytes in 0u64..1 << 33,
            tiny in 0u32..4,
            priced in 0u32..2,
            link_q in proptest::collection::vec((0u32..4, 0.0f64..1.0), 64),
        ) {
            use hs_collective::latency::path_transfer_secs;
            let t = hs_topology::builders::testbed();
            let ap = t.gpu_ina_pairs();
            let gpus = t.all_gpus();
            let src: Vec<NodeId> = src.into_iter().map(|i| gpus[i]).collect();
            let dst: Vec<NodeId> = dst.into_iter().map(|i| gpus[i]).collect();
            // A quarter of the payloads are smaller than the stripe count.
            let bytes = if tiny == 0 { bytes % 8 } else { bytes };
            let caps = t.graph.capacities();
            let avail: Vec<f64> = (0..caps.len())
                .map(|l| match link_q[l % 64] {
                    (0, _) => 0.0,
                    (1, _) => caps[l] * 0.01,
                    (2, u) => caps[l] * (1.0 - u),
                    _ => caps[l],
                })
                .collect();
            let avail = (priced == 1).then_some(avail.as_slice());
            let want = stripe_plan(&src, &dst, bytes)
                .iter()
                .filter(|s| ap.covers(s.src) && ap.covers(s.dst))
                .map(|s| path_transfer_secs(&t.graph, ap.path(s.src, s.dst), s.bytes, avail))
                .fold(0.0f64, f64::max);
            let got = KvRoutes::new(&t.graph, &ap).estimate(&src, &dst, bytes, avail);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
