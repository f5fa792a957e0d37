//! Fig. 1 — prefill cost breakdown: compute vs tensor-parallel all-reduce.
//!
//! Paper setup: LLaMA-3-70B, 4 GPUs (TP=4), batch 8 × 1024 input tokens,
//! NCCL ring all-reduce over 100 Gbps Ethernet, on L40 and A100. Paper
//! result: communication is > 65 % of prefill latency on L40 and > 75 %
//! on A100 (faster compute makes the fixed communication loom larger).
//!
//! We reproduce both points with the fitted Eq. 12 compute model and the
//! Eq. 11 ring model over a 4-GPU cross-server Ethernet group, plus the
//! NVLink contrast the paper's Fig. 2 motivates.

use hs_bench::ExpTable;
use hs_collective::ring_latency;
use hs_model::profile::fit;
use hs_model::{prefill_latency_secs, BatchStats, GpuModel, ModelConfig};
use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
use hs_topology::{AllPairs, LinkWeight, NodeId};
use serde_json::json;

/// A 4-GPU group, one GPU per server, all on one 100 G switch (the
/// cross-server TP deployment of Fig. 1), plus an NVLink same-server
/// variant for contrast.
fn four_gpu_fabric(nvlink: bool) -> (hs_topology::Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let mut gpus = Vec::new();
    if nvlink {
        for i in 0..4u8 {
            gpus.push(b.add_gpu(ServerId(0), i, GpuSpec::a100_40g()));
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_link(
                    gpus[i],
                    gpus[j],
                    LinkKind::NvLink,
                    bandwidth::NVLINK_A100,
                    300,
                );
            }
        }
    } else {
        let sw = b.add_access_switch(true, "sw");
        for s in 0..4u32 {
            let g = b.add_gpu(ServerId(s), 0, GpuSpec::a100_40g());
            b.add_link(g, sw, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            gpus.push(g);
        }
    }
    (b.build(), gpus)
}

fn main() {
    let model = ModelConfig::llama3_70b();
    let batch = BatchStats::uniform(8, 1024, 64);
    let tp = 4u32;
    // Total tensor-parallel ring volume per prefill pass: Eq. 11's step
    // volume summed over both sync points of every layer.
    let sync_bytes = model.sync_bytes_total(batch.k_in);

    let mut table = ExpTable::new(
        "fig1_prefill_breakdown",
        &[
            "setup",
            "T_compute (s)",
            "T_comm (s)",
            "comm share",
            "paper",
        ],
    );

    let cases: Vec<(&str, GpuModel, bool, &str)> = vec![
        (
            "L40 FP16/FP16 (Ethernet TP=4)",
            GpuModel::l40(),
            false,
            ">65% comm",
        ),
        (
            "A100 FP16/FP16 (Ethernet TP=4)",
            GpuModel::a100(),
            false,
            ">75% comm",
        ),
        (
            "A100 FP16/FP16 (NVLink TP=4)",
            GpuModel::a100(),
            true,
            "n/a (contrast)",
        ),
    ];

    for (name, gpu, nvlink, paper) in cases {
        let fitted = fit(&gpu, &model);
        let t_c = prefill_latency_secs(&fitted.coefficients, &model, &batch, tp);
        let (g, gpus) = four_gpu_fabric(nvlink);
        let ap = AllPairs::compute(&g, &gpus, LinkWeight::Latency, None);
        let t_n = ring_latency(&g, &gpus, &ap, sync_bytes, None);
        let share = t_n / (t_n + t_c);
        table.push(
            vec![
                name.to_string(),
                format!("{t_c:.3}"),
                format!("{t_n:.3}"),
                format!("{:.1}%", share * 100.0),
                paper.to_string(),
            ],
            json!({
                "setup": name,
                "t_compute_s": t_c,
                "t_comm_s": t_n,
                "comm_share": share,
                "paper_claim": paper,
            }),
        );
    }
    table.finish();
    println!(
        "shape check: Ethernet comm share must exceed ~60% and A100 > L40; \
         NVLink share must collapse to a few percent."
    );
}
