//! The planner's input and output records (Tables I and II).

use hs_cluster::InstanceSpec;
use hs_collective::latency::by_server;
use hs_collective::Scheme;
use hs_model::{BatchStats, CostCoefficients, ModelConfig};
use hs_topology::{AllPairs, Graph, LinkWeight, NodeId};

/// Reserved-memory ratio `R_frac` in `(0, 1]` (Table I): a shard needs
/// `R / (P_tens·P_pipe·R_frac)` bytes free on its GPU.
pub const R_FRAC: f64 = 0.9;

/// Seed for the planner's perturbation RNG.
pub const PLANNER_SEED: u64 = 0xC0FFEE;

/// Local-search budget: perturbation passes per candidate (Algorithm 2
/// step 4). A deterministic work-unit budget — the paper's "time budget"
/// expressed in evaluation passes so identical inputs always explore
/// identical search frontiers regardless of machine speed.
pub const PERTURB_BUDGET: usize = 10;

/// Table I — everything the offline planner consumes.
#[derive(Clone)]
pub struct PlannerInput {
    /// Model shape (`L, h, A, m, R`).
    pub model: ModelConfig,
    /// Fitted compute coefficients `C1…C6`.
    pub coef: CostCoefficients,
    /// Expected batch statistics (`Q, K_in, K_out, K_in2`), maintained by
    /// the online side with moving averages.
    pub batch: BatchStats,
    /// The fabric `G = <V, E>`. The input's routes
    /// ([`PlannerInput::all_pairs`]) are computed over it when the input
    /// is built; an input for another fabric is built anew.
    pub graph: Graph,
    /// Candidate prefill GPUs `V_g^p`.
    pub prefill_gpus: Vec<NodeId>,
    /// Candidate decode GPUs `V_g^d`.
    pub decode_gpus: Vec<NodeId>,
    /// Request arrival rate `λ`, req/s.
    pub arrival_rate: f64,
    /// TTFT SLA `T_sla^pre`, seconds.
    pub ttft_sla_s: f64,
    /// TPOT SLA `T_sla^dec`, seconds.
    pub tpot_sla_s: f64,
    /// Candidate-configuration cap (`max_candi`; 20 in the paper).
    pub max_candi: usize,
    /// Pin the prefill cluster to one `(P_tens, P_pipe)` (controlled
    /// experiments where all systems must share the paper's deployment;
    /// `None` = free search).
    pub force_prefill_parallelism: Option<(u32, u32)>,
    /// Pin the decode cluster's `(P_tens, P_pipe)`.
    pub force_decode_parallelism: Option<(u32, u32)>,
    /// Algorithm 2's offline matrices `D(i,j)` and `P(k,a)` over the
    /// graph's GPUs and INA switches, computed once here and shared by
    /// every plan, deployment and run over this input.
    ap: AllPairs,
}

impl PlannerInput {
    /// Like [`PlannerInput::basic`] but with the paper's *interleaved*
    /// allocation (Fig. 4): each server contributes its first half of
    /// GPUs to the prefill cluster and the second half to the decode
    /// cluster. Tensor groups larger than half a server must then span
    /// servers — the cross-server regime (§II-B) the paper studies.
    pub fn interleaved(
        graph: &Graph,
        model: ModelConfig,
        coef: CostCoefficients,
        batch: BatchStats,
        arrival_rate: f64,
        ttft_sla_s: f64,
        tpot_sla_s: f64,
    ) -> Self {
        let mut input = Self::basic(
            graph,
            model,
            coef,
            batch,
            arrival_rate,
            ttft_sla_s,
            tpot_sla_s,
        );
        let mut prefill = Vec::new();
        let mut decode = Vec::new();
        for (_, gpus) in by_server(graph, &graph.gpus()) {
            let half = gpus.len() / 2;
            prefill.extend(&gpus[..half]);
            decode.extend(&gpus[half..]);
        }
        input.prefill_gpus = prefill;
        input.decode_gpus = decode;
        input
    }

    /// A default-shaped input for `graph` splitting GPUs evenly between
    /// prefill and decode.
    pub fn basic(
        graph: &Graph,
        model: ModelConfig,
        coef: CostCoefficients,
        batch: BatchStats,
        arrival_rate: f64,
        ttft_sla_s: f64,
        tpot_sla_s: f64,
    ) -> Self {
        let gpus = graph.gpus();
        let half = gpus.len() / 2;
        let nodes = graph.gpus_and_ina_switches();
        PlannerInput {
            model,
            coef,
            batch,
            prefill_gpus: gpus[..half].to_vec(),
            decode_gpus: gpus[half..].to_vec(),
            graph: graph.clone(),
            arrival_rate,
            ttft_sla_s,
            tpot_sla_s,
            max_candi: 20,
            force_prefill_parallelism: None,
            force_decode_parallelism: None,
            ap: AllPairs::compute(graph, &nodes, LinkWeight::Latency, None),
        }
    }

    /// The minimum-latency routes among the graph's GPUs and INA
    /// switches (the node set of `BuiltTopology::gpu_ina_pairs`); a clone
    /// shares them.
    pub fn all_pairs(&self) -> &AllPairs {
        &self.ap
    }
}

/// One tensor-parallel group's communication assignment (`α`/`β` plus its
/// aggregation switch `V_ina` and implied paths `P(k,a)`).
#[derive(Clone, Debug)]
pub struct GroupScheme {
    /// The group's GPUs.
    pub group: Vec<NodeId>,
    /// Chosen scheme (INA with switch, or ring; hierarchical variants for
    /// HeroServe's scheme space).
    pub scheme: Scheme,
    /// Estimated per-iteration communication latency, seconds.
    pub latency_s: f64,
}

/// The plan for one cluster (prefill or decode).
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// Tensor-parallel degree.
    pub p_tens: u32,
    /// Pipeline-parallel degree.
    pub p_pipe: u32,
    /// Model replicas (each `p_pipe` stages × `p_tens` GPUs) — `K_g`.
    pub instances: Vec<InstanceSpec>,
    /// Per tensor group (replica-stage order) communication assignment.
    pub group_schemes: Vec<GroupScheme>,
    /// Estimated per-iteration network latency `T_n`, seconds.
    pub est_network_s: f64,
    /// Estimated per-iteration compute latency `T_c`, seconds.
    pub est_compute_s: f64,
}

impl ClusterPlan {
    /// GPUs used across all replicas.
    pub fn gpu_count(&self) -> usize {
        self.instances.iter().map(|i| i.gpu_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::builders::testbed;

    #[test]
    fn basic_input_splits_gpus() {
        let t = testbed();
        let input = PlannerInput::basic(
            &t.graph,
            ModelConfig::opt_13b(),
            CostCoefficients::default(),
            BatchStats::uniform(8, 256, 64),
            1.0,
            2.5,
            0.15,
        );
        assert_eq!(input.prefill_gpus.len(), 8);
        assert_eq!(input.decode_gpus.len(), 8);
        assert_eq!(input.max_candi, 20);
    }
}
