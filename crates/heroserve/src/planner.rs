//! Algorithm 1 — the scalability-oriented offline planner.
//!
//! Pipeline (§III-C3):
//!
//! 1. **Determine the minimum GPUs / generate candidates** — from the
//!    model size `R`, per-GPU free memory and the reserve ratio
//!    `R_frac`, enumerate `(P_tens, P_pipe)` combinations (up to
//!    `max_candi`; the paper finds 20 near-optimal).
//! 2. **Estimate overheads** — prefill and decode clusters are evaluated
//!    (the paper runs them in two threads; here they run one after the
//!    other, prefill first): each candidate is memory-filtered
//!    (`m_req = R/(P_tens·P_pipe·R_frac)`), grouped and priced by
//!    Algorithm 2 ([`crate::netest`]), and costed with Eqs. 12–13.
//! 3. **Select the optimal configuration** — the feasible combination
//!    (TTFT and TPOT SLAs met) maximizing scalability `H`.
//!
//! Scalability here is the system's sustainable request rate
//! `H = min(prefill capacity, decode capacity)` with queueing priced by
//! Pollaczek–Khinchine — a capacity-form of the paper's `H = 1/T_req`
//! (documented in EXPERIMENTS.md; at the knee `1/T_req` and capacity
//! coincide).

pub use crate::netest::SchemeSpace;
use crate::netest::{estimate_network_latency, NetEstimate, NetestInput};
use crate::queueing::pk_queue_delay;
use crate::spec::{ClusterPlan, PlannerInput};
use hs_cluster::InstanceSpec;
use hs_collective::latency::path_transfer_secs;
use hs_des::SeedSplitter;
use hs_model::{decode_latency_secs, prefill_latency_secs, MemoryModel};
use hs_topology::{AllPairs, LinkWeight, NodeId};

/// Planner failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannerError {
    /// No `(P_tens, P_pipe)` combination fits the memory constraints.
    NotEnoughGpus,
    /// Configurations exist but none meets both SLAs at the given rate.
    NoFeasibleConfig,
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::NotEnoughGpus => write!(f, "model does not fit on the candidate GPUs"),
            PlannerError::NoFeasibleConfig => {
                write!(f, "no parallelism configuration meets the latency SLAs")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// Solve diagnostics (planner-cost experiments).
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Candidate `(P_tens, P_pipe)` pairs examined per cluster.
    pub candidates_examined: usize,
    /// Candidates that survived memory filtering.
    pub memory_feasible: usize,
    /// Combinations meeting both SLAs.
    pub sla_feasible: usize,
    /// Worst perturbation iteration count seen (paper: ≤ 5 typical).
    pub max_perturb_iters: usize,
    /// Group-latency evaluations across all candidates — the
    /// deterministic work measure the search budget is expressed in.
    pub lat_evals: usize,
    /// Wall-clock seconds spent planning. Reporting only: nothing reads
    /// it back, and plan output is identical whatever it says. `None`
    /// when the embedding disables wall-clock sampling.
    pub elapsed_s: Option<f64>,
}

/// The planner's decision (Table II).
#[derive(Clone, Debug)]
pub struct PlannerOutput {
    /// Prefill cluster plan.
    pub prefill: ClusterPlan,
    /// Decode cluster plan.
    pub decode: ClusterPlan,
    /// Estimated KV transfer latency `T_f`, seconds.
    pub est_t_f_s: f64,
    /// Estimated TTFT `T_pre = T_n^pre + T_c^pre` (Eq. 3), seconds.
    pub est_ttft_s: f64,
    /// Estimated TPOT `T_dec = T_n^dec + T_c^dec + T_f` (Eq. 4), seconds.
    pub est_tpot_s: f64,
    /// Estimated scalability `H` (sustainable req/s).
    pub est_h_rps: f64,
    /// Estimated queueing delay at the input arrival rate, seconds.
    pub est_queue_s: f64,
    /// Diagnostics.
    pub stats: SolveStats,
}

/// One evaluated per-cluster candidate.
#[derive(Clone, Debug)]
struct Candidate {
    p_tens: u32,
    p_pipe: u32,
    replicas: usize,
    net: NetEstimate,
    t_c: f64,
    t_n: f64,
}

/// Enumerate `(P_tens, P_pipe)` candidates for one cluster, memory-first
/// (Algorithm 1 step 1). Returns pairs with the eligible GPU lists.
fn gen_tp_pp_candidates(
    input: &PlannerInput,
    gpus: &[NodeId],
    force: Option<(u32, u32)>,
) -> Vec<(u32, u32, Vec<NodeId>)> {
    let mut out = Vec::new();
    let n = gpus.len() as u32;
    for p_tens in [1u32, 2, 4, 8] {
        if p_tens > n {
            break;
        }
        for p_pipe in 1u32..=4 {
            if p_tens * p_pipe > n {
                break;
            }
            if let Some((ft, fp)) = force {
                if p_tens != ft || p_pipe != fp {
                    continue;
                }
            }
            let m_req = MemoryModel::required_bytes(&input.model, p_tens, p_pipe, input.r_frac);
            let eligible: Vec<NodeId> = gpus
                .iter()
                .filter(|g| input.gpu_free_memory.get(g).copied().unwrap_or(0) >= m_req)
                .copied()
                .collect();
            if (eligible.len() as u32) < p_tens * p_pipe {
                continue; // Algorithm 1 lines 7-8 / 14-15
            }
            out.push((p_tens, p_pipe, eligible));
        }
    }
    // Prefer fewer GPUs per replica (more replicas), then higher TP
    // (lower latency) — then cap at max_candi.
    out.sort_by_key(|(pt, pp, _)| (pt * pp, u32::MAX - pt));
    out.truncate(input.max_candi);
    out
}

/// Evaluate every candidate for one cluster (prefill or decode), in
/// candidate order — the work of one of Algorithm 1's two per-cluster
/// threads.
#[allow(clippy::too_many_arguments)]
fn evaluate_cluster(
    input: &PlannerInput,
    ap: &AllPairs,
    gpus: &[NodeId],
    ina_switches: &[NodeId],
    space: SchemeSpace,
    is_prefill: bool,
    seeds: &SeedSplitter,
) -> (Vec<Candidate>, usize) {
    let force = if is_prefill {
        input.force_prefill_parallelism
    } else {
        input.force_decode_parallelism
    };
    let candidates = gen_tp_pp_candidates(input, gpus, force);
    let examined = candidates.len();
    let evaluated: Vec<Candidate> = candidates
        .into_iter()
        .enumerate()
        .map(|(ci, (p_tens, p_pipe, eligible))| {
            let per_replica = (p_tens * p_pipe) as usize;
            let replicas = eligible.len() / per_replica;
            let n_groups = replicas * p_pipe as usize;
            let tokens = if is_prefill {
                input.batch.k_in
            } else {
                input.batch.q as u64
            };
            let sync_bytes = input.model.sync_bytes_total(tokens) / p_pipe.max(1) as u64;
            let pipe_bytes = tokens * input.model.hidden as u64 * input.model.precision.bytes();
            let mut rng =
                seeds.indexed_stream(if is_prefill { "prefill" } else { "decode" }, ci as u64);
            let net = estimate_network_latency(
                &NetestInput {
                    graph: &input.graph,
                    ap,
                    avail: &input.avail_bandwidth,
                    gpus: &eligible,
                    n_groups,
                    group_size: p_tens as usize,
                    p_pipe: p_pipe as usize,
                    sync_bytes,
                    pipe_bytes,
                    scheme_space: space,
                    ina_switches,
                    max_perturb_iters: input.perturb_budget,
                },
                &mut rng,
            );
            let t_c = if is_prefill {
                prefill_latency_secs(&input.coef, &input.model, &input.batch, p_tens)
            } else {
                decode_latency_secs(&input.coef, &input.model, &input.batch, p_tens, p_pipe)
            };
            Candidate {
                p_tens,
                p_pipe,
                replicas,
                t_n: net.t_n,
                net,
                t_c,
            }
        })
        .collect();
    (evaluated, examined)
}

/// Estimated KV-cache transfer latency `T_f` (Eqs. 14–15): prefill
/// replica GPUs stream their shards to positionally paired decode GPUs;
/// the slowest pair bounds the transfer.
fn estimate_t_f(input: &PlannerInput, ap: &AllPairs, pre: &Candidate, dec: &Candidate) -> f64 {
    let (Some(pg), Some(dg)) = (pre.net.groups.first(), dec.net.groups.first()) else {
        return 0.0;
    };
    let mean_input = if input.batch.q > 0 {
        input.batch.k_in / input.batch.q as u64
    } else {
        input.batch.k_in
    };
    let kv_total = mean_input * input.model.kv_bytes_per_token();
    let pairs = pg.len().max(1) as u64;
    let shard = kv_total / pairs;
    pg.iter()
        .enumerate()
        .map(|(i, &k)| {
            let z = dg[i % dg.len()];
            path_transfer_secs(
                &input.graph,
                ap.path(k, z),
                shard,
                Some(&input.avail_bandwidth),
            )
        })
        .fold(0.0f64, f64::max)
}

fn to_plan(c: &Candidate) -> ClusterPlan {
    let p_pipe = c.p_pipe as usize;
    let instances = (0..c.replicas)
        .map(|r| InstanceSpec {
            stages: c.net.groups[r * p_pipe..(r + 1) * p_pipe].to_vec(),
        })
        .collect();
    ClusterPlan {
        p_tens: c.p_tens,
        p_pipe: c.p_pipe,
        instances,
        group_schemes: c.net.schemes.clone(),
        est_network_s: c.t_n,
        est_compute_s: c.t_c,
    }
}

/// Run the offline planner over `input`, restricted to `space` (HeroServe
/// uses [`SchemeSpace::Hybrid`]; the baselines use the others — §V).
pub fn plan(input: &PlannerInput, space: SchemeSpace) -> Result<PlannerOutput, PlannerError> {
    // The search budget is `input.perturb_budget` (deterministic work
    // units); wall-clock is sampled only to fill the reporting field.
    // simlint::allow(wall-clock, reporting-only elapsed_s; never feeds budgets or plan output)
    let start = std::time::Instant::now();
    let seeds = SeedSplitter::new(input.seed);

    // Offline matrices (Algorithm 2 lines 1-3), computed once over GPUs +
    // INA switches; "scheduled asynchronously" in the paper — here simply
    // first, then shared by every candidate evaluation.
    let ina_switches = input.graph.ina_switches();
    let mut nodes: Vec<NodeId> = input
        .prefill_gpus
        .iter()
        .chain(input.decode_gpus.iter())
        .copied()
        .collect();
    nodes.extend(&ina_switches);
    nodes.sort_unstable();
    nodes.dedup();
    let ap = AllPairs::compute(&input.graph, &nodes, LinkWeight::Latency, None);

    // The paper's two cluster threads, run one after the other.
    let (pre_cands, pre_examined) = evaluate_cluster(
        input,
        &ap,
        &input.prefill_gpus,
        &ina_switches,
        space,
        true,
        &seeds,
    );
    let (dec_cands, dec_examined) = evaluate_cluster(
        input,
        &ap,
        &input.decode_gpus,
        &ina_switches,
        space,
        false,
        &seeds,
    );
    if pre_cands.is_empty() || dec_cands.is_empty() {
        return Err(PlannerError::NotEnoughGpus);
    }

    let q = input.batch.q.max(1) as f64;
    let mean_out = if input.batch.q > 0 {
        (input.batch.k_out as f64 / q).max(1.0)
    } else {
        input.batch.k_out.max(1) as f64
    };

    let mut best: Option<(f64, &Candidate, &Candidate, f64, f64, f64, f64)> = None;
    let mut sla_feasible = 0usize;
    for pre in &pre_cands {
        let t_pre = pre.t_c + pre.t_n; // Eq. 3
        if t_pre > input.ttft_sla_s {
            continue;
        }
        for dec in &dec_cands {
            let t_f = estimate_t_f(input, &ap, pre, dec);
            // Eq. 4 with T_f amortized over the request's output tokens:
            // the KV cache transfers once per request, not once per token,
            // so its per-token contribution is T_f / K_out — the form
            // under which long-prompt (LongBench) workloads remain
            // feasible, matching the paper's testbed behaviour. The
            // measured TPOT in `hs-cluster` uses the same accounting.
            let t_dec = dec.t_c + dec.t_n + t_f / mean_out;
            if t_dec > input.tpot_sla_s {
                continue;
            }
            sla_feasible += 1;
            // Capacity: prefill serves Q requests per iteration; decode
            // produces Q tokens per iteration and a request needs
            // mean_out of them.
            let prefill_rate = pre.replicas as f64 * q / t_pre.max(1e-9);
            let decode_rate = dec.replicas as f64 * q / ((dec.t_c + dec.t_n).max(1e-9) * mean_out);
            let h = prefill_rate.min(decode_rate);
            if best.as_ref().map(|(bh, ..)| h > *bh).unwrap_or(true) {
                best = Some((
                    h,
                    pre,
                    dec,
                    t_f,
                    t_pre,
                    t_dec,
                    prefill_rate.min(decode_rate),
                ));
            }
        }
    }

    let max_perturb = pre_cands
        .iter()
        .chain(dec_cands.iter())
        .map(|c| c.net.perturb_iters)
        .max()
        .unwrap_or(0);
    let lat_evals = pre_cands
        .iter()
        .chain(dec_cands.iter())
        .map(|c| c.net.lat_evals)
        .sum();
    let stats = SolveStats {
        candidates_examined: pre_examined + dec_examined,
        memory_feasible: pre_cands.len() + dec_cands.len(),
        sla_feasible,
        max_perturb_iters: max_perturb,
        lat_evals,
        elapsed_s: Some(start.elapsed().as_secs_f64()),
    };

    let Some((h, pre, dec, t_f, t_pre, t_dec, _)) = best else {
        return Err(PlannerError::NoFeasibleConfig);
    };
    // Queueing at the offered rate (utilization against capacity H).
    let service = 1.0 / h.max(1e-9);
    let queue = pk_queue_delay(input.arrival_rate, service);
    Ok(PlannerOutput {
        prefill: to_plan(pre),
        decode: to_plan(dec),
        est_t_f_s: t_f,
        est_ttft_s: t_pre,
        est_tpot_s: t_dec,
        est_h_rps: h,
        est_queue_s: queue,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_model::profile::{fit, ProfileGrid};
    use hs_model::{BatchStats, GpuModel, ModelConfig};
    use hs_topology::builders::testbed;

    fn input(model: ModelConfig, rate: f64) -> PlannerInput {
        let t = testbed();
        let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
        PlannerInput::basic(
            &t.graph,
            model,
            fitted.coefficients,
            BatchStats::uniform(8, 256, 64),
            rate,
            2.5,
            0.15,
        )
    }

    #[test]
    fn plans_opt_13b_on_testbed() {
        let inp = input(ModelConfig::opt_13b(), 2.0);
        let out = plan(&inp, SchemeSpace::Hybrid).expect("feasible");
        assert!(out.prefill.p_tens >= 1);
        assert!(out.prefill.gpu_count() <= 8);
        assert!(out.decode.gpu_count() <= 8);
        assert!(!out.prefill.instances.is_empty());
        assert!(!out.decode.instances.is_empty());
        assert!(out.est_ttft_s <= 2.5);
        assert!(out.est_tpot_s <= 0.15);
        assert!(out.est_h_rps > 0.0);
        assert!(out.stats.candidates_examined > 0);
        // Every instance spec is structurally valid.
        for i in out.prefill.instances.iter().chain(&out.decode.instances) {
            assert!(i.validate().is_ok());
        }
    }

    #[test]
    fn hybrid_beats_or_matches_ring_only() {
        let inp = input(ModelConfig::opt_13b(), 2.0);
        let hybrid = plan(&inp, SchemeSpace::Hybrid).expect("hybrid feasible");
        let ring = plan(&inp, SchemeSpace::RingOnly).expect("ring feasible");
        assert!(
            hybrid.est_h_rps >= ring.est_h_rps * 0.999,
            "hybrid {} < ring {}",
            hybrid.est_h_rps,
            ring.est_h_rps
        );
        // And lower (or equal) estimated TTFT.
        assert!(hybrid.est_ttft_s <= ring.est_ttft_s + 1e-9);
    }

    #[test]
    fn oversized_model_fails_cleanly() {
        // OPT-175B cannot fit on 8x40GB with r_frac 0.9 at max 8x4 ways.
        let inp = input(ModelConfig::opt_175b(), 1.0);
        assert_eq!(
            plan(&inp, SchemeSpace::Hybrid).err(),
            Some(PlannerError::NotEnoughGpus)
        );
    }

    #[test]
    fn strict_sla_fails_cleanly() {
        let mut inp = input(ModelConfig::opt_13b(), 1.0);
        inp.ttft_sla_s = 1e-6;
        assert_eq!(
            plan(&inp, SchemeSpace::Hybrid).err(),
            Some(PlannerError::NoFeasibleConfig)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let inp = input(ModelConfig::opt_13b(), 2.0);
        let a = plan(&inp, SchemeSpace::Hybrid).unwrap();
        let b = plan(&inp, SchemeSpace::Hybrid).unwrap();
        assert_eq!(a.est_h_rps, b.est_h_rps);
        assert_eq!(a.prefill.instances, b.prefill.instances);
        assert_eq!(a.decode.instances, b.decode.instances);
    }

    #[test]
    fn max_candi_one_is_worse_or_equal() {
        let inp20 = input(ModelConfig::opt_13b(), 2.0);
        let mut inp1 = inp20.clone();
        inp1.max_candi = 1;
        let h20 = plan(&inp20, SchemeSpace::Hybrid).unwrap().est_h_rps;
        let h1 = plan(&inp1, SchemeSpace::Hybrid)
            .map(|o| o.est_h_rps)
            .unwrap_or(0.0);
        assert!(h20 >= h1 * 0.999, "h20 {h20} < h1 {h1}");
    }
}
