//! Prefill/decode instance specifications and runtime state.

use crate::autoscale::PoolState;
use hs_des::SimTime;
use hs_model::BatchStats;
use hs_topology::NodeId;
use hs_workload::RequestId;

/// Whether an instance serves the prefill or the decode phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceKind {
    /// Compute-bound prompt processing.
    Prefill,
    /// Memory-bound token generation.
    Decode,
}

/// Static placement of one model replica: `stages[s]` is the
/// tensor-parallel GPU group of pipeline stage `s`. `P_pipe =
/// stages.len()`, `P_tens = stages[0].len()`.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceSpec {
    /// Pipeline stages, each a tensor-parallel group.
    pub stages: Vec<Vec<NodeId>>,
}

impl InstanceSpec {
    /// A single-stage (pure tensor parallel) spec.
    pub fn tensor_parallel(gpus: Vec<NodeId>) -> Self {
        InstanceSpec { stages: vec![gpus] }
    }

    /// Tensor-parallel degree.
    pub fn p_tens(&self) -> u32 {
        self.stages.first().map(|s| s.len()).unwrap_or(0) as u32
    }

    /// Pipeline-parallel degree.
    pub fn p_pipe(&self) -> u32 {
        self.stages.len() as u32
    }

    /// Total GPUs.
    pub fn gpu_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// All GPUs, stage-major.
    pub fn all_gpus(&self) -> Vec<NodeId> {
        self.stages.iter().flatten().copied().collect()
    }

    /// Validate: non-empty, rectangular stages.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() || self.stages[0].is_empty() {
            return Err("instance needs at least one GPU".into());
        }
        let tp = self.stages[0].len();
        if self.stages.iter().any(|s| s.len() != tp) {
            return Err("ragged pipeline stages".into());
        }
        let all = self.all_gpus();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != all.len() {
            return Err("GPU assigned twice within an instance".into());
        }
        Ok(())
    }
}

/// What an instance is doing right now.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstPhase {
    /// Nothing in flight.
    Idle,
    /// Compute timer pending for the current iteration.
    Computing,
    /// Waiting on `outstanding` collective executions.
    Communicating {
        /// Collectives still running for this iteration.
        outstanding: usize,
    },
}

/// Runtime state of one instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Placement.
    pub spec: InstanceSpec,
    /// `spec`'s GPUs, stage-major: the KV stripe endpoints, flattened
    /// once.
    gpus: Vec<NodeId>,
    /// Role.
    pub kind: InstanceKind,
    /// Current phase.
    pub phase: InstPhase,
    /// Prefill: requests in the in-flight batch.
    pub batch: Vec<RequestId>,
    /// Decode: live requests (continuous batching set).
    pub active: Vec<RequestId>,
    /// Decode: requests admitted whose KV landed mid-iteration; joined at
    /// the next iteration boundary.
    pub joining: Vec<RequestId>,
    /// Decode: the Eq. 13 statistics of `active`, kept current by exact
    /// integer updates as requests join, grow a token and complete.
    pub(crate) decode_stats: BatchStats,
    /// Elasticity state (autoscaling; see [`crate::autoscale`]).
    pub state: PoolState,
    /// When this instance last became occupied (GPU-hours clock).
    /// `Some` while Active or Draining, `None` while Parked.
    pub occupied_since: Option<SimTime>,
    /// Accumulated occupied GPU-seconds (`gpu_count × occupied wall
    /// time`) over completed occupancy intervals; the open interval is
    /// flushed at park time and at the report horizon.
    pub gpu_seconds: f64,
}

impl Instance {
    /// Fresh idle instance, Active from `t = 0`.
    pub fn new(spec: InstanceSpec, kind: InstanceKind) -> Self {
        debug_assert!(spec.validate().is_ok());
        Instance {
            gpus: spec.all_gpus(),
            spec,
            kind,
            phase: InstPhase::Idle,
            batch: Vec::new(),
            active: Vec::new(),
            joining: Vec::new(),
            decode_stats: BatchStats::default(),
            state: PoolState::Active,
            occupied_since: Some(SimTime::ZERO),
            gpu_seconds: 0.0,
        }
    }

    /// All GPUs, stage-major (`spec.all_gpus()`, without the allocation).
    pub(crate) fn gpus(&self) -> &[NodeId] {
        &self.gpus
    }

    /// Decode load in live requests (for least-loaded dispatch).
    pub fn decode_load(&self) -> usize {
        self.active.len() + self.joining.len()
    }

    /// Close the open occupancy interval at `now`, adding it to
    /// [`Instance::gpu_seconds`]. Idempotent once parked.
    pub fn flush_gpu_seconds(&mut self, now: SimTime) {
        if let Some(since) = self.occupied_since.take() {
            self.gpu_seconds +=
                self.spec.gpu_count() as f64 * now.saturating_since(since).as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn spec_degrees() {
        let s = InstanceSpec {
            stages: vec![vec![n(0), n(1)], vec![n(2), n(3)]],
        };
        assert_eq!(s.p_tens(), 2);
        assert_eq!(s.p_pipe(), 2);
        assert_eq!(s.gpu_count(), 4);
        assert_eq!(s.all_gpus(), vec![n(0), n(1), n(2), n(3)]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(InstanceSpec { stages: vec![] }.validate().is_err());
        assert!(InstanceSpec {
            stages: vec![vec![n(0)], vec![n(1), n(2)]]
        }
        .validate()
        .is_err());
        assert!(InstanceSpec {
            stages: vec![vec![n(0), n(0)]]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn tensor_parallel_helper() {
        let s = InstanceSpec::tensor_parallel(vec![n(5), n(6), n(7)]);
        assert_eq!(s.p_tens(), 3);
        assert_eq!(s.p_pipe(), 1);
    }
}
