//! The resource orchestrator (§3, §4).
//!
//! Executes the inference scheduler's instructions: moves idle inference
//! servers onto the training whitelist when loaning, and picks which
//! servers to hand back when reclaiming. Reclaiming is two-phase per the
//! paper's key insight:
//!
//! 1. **Flexible-group release** — on-loan servers hosting only flexible
//!    workers are vacated by scaling the affected elastic jobs *in*,
//!    which preempts nobody (§5.3; the paper measures this alone
//!    satisfies 53.5 % of reclaiming demand on average in Basic).
//! 2. **Cost-guided preemption** — remaining demand falls to §4's greedy
//!    heuristic over server preemption costs (or the Random / SCF /
//!    exhaustive-optimal comparators of §7.3).

use crate::state::{ClusterError, ClusterState};
use lyra_core::job::JobId;
use lyra_core::reclaim::{
    reclaim_exhaustive_optimal, reclaim_random, reclaim_scf, reclaim_servers, CostModel,
    ReclaimEngine, ReclaimOutcome,
};
use lyra_core::snapshot::ServerId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which server-selection policy reclaiming uses (§7.3's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReclaimPolicy {
    /// Lyra's server-fraction preemption-cost heuristic.
    Lyra,
    /// The inferior GPU-fraction cost variant (Table 1's ablation).
    GpuFraction,
    /// Uniformly random server selection.
    Random,
    /// Smallest-job-count-first.
    Scf,
    /// Exhaustive optimal (falls back to Lyra's heuristic above
    /// [`Orchestrator::OPTIMAL_JOB_LIMIT`] distinct jobs).
    Optimal,
}

/// What the orchestrator did at a tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OrchestratorDecision {
    /// Servers newly loaned to training.
    Loaned(Vec<ServerId>),
    /// Servers returned to inference.
    Reclaimed {
        /// Elastic scale-ins applied during flexible-group release:
        /// `(job, server, gpus freed there)`.
        flex_releases: Vec<(JobId, ServerId, u32)>,
        /// Servers returned by scaling elastic jobs in (the flexible
        /// server group of §5.3).
        returned_flex: Vec<ServerId>,
        /// Servers that were already idle and returned for free.
        returned_idle: Vec<ServerId>,
        /// The preemption phase's outcome (empty `preempted` when the
        /// flexible phase sufficed).
        outcome: ReclaimOutcome,
    },
    /// Nothing to do.
    Hold,
}

impl OrchestratorDecision {
    /// Total servers returned by this decision.
    pub fn servers_returned(&self) -> usize {
        match self {
            OrchestratorDecision::Reclaimed {
                returned_flex,
                returned_idle,
                outcome,
                ..
            } => returned_flex.len() + returned_idle.len() + outcome.returned.len(),
            _ => 0,
        }
    }
}

/// The orchestrator.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    /// Reclaiming policy.
    pub policy: ReclaimPolicy,
    /// Tick interval in seconds (the paper: every five minutes).
    pub interval_s: f64,
    rng: StdRng,
    /// Runs every cost-model reclaim (`Lyra`, `GpuFraction`).
    engine: ReclaimEngine,
}

impl Orchestrator {
    /// Above this many distinct jobs the `Optimal` policy falls back to
    /// the heuristic (the exhaustive search is exponential; §7.3 reports
    /// its running time at ~420,000× Lyra's).
    pub const OPTIMAL_JOB_LIMIT: usize = 16;

    /// Creates an orchestrator with a seeded RNG (used by `Random`).
    pub fn new(policy: ReclaimPolicy, seed: u64) -> Self {
        Orchestrator {
            policy,
            interval_s: 300.0,
            rng: StdRng::seed_from_u64(seed),
            engine: ReclaimEngine::new(),
        }
    }

    /// Raw RNG state, for checkpointing.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores the RNG to a previously captured state so `Random`
    /// reclaims resume the identical draw sequence.
    pub fn restore_rng_state(&mut self, state: u64) {
        self.rng = StdRng::seed_from_u64(state);
    }

    /// Executes a loan of up to `n` servers (bounded by idle inference
    /// servers — the instruction says how many are *available*).
    pub fn execute_loan(
        &mut self,
        state: &mut ClusterState,
        n: u32,
    ) -> Result<OrchestratorDecision, ClusterError> {
        if n == 0 {
            return Ok(OrchestratorDecision::Hold);
        }
        let _timing = lyra_obs::span::span("cluster.loan");
        let loaned = state.loan(n)?;
        Ok(OrchestratorDecision::Loaned(loaned))
    }

    /// Executes a reclaim of `n` servers: flexible-group release first,
    /// then the configured preemption policy.
    ///
    /// Cluster occupancy is updated (scale-in releases and evictions);
    /// the caller must mirror the worker-count changes onto its job
    /// bookkeeping from the returned decision.
    pub fn execute_reclaim(
        &mut self,
        state: &mut ClusterState,
        n: u32,
    ) -> Result<OrchestratorDecision, ClusterError> {
        if n == 0 {
            return Ok(OrchestratorDecision::Hold);
        }
        let _timing = lyra_obs::span::span("cluster.reclaim");
        let mut remaining = n as usize;
        let mut flex_releases: Vec<(JobId, ServerId, u32)> = Vec::new();
        let mut returned_flex: Vec<ServerId> = Vec::new();
        let mut returned_idle: Vec<ServerId> = Vec::new();

        // Phase 0: already-idle loaned servers are free to return.
        for sid in state.loaned_ids() {
            if remaining == 0 {
                break;
            }
            if state.server(sid).is_some_and(|s| s.is_empty()) {
                returned_idle.push(sid);
                remaining -= 1;
            }
        }
        // Phase 1: release whole flexible-group servers, fewest GPUs
        // lost first.
        let mut flex = state.flexible_group_servers();
        flex.sort_by_key(|(id, jobs)| (jobs.iter().map(|(_, g)| *g).sum::<u32>(), *id));
        for (sid, _) in flex {
            if remaining == 0 {
                break;
            }
            let freed = state.vacate_server(sid)?;
            for (job, gpus) in freed {
                flex_releases.push((job, sid, gpus));
            }
            returned_flex.push(sid);
            remaining -= 1;
        }
        state.return_servers(&returned_idle)?;
        state.return_servers(&returned_flex)?;

        // Phase 2: preemption-based reclaiming for the remainder.
        let outcome = if remaining > 0 {
            let request = state.reclaim_request(remaining);
            let outcome = match self.policy {
                ReclaimPolicy::Lyra => self.engine.reclaim(&request, CostModel::ServerFraction),
                ReclaimPolicy::GpuFraction => self.engine.reclaim(&request, CostModel::GpuFraction),
                ReclaimPolicy::Random => reclaim_random(&request, &mut self.rng),
                ReclaimPolicy::Scf => reclaim_scf(&request),
                ReclaimPolicy::Optimal => {
                    if request.jobs.len() <= Self::OPTIMAL_JOB_LIMIT {
                        reclaim_exhaustive_optimal(&request)
                            .unwrap_or_else(|| reclaim_servers(&request, CostModel::ServerFraction))
                    } else {
                        reclaim_servers(&request, CostModel::ServerFraction)
                    }
                }
            };
            for job in &outcome.preempted {
                state.evict_job(*job);
            }
            state.return_servers(&outcome.returned)?;
            outcome
        } else {
            ReclaimOutcome {
                returned: vec![],
                preempted: vec![],
                collateral_gpus: 0,
                shortfall: 0,
            }
        };

        Ok(OrchestratorDecision::Reclaimed {
            flex_releases,
            returned_flex,
            returned_idle,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ClusterConfig;
    use lyra_core::snapshot::ServerGroup;

    fn cluster() -> ClusterState {
        ClusterState::new(ClusterConfig {
            training_servers: 2,
            inference_servers: 4,
            gpus_per_server: 8,
            speed: lyra_core::gpu::SpeedFactors::default(),
        })
    }

    fn orch() -> Orchestrator {
        Orchestrator::new(ReclaimPolicy::Lyra, 1)
    }

    #[test]
    fn loan_moves_servers() {
        let mut state = cluster();
        let d = orch().execute_loan(&mut state, 3).unwrap();
        match d {
            OrchestratorDecision::Loaned(ids) => assert_eq!(ids.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(state.loaned_count(), 3);
    }

    #[test]
    fn zero_requests_hold() {
        let mut state = cluster();
        assert_eq!(
            orch().execute_loan(&mut state, 0).unwrap(),
            OrchestratorDecision::Hold
        );
        assert_eq!(
            orch().execute_reclaim(&mut state, 0).unwrap(),
            OrchestratorDecision::Hold
        );
    }

    #[test]
    fn flexible_group_released_before_preemption() {
        let mut state = cluster();
        let loaned = state.loan(3).unwrap();
        // Server A: flexible workers of elastic job 1; server B: base of
        // job 2; server C: idle.
        state
            .allocate(JobId(1), &[(loaned[0], 2)], 2, ServerGroup::Flexible)
            .unwrap();
        state
            .allocate(JobId(2), &[(loaned[1], 2)], 2, ServerGroup::Base)
            .unwrap();
        let d = orch().execute_reclaim(&mut state, 2).unwrap();
        match &d {
            OrchestratorDecision::Reclaimed {
                flex_releases,
                returned_flex,
                returned_idle,
                outcome,
            } => {
                // Flex server + idle server satisfy the demand with zero
                // preemptions.
                assert_eq!(flex_releases.len(), 1);
                assert_eq!(flex_releases[0].0, JobId(1));
                assert_eq!(returned_flex.len(), 1);
                assert_eq!(returned_idle.len(), 1);
                assert!(outcome.preempted.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.servers_returned(), 2);
        assert_eq!(state.loaned_count(), 1);
    }

    #[test]
    fn preemption_happens_when_flex_insufficient() {
        let mut state = cluster();
        let loaned = state.loan(2).unwrap();
        state
            .allocate(JobId(1), &[(loaned[0], 2)], 2, ServerGroup::Base)
            .unwrap();
        state
            .allocate(JobId(2), &[(loaned[1], 2)], 2, ServerGroup::Base)
            .unwrap();
        let d = orch().execute_reclaim(&mut state, 1).unwrap();
        match &d {
            OrchestratorDecision::Reclaimed {
                flex_releases,
                returned_flex,
                returned_idle,
                outcome,
            } => {
                assert!(flex_releases.is_empty());
                assert!(returned_flex.is_empty());
                assert!(returned_idle.is_empty());
                assert_eq!(outcome.preempted.len(), 1);
                assert_eq!(outcome.returned.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(state.loaned_count(), 1);
    }

    #[test]
    fn all_policies_meet_feasible_demand() {
        for policy in [
            ReclaimPolicy::Lyra,
            ReclaimPolicy::GpuFraction,
            ReclaimPolicy::Random,
            ReclaimPolicy::Scf,
            ReclaimPolicy::Optimal,
        ] {
            let mut state = cluster();
            let loaned = state.loan(3).unwrap();
            for (i, sid) in loaned.iter().enumerate() {
                state
                    .allocate(JobId(i as u64), &[(*sid, 2)], 2, ServerGroup::Base)
                    .unwrap();
            }
            let mut o = Orchestrator::new(policy, 42);
            let d = o.execute_reclaim(&mut state, 2).unwrap();
            assert_eq!(d.servers_returned(), 2, "{policy:?}");
            assert_eq!(state.loaned_count(), 1, "{policy:?}");
        }
    }

    #[test]
    fn shortfall_when_loans_exhausted() {
        let mut state = cluster();
        let loaned = state.loan(1).unwrap();
        state
            .allocate(JobId(1), &[(loaned[0], 1)], 1, ServerGroup::Base)
            .unwrap();
        let d = orch().execute_reclaim(&mut state, 3).unwrap();
        match d {
            OrchestratorDecision::Reclaimed { outcome, .. } => {
                assert_eq!(outcome.shortfall, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
