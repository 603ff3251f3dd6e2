//! Decision audit trail.
//!
//! The scheduling algorithms in `lyra-core` are pure functions; their
//! decisions are explainable only if each one is recorded at the moment
//! it is made. The per-epoch records ([`AuditRecord::Phase1Order`],
//! [`AuditRecord::Phase2Mckp`]) record *verdicts, in columns*: the job
//! ids in order, which of them won, and the inputs (SJF estimates, MCKP
//! value curves) only where a decision changed something, so a deep
//! queue costs a few bytes per job per epoch rather than a spelled-out
//! object. Everything dropped is derivable from what is kept: a phase-1
//! rank is deferred for GPU scarcity exactly when it is not in
//! `admitted`, and a phase-2 group is an MCKP denial exactly when its
//! `extra` is 0 (the allocator never builds an empty group).
//!
//! This module provides the record types and a thread-local collector
//! the algorithm crates write into, so the decision sites need no
//! plumbing of logger handles. The simulation engine drains the
//! collector after each call into the policy/orchestrator and folds the
//! records into its event log.
//!
//! Recording is off by default and costs one thread-local boolean check;
//! the engine enables it only when an observer with auditing is
//! attached.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::attribution::DelayCause;

/// One candidate server in a reclaim cost search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReclaimCandidate {
    /// Server id.
    pub server: u32,
    /// Preemption cost under the active cost model.
    pub cost: f64,
    /// Collateral GPUs preempting this server would waste.
    pub collateral_gpus: u32,
}

/// One recorded scheduling decision: its verdict, with the inputs that
/// produced it where they were logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AuditRecord {
    /// The phase-1 shortest-job-first (or FIFO/LAS) admission pass.
    Phase1Order {
        /// GPUs available before the pass.
        capacity_gpus: u32,
        /// Job ids in rank order (the order they were considered).
        order: Vec<u64>,
        /// Ranks (0-based indices into `order`) admitted this pass,
        /// ascending. Every other rank was deferred for GPU scarcity.
        admitted: Vec<u32>,
        /// `(rank, est_running_time_s, base_gpus)` for every admitted
        /// rank and the first few deferred ranks past the cut, ascending
        /// by rank. Other deferred ranks carry no estimate.
        estimates: Vec<(u32, f64, u32)>,
    },
    /// The phase-2 MCKP allocation over elastic jobs' flexible demand.
    Phase2Mckp {
        /// Leftover GPUs offered to the knapsack.
        capacity_gpus: u32,
        /// One knapsack group per elastic job, by job id.
        jobs: Vec<u64>,
        /// Extra workers granted to each group (parallel to `jobs`;
        /// 0 = kept at base, an MCKP denial).
        extra: Vec<u32>,
        /// `(job, JCT-reduction value of each worker-count option)` for
        /// the groups whose grant changes the job's allocation: every
        /// launch, and every running job resized. Capped per curve.
        curves: Vec<(u64, Vec<f64>)>,
        /// Total value of the solution.
        total_value: f64,
        /// Total weight (GPUs) of the solution.
        total_weight: u32,
    },
    /// A best-fit-decreasing placement decision for one worker.
    PlacementDecision {
        /// Job id.
        job: u64,
        /// Worker role: `inelastic`, `elastic_base` or
        /// `elastic_flexible`.
        role: String,
        /// GPUs the worker needs.
        gpus: u32,
        /// Server chosen, or `None` if placement failed.
        chosen: Option<u32>,
        /// Free GPUs the chosen server had (best-fit cost).
        chosen_free_gpus: u32,
        /// Rejected alternatives as `(server, free_gpus)`, free GPUs
        /// being the best-fit cost (capped; best-first).
        alternatives: Vec<(u32, u32)>,
    },
    /// One server pick in the greedy reclaim cost search.
    ReclaimChoice {
        /// Servers still needed when the pick was made.
        need: u32,
        /// Candidate servers with their costs (capped; order follows the
        /// request's candidate list).
        candidates: Vec<ReclaimCandidate>,
        /// Server picked.
        chosen: u32,
        /// Jobs preempted by taking it.
        preempted: Vec<u64>,
        /// Delay cause charged to the preempted jobs
        /// ([`DelayCause::ReclaimPreemption`]); `None` when the pick
        /// preempted nobody.
        cause: Option<DelayCause>,
    },
}

thread_local! {
    static AUDIT: RefCell<AuditState> = const { RefCell::new(AuditState { enabled: false, records: Vec::new() }) };
}

struct AuditState {
    enabled: bool,
    records: Vec<AuditRecord>,
}

/// Enables or disables audit collection on this thread.
pub fn set_enabled(enabled: bool) {
    AUDIT.with(|a| {
        let mut a = a.borrow_mut();
        a.enabled = enabled;
        if !enabled {
            a.records.clear();
        }
    });
}

/// Whether audit collection is enabled on this thread. Decision sites
/// check this before building a record so disabled runs pay only the
/// boolean.
pub fn is_enabled() -> bool {
    AUDIT.with(|a| a.borrow().enabled)
}

/// Appends a record to this thread's audit buffer (no-op when
/// collection is disabled).
pub fn record(rec: AuditRecord) {
    AUDIT.with(|a| {
        let mut a = a.borrow_mut();
        if a.enabled {
            a.records.push(rec);
        }
    });
}

/// Takes all records buffered on this thread since the last drain.
pub fn drain() -> Vec<AuditRecord> {
    AUDIT.with(|a| std::mem::take(&mut a.borrow_mut().records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_records_when_enabled() {
        assert!(!is_enabled());
        record(AuditRecord::Phase1Order {
            capacity_gpus: 8,
            order: vec![],
            admitted: vec![],
            estimates: vec![],
        });
        assert!(drain().is_empty());

        set_enabled(true);
        record(AuditRecord::Phase1Order {
            capacity_gpus: 8,
            order: vec![],
            admitted: vec![],
            estimates: vec![],
        });
        let drained = drain();
        assert_eq!(drained.len(), 1);
        assert!(drain().is_empty(), "drain empties the buffer");
        set_enabled(false);
    }

    #[test]
    fn disabling_clears_pending_records() {
        set_enabled(true);
        record(AuditRecord::ReclaimChoice {
            need: 1,
            candidates: vec![],
            chosen: 3,
            preempted: vec![],
            cause: None,
        });
        set_enabled(false);
        assert!(drain().is_empty());
    }
}
