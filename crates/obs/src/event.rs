//! Typed scheduler events.
//!
//! Every significant state transition in the simulator is one
//! [`SchedEvent`] wrapped in a [`TimedEvent`] carrying the simulated
//! timestamp and a per-log sequence number. Payloads hold only simulated
//! quantities (ids, GPU counts, simulated seconds) — never wall-clock
//! readings — so a run's event log is a pure function of its seed.
//!
//! Ids are raw integers (`u64` for jobs, `u32` for servers) rather than
//! the `lyra-core` newtypes: `lyra-obs` sits below every other crate in
//! the dependency graph and must not depend upwards.

use serde::{Deserialize, Serialize};

use crate::attribution::DelayCause;
use crate::audit::AuditRecord;

/// One structured scheduler event.
///
/// Fault variants carry a `kind` string that matches the corresponding
/// `FaultStats` counter field name (`server_crash` ↔ `server_crashes`,
/// …), so an event log can be cross-checked against the aggregate fault
/// accounting event-for-count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedEvent {
    /// A job arrived and was admitted to the pending queue.
    JobAdmit {
        /// Job id.
        job: u64,
    },
    /// A queued job was launched.
    JobStart {
        /// Job id.
        job: u64,
        /// Workers granted at launch.
        workers: u32,
        /// Whether any worker landed on a loaned (inference) server.
        on_loan: bool,
        /// Servers hosting the gang.
        servers: Vec<u32>,
    },
    /// An elastic job grew by `delta` workers.
    JobScaleOut {
        /// Job id.
        job: u64,
        /// Workers added.
        delta: u32,
        /// Workers after the change.
        workers: u32,
        /// Whether any of the new workers landed on a loaned server
        /// (links the scale-out to the `LoanGrant` that enabled it).
        on_loan: bool,
        /// Servers hosting the new workers.
        servers: Vec<u32>,
    },
    /// An elastic job shrank by `delta` workers.
    JobScaleIn {
        /// Job id.
        job: u64,
        /// Workers removed.
        delta: u32,
        /// Workers after the change.
        workers: u32,
    },
    /// An elastic job's rendezvous barrier re-formed after a membership
    /// change, pausing training.
    ControllerRescale {
        /// Job id.
        job: u64,
        /// Workers after the rendezvous.
        workers: u32,
        /// Training stall charged, seconds.
        pause_s: f64,
    },
    /// Flexible workers were vacated from one server during a reclaim.
    FlexRelease {
        /// Job id.
        job: u64,
        /// Server vacated.
        server: u32,
        /// Workers released there.
        workers: u32,
    },
    /// A job was preempted (killed and re-queued).
    JobPreempt {
        /// Job id.
        job: u64,
        /// Whether it resumes from a checkpoint.
        checkpointed: bool,
        /// `DecisionId` (log `seq`) of the `ReclaimChoice` audit event
        /// whose victim ranking picked this job; `None` when the audit
        /// trail is disabled.
        decision: Option<u64>,
    },
    /// A job finished.
    JobComplete {
        /// Job id.
        job: u64,
        /// Completion time minus submission time, seconds.
        jct_s: f64,
    },
    /// A job completed after its SLO deadline (emitted right after the
    /// corresponding `JobComplete`). Deadlines never influence scheduling;
    /// this event only feeds the deadline-miss rollup.
    DeadlineMiss {
        /// Job id.
        job: u64,
        /// The deadline, seconds from trace start.
        deadline_s: f64,
        /// How late the job finished, seconds.
        late_s: f64,
    },
    /// Idle inference servers were loaned to the training cluster.
    LoanGrant {
        /// Servers loaned.
        servers: Vec<u32>,
    },
    /// The inference side demanded loaned servers back — the
    /// *loan-demand decision* that triggers a reclaim wave. Emitted
    /// before the cost search runs, so its `seq` precedes (and is the
    /// causal parent of) the wave's `ReclaimChoice` audits.
    ReclaimDemand {
        /// Servers demanded back (carried debt folded in).
        servers: u32,
    },
    /// The inference side reclaimed loaned servers.
    ReclaimGrant {
        /// Servers demanded back.
        demanded: u32,
        /// Returned by vacating flexible workers.
        returned_flex: u32,
        /// Returned because they sat idle.
        returned_idle: u32,
        /// Returned by preempting jobs.
        returned_preempt: u32,
        /// Jobs preempted to satisfy the demand.
        preempted: Vec<u64>,
        /// GPUs of collateral damage (innocent-bystander GPUs on
        /// preempted servers).
        collateral_gpus: u32,
    },
    /// A reclaim could not be fully satisfied; the shortfall carries
    /// over with a deadline.
    ReclaimCarryover {
        /// Servers still owed.
        servers: u32,
        /// Simulated deadline for the debt, seconds.
        deadline_s: f64,
    },
    /// A carried-over reclaim debt missed its deadline.
    ReclaimDeadlineMiss {
        /// Servers still owed at the deadline.
        servers: u32,
    },
    /// A training stall charged to a running job, with its typed cause
    /// (launch overhead, rendezvous, checkpoint restore, …). The engine
    /// emits one per pause it charges, so the lifecycle tracker can
    /// replay the stall arithmetic exactly.
    JobStall {
        /// Job id.
        job: u64,
        /// Why the job stalled.
        cause: DelayCause,
        /// Stall length, milliseconds.
        pause_ms: u64,
    },
    /// A running job's effective speed factor changed because of
    /// straggling servers (worker-weighted; `1.0` = back to nominal).
    JobStraggle {
        /// Job id.
        job: u64,
        /// Worker-weighted slowdown factor (`< 1.0` while straggling).
        factor: f64,
    },
    /// End-of-epoch scheduler summary, emitted when the state changed
    /// since the last emission.
    SchedulerEpoch {
        /// Jobs launched this epoch.
        launches: u32,
        /// Pending-queue depth after the epoch.
        queued: u32,
        /// Running jobs after the epoch.
        running: u32,
    },
    /// A fault-injection event; `kind` names the `FaultStats` counter it
    /// increments.
    Fault {
        /// Counter name: `injected`, `server_crash`, `worker_failure`,
        /// `straggler`, `dropped_tick`, `job_killed`,
        /// `elastic_absorbed`, `restart`, `checkpoint_restore` or
        /// `checkpoint_restore_failure`.
        kind: String,
        /// Job or server id the fault hit, when attributable.
        target: u64,
    },
    /// A recorded scheduling decision with its inputs (see
    /// [`AuditRecord`]).
    Audit(AuditRecord),
}

/// Every `kind_name()` a [`SchedEvent`] can report, in declaration
/// order — the authoritative list `events --filter kind=<name>`
/// validates against.
pub const KIND_NAMES: &[&str] = &[
    "JobAdmit",
    "JobStart",
    "JobScaleOut",
    "JobScaleIn",
    "ControllerRescale",
    "FlexRelease",
    "JobPreempt",
    "JobComplete",
    "DeadlineMiss",
    "LoanGrant",
    "ReclaimDemand",
    "ReclaimGrant",
    "ReclaimCarryover",
    "ReclaimDeadlineMiss",
    "JobStall",
    "JobStraggle",
    "SchedulerEpoch",
    "Fault",
    "Audit",
];

impl SchedEvent {
    /// The variant name, as used by `events --filter kind=<name>`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SchedEvent::JobAdmit { .. } => "JobAdmit",
            SchedEvent::JobStart { .. } => "JobStart",
            SchedEvent::JobScaleOut { .. } => "JobScaleOut",
            SchedEvent::JobScaleIn { .. } => "JobScaleIn",
            SchedEvent::ControllerRescale { .. } => "ControllerRescale",
            SchedEvent::FlexRelease { .. } => "FlexRelease",
            SchedEvent::JobPreempt { .. } => "JobPreempt",
            SchedEvent::JobComplete { .. } => "JobComplete",
            SchedEvent::DeadlineMiss { .. } => "DeadlineMiss",
            SchedEvent::LoanGrant { .. } => "LoanGrant",
            SchedEvent::ReclaimDemand { .. } => "ReclaimDemand",
            SchedEvent::ReclaimGrant { .. } => "ReclaimGrant",
            SchedEvent::ReclaimCarryover { .. } => "ReclaimCarryover",
            SchedEvent::ReclaimDeadlineMiss { .. } => "ReclaimDeadlineMiss",
            SchedEvent::JobStall { .. } => "JobStall",
            SchedEvent::JobStraggle { .. } => "JobStraggle",
            SchedEvent::SchedulerEpoch { .. } => "SchedulerEpoch",
            SchedEvent::Fault { .. } => "Fault",
            SchedEvent::Audit(_) => "Audit",
        }
    }

    /// The [`DelayCause`] this event names, if any — the `JobStall`
    /// cause, or the cause an audit record charges: a phase-1 pass that
    /// deferred any rank charges [`DelayCause::GpuScarcity`], a phase-2
    /// solve that granted some group nothing charges
    /// [`DelayCause::MckpDenial`]. Used by `events --filter cause=<name>`.
    pub fn cause(&self) -> Option<DelayCause> {
        match self {
            SchedEvent::JobStall { cause, .. } => Some(*cause),
            SchedEvent::Audit(rec) => match rec {
                AuditRecord::Phase1Order {
                    order, admitted, ..
                } => (admitted.len() < order.len()).then_some(DelayCause::GpuScarcity),
                AuditRecord::Phase2Mckp { extra, .. } => {
                    extra.contains(&0).then_some(DelayCause::MckpDenial)
                }
                AuditRecord::PlacementDecision { .. } => None,
                AuditRecord::ReclaimChoice { cause, .. } => *cause,
            },
            _ => None,
        }
    }

    /// Whether this event references `job` — directly, via a preemption
    /// list, or inside an audit record. (`Fault` targets are job *or*
    /// server ids depending on the kind; the filter matches either.)
    pub fn touches_job(&self, job: u64) -> bool {
        match self {
            SchedEvent::JobAdmit { job: j }
            | SchedEvent::JobStart { job: j, .. }
            | SchedEvent::JobScaleOut { job: j, .. }
            | SchedEvent::JobScaleIn { job: j, .. }
            | SchedEvent::ControllerRescale { job: j, .. }
            | SchedEvent::FlexRelease { job: j, .. }
            | SchedEvent::JobPreempt { job: j, .. }
            | SchedEvent::JobComplete { job: j, .. }
            | SchedEvent::DeadlineMiss { job: j, .. }
            | SchedEvent::JobStall { job: j, .. }
            | SchedEvent::JobStraggle { job: j, .. } => *j == job,
            SchedEvent::ReclaimGrant { preempted, .. } => preempted.contains(&job),
            SchedEvent::Fault { target, .. } => *target == job,
            SchedEvent::LoanGrant { .. }
            | SchedEvent::ReclaimDemand { .. }
            | SchedEvent::ReclaimCarryover { .. }
            | SchedEvent::ReclaimDeadlineMiss { .. }
            | SchedEvent::SchedulerEpoch { .. } => false,
            SchedEvent::Audit(rec) => match rec {
                AuditRecord::Phase1Order { order, .. } => order.contains(&job),
                AuditRecord::Phase2Mckp { jobs, .. } => jobs.contains(&job),
                AuditRecord::PlacementDecision { job: j, .. } => *j == job,
                AuditRecord::ReclaimChoice { preempted, .. } => preempted.contains(&job),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_list_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in KIND_NAMES {
            assert!(seen.insert(*k), "duplicate kind {k}");
        }
    }

    #[test]
    fn verdict_records_derive_their_cause_and_jobs() {
        let phase1 = |admitted: Vec<u32>| {
            SchedEvent::Audit(AuditRecord::Phase1Order {
                capacity_gpus: 8,
                order: vec![3, 4, 5],
                admitted,
                estimates: vec![(0, 10.0, 4)],
            })
        };
        assert_eq!(phase1(vec![0, 1, 2]).cause(), None);
        assert_eq!(phase1(vec![0, 2]).cause(), Some(DelayCause::GpuScarcity));
        assert_eq!(phase1(vec![]).cause(), Some(DelayCause::GpuScarcity));
        // Every ranked job is touched, with or without an estimate.
        let deferred = phase1(vec![0]);
        assert!([3, 4, 5].iter().all(|&j| deferred.touches_job(j)));
        assert!(!deferred.touches_job(6));

        let phase2 = |extra: Vec<u32>| {
            SchedEvent::Audit(AuditRecord::Phase2Mckp {
                capacity_gpus: 4,
                jobs: vec![7, 8],
                extra,
                curves: vec![(7, vec![1.0, 2.0])],
                total_value: 2.0,
                total_weight: 2,
            })
        };
        assert_eq!(phase2(vec![2, 1]).cause(), None);
        assert_eq!(phase2(vec![2, 0]).cause(), Some(DelayCause::MckpDenial));
        // Job 8 logged no curve but is still in the knapsack.
        let granted = phase2(vec![2, 1]);
        assert!(granted.touches_job(7) && granted.touches_job(8));
        assert!(!granted.touches_job(9));
    }
}

/// A [`SchedEvent`] stamped with simulated time and a sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Simulated time, milliseconds.
    pub time_ms: u64,
    /// Monotonic per-log sequence number (total order within one run).
    pub seq: u64,
    /// The event payload.
    pub event: SchedEvent,
}
