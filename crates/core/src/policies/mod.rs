//! The complete job-scheduling policies evaluated in §7.
//!
//! Each policy consumes a [`Snapshot`] at a scheduling epoch and returns the
//! [`Action`]s to apply: launches for pending jobs (base demand), scale-outs
//! for flexible workers and scale-ins when elastic jobs must shrink. The
//! simulator (or a resource-manager shim) executes the actions.
//!
//! | Policy | Paper role |
//! |---|---|
//! | [`FifoScheduler`] | the Baseline: FIFO, no loaning, no scaling |
//! | [`LyraScheduler`] | §5: two-phase allocation + BFD placement |
//! | [`GandivaScheduler`] | opportunistic grow/shrink (§7.1) |
//! | [`AfsScheduler`] | greedy marginal-throughput-per-GPU (§7.1) |
//! | [`PolluxScheduler`] | goodput + genetic algorithm + tuning (§7.1) |
//!
//! Lyra+TunedJobs is [`LyraScheduler`] with the simulator applying
//! [`crate::tuning::GoodputModel::tuned_gain`] to elastic jobs' service
//! rates — the scheduling policy itself is unchanged (§7.4).

mod afs;
mod fifo;
mod gandiva;
mod lyra;
mod pollux;
mod registry;

pub use afs::AfsScheduler;
pub use fifo::FifoScheduler;
pub use gandiva::GandivaScheduler;
pub use lyra::{LyraConfig, LyraScheduler};
pub use pollux::{PolluxConfig, PolluxScheduler};
pub use registry::{PolicyContext, PolicyEntry, PolicyRegistry, UnknownPolicy};

use crate::snapshot::{Action, Assignment, RunningJobView, ServerId, Snapshot};

/// A job-scheduling policy invoked at every scheduling epoch.
pub trait JobScheduler {
    /// Short name for reports ("fifo", "lyra", …).
    fn name(&self) -> &'static str;

    /// Computes the actions for this epoch.
    ///
    /// Implementations must be deterministic given the snapshot and their
    /// own seeded state, and must return *feasible* actions: launches and
    /// scale-outs come with placements that fit the snapshot's free GPUs.
    fn schedule(&mut self, snapshot: &Snapshot) -> Vec<Action>;

    /// Whether the workers this policy scales out are labelled
    /// `Flexible` (§5.3's special elastic placement), so reclaiming can
    /// scale their jobs in instead of preempting them. `false` labels
    /// every worker `Base`, Table 6's naive placement, and the
    /// orchestrator must reclaim everything by preemption.
    fn special_elastic_placement(&self) -> bool {
        true
    }
}

/// Builds a scale-in removal for `k` workers of a running elastic job,
/// draining whole servers of its flexible placement first so that vacated
/// on-loan servers can be returned without preemption.
pub(crate) fn scale_in_removal(running: &RunningJobView, k: u32) -> Assignment {
    let mut slots: Vec<(ServerId, u32)> = running.flex_placement.clone();
    // Fewest-workers servers first: vacating them entirely frees servers.
    slots.sort_by_key(|&(id, n)| (n, id));
    let mut removal: Vec<(ServerId, u32)> = Vec::new();
    let mut left = k;
    for (id, n) in slots {
        if left == 0 {
            break;
        }
        let take = n.min(left);
        removal.push((id, take));
        left -= take;
    }
    removal
}

/// Sums the workers in an assignment.
pub(crate) fn assignment_workers(a: &Assignment) -> u32 {
    a.iter().map(|(_, w)| w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    #[test]
    fn scale_in_prefers_emptying_small_slots() {
        let running = RunningJobView {
            spec: JobSpec::elastic(1, 0.0, 2, 8, 1, 10.0),
            workers: 8,
            work_left: 100.0,
            placement: vec![(ServerId(0), 4), (ServerId(1), 3), (ServerId(2), 1)],
            flexible_workers: 6,
            flex_placement: vec![(ServerId(0), 2), (ServerId(1), 3), (ServerId(2), 1)],
        };
        let removal = scale_in_removal(&running, 3);
        // Server 2 (1 worker) drained first, then server 0 (2 workers).
        assert_eq!(removal, vec![(ServerId(2), 1), (ServerId(0), 2)]);
        assert_eq!(assignment_workers(&removal), 3);
    }

    #[test]
    fn scale_in_caps_at_flexible_workers() {
        let running = RunningJobView {
            spec: JobSpec::elastic(1, 0.0, 2, 8, 1, 10.0),
            workers: 4,
            work_left: 100.0,
            placement: vec![(ServerId(0), 4)],
            flexible_workers: 2,
            flex_placement: vec![(ServerId(0), 2)],
        };
        let removal = scale_in_removal(&running, 10);
        assert_eq!(assignment_workers(&removal), 2);
    }
}
