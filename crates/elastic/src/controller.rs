//! The per-job elastic controller (§6).
//!
//! "We embed a controller process to each elastic job that coordinates the
//! worker join and departure." The controller tracks the desired versus
//! actual worker set, serialises membership changes through a rendezvous
//! barrier, and accounts the pause each change costs — training stalls
//! while gradients re-shard, which the simulator charges against the job's
//! progress.

use serde::{Deserialize, Serialize};

/// Lifecycle of one worker under the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerState {
    /// Container requested, not yet joined the collective.
    Joining,
    /// Participating in training.
    Active,
    /// Asked to leave at the next step boundary.
    Draining,
}

/// Events the controller reports to the scheduler/simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerEvent {
    /// Membership changed; training paused for `pause_s` seconds.
    Rescaled {
        /// Workers after the change.
        workers: u32,
        /// Rendezvous pause charged to the job.
        pause_s: f64,
    },
}

/// Per-job elastic controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticController {
    /// Workers currently active.
    active: u32,
    /// Seconds one rendezvous (join/leave barrier) costs.
    rendezvous_pause_s: f64,
    /// Total scaling operations performed.
    ops: u32,
    /// Involuntary membership shrinks (worker/server failures) absorbed.
    failures: u32,
    /// Total pause seconds charged.
    total_pause_s: f64,
}

impl ElasticController {
    /// Creates a controller for a job starting with `workers` workers.
    ///
    /// `rendezvous_pause_s` is the training stall per membership change;
    /// the prototype's rendezvous (container launch + collective re-init)
    /// is in the tens of seconds.
    pub fn new(workers: u32, rendezvous_pause_s: f64) -> Self {
        ElasticController {
            active: workers,
            rendezvous_pause_s,
            ops: 0,
            failures: 0,
            total_pause_s: 0.0,
        }
    }

    /// Workers currently active.
    pub fn active_workers(&self) -> u32 {
        self.active
    }

    /// Number of scaling operations performed so far.
    pub fn scaling_ops(&self) -> u32 {
        self.ops
    }

    /// Total training stall charged so far, seconds.
    pub fn total_pause_s(&self) -> f64 {
        self.total_pause_s
    }

    /// Applies a resize to `target` workers; a no-op returns `None`.
    ///
    /// One rendezvous covers the whole membership change regardless of how
    /// many workers join or leave (the barrier is collective).
    pub fn resize(&mut self, target: u32) -> Option<ControllerEvent> {
        if target == self.active {
            return None;
        }
        let _timing = lyra_obs::span::span("elastic.rendezvous");
        self.active = target;
        self.ops += 1;
        self.total_pause_s += self.rendezvous_pause_s;
        Some(ControllerEvent::Rescaled {
            workers: target,
            pause_s: self.rendezvous_pause_s,
        })
    }

    /// Involuntary membership shrink count absorbed so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Handles an involuntary worker loss (server crash or container
    /// death): membership drops to `survivors` and one rendezvous is
    /// charged, exactly as for a voluntary resize — the collective must
    /// re-form either way. The loss is tracked separately from planned
    /// scaling.
    pub fn workers_lost(&mut self, survivors: u32) -> Option<ControllerEvent> {
        if survivors >= self.active {
            return None;
        }
        self.failures += 1;
        self.resize(survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_changes_membership_and_charges_pause() {
        let mut c = ElasticController::new(2, 15.0);
        let ev = c.resize(6).expect("resize happens");
        assert_eq!(
            ev,
            ControllerEvent::Rescaled {
                workers: 6,
                pause_s: 15.0
            }
        );
        assert_eq!(c.active_workers(), 6);
        assert_eq!(c.scaling_ops(), 1);
        assert_eq!(c.total_pause_s(), 15.0);
    }

    #[test]
    fn noop_resize_is_free() {
        let mut c = ElasticController::new(4, 15.0);
        assert!(c.resize(4).is_none());
        assert_eq!(c.scaling_ops(), 0);
        assert_eq!(c.total_pause_s(), 0.0);
    }

    #[test]
    fn scale_in_and_out_both_count() {
        let mut c = ElasticController::new(4, 10.0);
        c.resize(8);
        c.resize(2);
        c.resize(5);
        assert_eq!(c.scaling_ops(), 3);
        assert_eq!(c.total_pause_s(), 30.0);
        assert_eq!(c.active_workers(), 5);
    }

    #[test]
    fn worker_loss_counts_as_failure_and_charges_pause() {
        let mut c = ElasticController::new(4, 15.0);
        let ev = c.workers_lost(3).expect("loss rescales");
        assert_eq!(
            ev,
            ControllerEvent::Rescaled {
                workers: 3,
                pause_s: 15.0
            }
        );
        assert_eq!(c.failures(), 1);
        assert_eq!(c.scaling_ops(), 1);
        // A "loss" that does not shrink membership is ignored.
        assert!(c.workers_lost(3).is_none());
        assert!(c.workers_lost(5).is_none());
        assert_eq!(c.failures(), 1);
    }
}
