//! The resource-manager shim (§6).
//!
//! Lyra "runs on top of a cluster resource manager such as YARN and
//! Kubernetes to execute its decisions". This module models that layer:
//! the whitelist API used for capacity loaning ("the orchestrator adds
//! on-loan servers to Lyra scheduler's whitelist…; in reclaiming, the
//! orchestrator removes the selected servers … after its scheduler
//! confirms they no longer have running workers") plus container
//! operations, all recorded in an auditable op log with the latency
//! constants measured on the testbed (§7.5).

use lyra_core::job::JobId;
use lyra_core::snapshot::ServerId;

/// One operation issued to the resource manager.
#[derive(Debug, Clone, PartialEq)]
pub enum RmOp {
    /// Server added to the training scheduler's whitelist (loaning).
    AddToWhitelist(ServerId),
    /// Server removed from the whitelist (reclaiming).
    RemoveFromWhitelist(ServerId),
    /// Worker containers launched for a job.
    LaunchContainers {
        /// Job being started or grown.
        job: JobId,
        /// Target server.
        server: ServerId,
        /// Workers launched there.
        workers: u32,
    },
    /// Worker containers stopped (scale-in or preemption).
    KillContainers {
        /// Job being shrunk or preempted.
        job: JobId,
        /// Target server.
        server: ServerId,
        /// Workers stopped there.
        workers: u32,
    },
    /// Node marked lost after a health-check failure (fault injection):
    /// the scheduler must stop placing work there.
    MarkServerDown(ServerId),
    /// Node passed health checks again and rejoined its pool.
    MarkServerUp(ServerId),
}

/// Latency constants for resource-manager operations, from the testbed
/// measurements (§7.5: the full preempt–relaunch–restore cycle averages
/// 63 s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmLatencies {
    /// Seconds to launch a worker container batch on one server.
    pub launch_s: f64,
    /// Seconds to stop containers on one server.
    pub kill_s: f64,
    /// Seconds for a whitelist move.
    pub whitelist_s: f64,
}

impl Default for RmLatencies {
    fn default() -> Self {
        RmLatencies {
            launch_s: 10.0,
            kill_s: 2.0,
            whitelist_s: 1.0,
        }
    }
}

/// The resource-manager facade: records ops and accumulates the modelled
/// control-plane latency.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceManager {
    /// Latency model.
    pub latencies: RmLatencies,
    log: Vec<RmOp>,
    total_latency_s: f64,
}

impl ResourceManager {
    /// Creates a manager with the default latency model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one op, returning its modelled latency in seconds.
    pub fn submit(&mut self, op: RmOp) -> f64 {
        let latency = match &op {
            RmOp::AddToWhitelist(_)
            | RmOp::RemoveFromWhitelist(_)
            | RmOp::MarkServerDown(_)
            | RmOp::MarkServerUp(_) => self.latencies.whitelist_s,
            RmOp::LaunchContainers { .. } => self.latencies.launch_s,
            RmOp::KillContainers { .. } => self.latencies.kill_s,
        };
        self.log.push(op);
        self.total_latency_s += latency;
        latency
    }

    /// The full op log, in submission order.
    pub fn log(&self) -> &[RmOp] {
        &self.log
    }

    /// Total modelled control-plane latency, seconds.
    pub fn total_latency_s(&self) -> f64 {
        self.total_latency_s
    }

    /// Counts ops matching a predicate (e.g. loan/reclaim operations for
    /// the §7.5 report).
    pub fn count_ops(&self, pred: impl Fn(&RmOp) -> bool) -> usize {
        self.log.iter().filter(|op| pred(op)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order_with_latency() {
        let mut rm = ResourceManager::new();
        let l1 = rm.submit(RmOp::AddToWhitelist(ServerId(5)));
        let l2 = rm.submit(RmOp::LaunchContainers {
            job: JobId(1),
            server: ServerId(5),
            workers: 2,
        });
        assert_eq!(l1, 1.0);
        assert_eq!(l2, 10.0);
        assert_eq!(rm.log().len(), 2);
        assert_eq!(rm.total_latency_s(), 11.0);
    }

    #[test]
    fn count_ops_filters() {
        let mut rm = ResourceManager::new();
        rm.submit(RmOp::AddToWhitelist(ServerId(1)));
        rm.submit(RmOp::RemoveFromWhitelist(ServerId(1)));
        rm.submit(RmOp::AddToWhitelist(ServerId(2)));
        let loans = rm.count_ops(|op| matches!(op, RmOp::AddToWhitelist(_)));
        assert_eq!(loans, 2);
    }
}
