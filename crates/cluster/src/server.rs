//! A physical GPU server and its per-job occupancy.

use lyra_core::gpu::GpuType;
use lyra_core::job::JobId;
use lyra_core::snapshot::{PoolKind, ServerGroup, ServerId, ServerView};

/// One physical server tracked by the cluster state.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Identity.
    pub id: ServerId,
    /// Installed GPU model (homogeneous within a server).
    pub gpu_type: GpuType,
    /// GPUs installed (8 in both of the paper's clusters).
    pub total_gpus: u32,
    /// Domain the server currently serves, from the training scheduler's
    /// view; servers still under inference control carry `OnLoan = false`
    /// implicitly by not being whitelisted.
    pub pool: PoolKind,
    /// Base/flexible group label for on-loan servers (§5.3).
    pub group: ServerGroup,
    /// Generation speed multiplier on this server's capability (1.0 in
    /// the paper's single-generation clusters).
    pub speed_factor: f64,
    /// GPUs occupied per job, ascending by job. A server holds at most
    /// `total_gpus` jobs, so a lookup here is O(1).
    allocations: Vec<(JobId, u32)>,
}

impl Server {
    /// Creates an idle server at the reference speed (factor 1.0).
    pub fn new(id: u32, gpu_type: GpuType, total_gpus: u32, pool: PoolKind) -> Self {
        Server {
            id: ServerId(id),
            gpu_type,
            total_gpus,
            pool,
            group: ServerGroup::Unassigned,
            speed_factor: 1.0,
            allocations: Vec::new(),
        }
    }

    /// Sets the generation speed multiplier.
    pub fn with_speed_factor(mut self, factor: f64) -> Self {
        self.speed_factor = factor;
        self
    }

    /// GPUs currently free.
    pub fn free_gpus(&self) -> u32 {
        self.total_gpus - self.used_gpus()
    }

    /// GPUs currently allocated.
    pub fn used_gpus(&self) -> u32 {
        self.allocations.iter().map(|&(_, g)| g).sum()
    }

    /// Whether no job occupies this server.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }

    /// Where `job` sits in the job table. A scan, not a binary search,
    /// so an out-of-order table still finds every entry.
    fn slot(&self, job: JobId) -> Option<usize> {
        self.allocations.iter().position(|&(j, _)| j == job)
    }

    /// GPUs `job` occupies here (0 if absent).
    pub fn gpus_of(&self, job: JobId) -> u32 {
        self.holding(job).unwrap_or(0)
    }

    /// GPUs in `job`'s entry of the job table, `None` when it has none.
    pub(crate) fn holding(&self, job: JobId) -> Option<u32> {
        self.slot(job).map(|i| self.allocations[i].1)
    }

    /// Jobs with at least one GPU here, with their GPU counts, ascending
    /// by job.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, u32)> + '_ {
        self.allocations.iter().copied()
    }

    /// Allocates `gpus` to `job`.
    ///
    /// Returns the new occupancy or an error string when the server lacks
    /// capacity.
    pub fn allocate(&mut self, job: JobId, gpus: u32) -> Result<u32, String> {
        if gpus > self.free_gpus() {
            return Err(format!(
                "{}: cannot allocate {gpus} GPUs ({} free)",
                self.id,
                self.free_gpus()
            ));
        }
        let i = self.slot(job).unwrap_or_else(|| {
            let i = self.allocations.partition_point(|&(j, _)| j < job);
            self.allocations.insert(i, (job, 0));
            i
        });
        let held = &mut self.allocations[i].1;
        *held += gpus;
        Ok(*held)
    }

    /// Releases `gpus` of `job`; removes the job entry at zero.
    ///
    /// Returns the remaining occupancy or an error when the job does not
    /// hold that many GPUs here.
    pub fn release(&mut self, job: JobId, gpus: u32) -> Result<u32, String> {
        let held = self.gpus_of(job);
        if gpus > held {
            return Err(format!(
                "{}: {job} holds {held} GPUs, cannot release {gpus}",
                self.id
            ));
        }
        if let Some(i) = self.slot(job) {
            if gpus == held {
                self.allocations.remove(i);
            } else {
                self.allocations[i].1 -= gpus;
            }
        }
        if self.is_empty() {
            self.group = ServerGroup::Unassigned;
        }
        Ok(held - gpus)
    }

    /// Removes a job entirely, returning the GPUs it held here.
    pub fn evict(&mut self, job: JobId) -> u32 {
        let held = self.slot(job).map_or(0, |i| self.allocations.remove(i).1);
        if self.is_empty() {
            self.group = ServerGroup::Unassigned;
        }
        held
    }

    /// The scheduler-facing view of this server.
    pub fn view(&self) -> ServerView {
        ServerView {
            id: self.id,
            pool: self.pool,
            gpu_type: self.gpu_type,
            total_gpus: self.total_gpus,
            free_gpus: self.free_gpus(),
            group: self.group,
            speed_factor: self.speed_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(1, GpuType::V100, 8, PoolKind::Training)
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut s = server();
        assert_eq!(s.allocate(JobId(1), 4), Ok(4));
        assert_eq!(s.allocate(JobId(1), 2), Ok(6));
        assert_eq!(s.free_gpus(), 2);
        assert_eq!(s.release(JobId(1), 6), Ok(0));
        assert!(s.is_empty());
    }

    #[test]
    fn over_allocation_is_rejected() {
        let mut s = server();
        s.allocate(JobId(1), 6).unwrap();
        assert!(s.allocate(JobId(2), 3).is_err());
        assert_eq!(s.used_gpus(), 6, "failed allocation leaves no residue");
    }

    #[test]
    fn over_release_is_rejected() {
        let mut s = server();
        s.allocate(JobId(1), 2).unwrap();
        assert!(s.release(JobId(1), 3).is_err());
        assert!(s.release(JobId(2), 1).is_err());
    }

    #[test]
    fn evict_removes_job_and_resets_group() {
        let mut s = server();
        s.group = ServerGroup::Flexible;
        s.allocate(JobId(1), 4).unwrap();
        assert_eq!(s.evict(JobId(1)), 4);
        assert_eq!(s.evict(JobId(1)), 0);
        assert_eq!(s.group, ServerGroup::Unassigned);
    }

    #[test]
    fn view_reflects_occupancy() {
        let mut s = server();
        s.allocate(JobId(3), 5).unwrap();
        let v = s.view();
        assert_eq!(v.free_gpus, 3);
        assert_eq!(v.total_gpus, 8);
        assert_eq!(v.pool, PoolKind::Training);
    }
}
