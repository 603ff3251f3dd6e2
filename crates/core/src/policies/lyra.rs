//! Lyra's job scheduler: two-phase allocation (§5.2) plus BFD placement
//! with elastic/on-loan preferences (§5.3) and lowest-priority scheduling
//! of heterogeneous jobs (§6).

use super::{assignment_workers, scale_in_removal, JobScheduler};
use crate::allocation::{two_phase_allocate_with, AllocationConfig};
use crate::gpu::GpuType;
use crate::job::{JobId, JobSpec};
use crate::mckp::MckpScratch;
use crate::placement::{
    audit_placement, candidate_fits, place_best_effort, place_gang_with, PlacementConfig,
    PlacementScratch, WorkerRole,
};
use crate::snapshot::{Action, PoolKind, ServerGroup, ServerView, Snapshot};

/// Configuration of the Lyra policy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub struct LyraConfig {
    /// Two-phase allocation knobs (elastic phase on/off, normalisation).
    pub allocation: AllocationConfig,
    /// Placement knobs (the §5.3 special elastic treatment; Table 6
    /// disables it).
    pub placement: PlacementConfig,
}


impl LyraConfig {
    /// Lyra without elastic scaling — the configuration of the capacity-
    /// loaning-only rows of Table 5 (§7.3).
    pub fn loaning_only() -> Self {
        LyraConfig {
            allocation: AllocationConfig {
                elastic_phase: false,
                ..AllocationConfig::default()
            },
            placement: PlacementConfig::default(),
        }
    }
}

/// Reusable solver buffers carried across scheduling epochs. Pure scratch:
/// no call-to-call state, so cloning a scheduler or starting fresh changes
/// nothing but allocation traffic.
#[derive(Debug, Clone, Default)]
struct SchedScratch {
    /// Phase-2 knapsack DP rows + banded choice rows.
    mckp: MckpScratch,
    /// Gang-placement server copy + audit candidate list.
    placement: PlacementScratch,
}

/// The Lyra job scheduler.
#[derive(Debug, Clone, Default)]
pub struct LyraScheduler {
    /// Policy configuration.
    pub config: LyraConfig,
    scratch: SchedScratch,
}

impl LyraScheduler {
    /// Creates the scheduler with the given configuration.
    pub fn new(config: LyraConfig) -> Self {
        LyraScheduler {
            config,
            scratch: SchedScratch::default(),
        }
    }
}

/// Applies a scale-in removal to the scratch server state, releasing GPUs
/// and resetting the group label of servers that become empty.
fn apply_removal(
    servers: &mut [ServerView],
    removal: &[(crate::snapshot::ServerId, u32)],
    gpus_per_worker: u32,
) {
    for &(sid, workers) in removal {
        if let Some(s) = servers.iter_mut().find(|s| s.id == sid) {
            s.free_gpus = (s.free_gpus + workers * gpus_per_worker).min(s.total_gpus);
            if s.is_empty() {
                s.group = ServerGroup::Unassigned;
            }
        }
    }
}

/// Pool preference for a job's *base* (gang) workers.
fn base_pools(spec: &JobSpec, special: bool) -> Vec<PoolKind> {
    if spec.hetero_capable {
        vec![PoolKind::Training, PoolKind::OnLoan]
    } else if spec.is_elastic() && spec.fungible && special {
        vec![PoolKind::OnLoan, PoolKind::Training]
    } else if spec.fungible {
        vec![PoolKind::Training, PoolKind::OnLoan]
    } else {
        vec![PoolKind::Training]
    }
}

/// Pool preference for a job's *flexible* workers.
fn flex_pools(spec: &JobSpec, special: bool) -> Vec<PoolKind> {
    if spec.hetero_capable || (spec.fungible && special) {
        vec![PoolKind::OnLoan, PoolKind::Training]
    } else if spec.fungible {
        vec![PoolKind::Training, PoolKind::OnLoan]
    } else {
        vec![PoolKind::Training]
    }
}

impl LyraScheduler {
    /// Places one launch decision, returning the actions (launch plus an
    /// optional flexible scale-out) or `None` when the gang does not fit.
    fn place_launch(
        &mut self,
        servers: &mut [ServerView],
        spec: &JobSpec,
        target_workers: u32,
    ) -> Option<Vec<Action>> {
        let special = self.config.placement.special_elastic_treatment;
        let base_workers = spec.w_min();
        let extra = target_workers.saturating_sub(base_workers);
        let auditing = lyra_obs::audit::is_enabled();

        // Gang-place the base demand: one pool, first preference that fits.
        let pools = base_pools(spec, special);
        // Candidate fits (with best-fit costs) before placement mutates
        // the scratch state, for the decision audit.
        let base_candidates = if auditing {
            candidate_fits(
                servers,
                &pools,
                spec.gpus_per_worker,
                ServerGroup::Base,
                self.config.placement,
            )
        } else {
            Vec::new()
        };
        let mut launched: Option<(u32, Vec<(crate::snapshot::ServerId, u32)>)> = None;
        for pool in pools {
            // Fungible *inelastic* jobs moved to T4 take the memory-driven
            // worker multiplier; elastic jobs keep their worker count (the
            // per-worker rate models the slower GPU).
            let count = if pool == PoolKind::OnLoan && !spec.is_elastic() {
                base_workers * GpuType::T4.worker_multiplier(spec.reference_gpu)
            } else {
                base_workers
            };
            if let Some(a) = place_gang_with(
                &mut self.scratch.placement,
                servers,
                pool,
                count,
                spec.gpus_per_worker,
                ServerGroup::Base,
                self.config.placement,
            ) {
                launched = Some((count, a));
                break;
            }
        }
        if auditing {
            let role = if spec.is_elastic() {
                WorkerRole::ElasticBase
            } else {
                WorkerRole::Inelastic
            };
            audit_placement(
                spec.id,
                role,
                spec.gpus_per_worker,
                launched.as_ref().map(|(_, a)| a),
                &base_candidates,
            );
        }
        let (workers, placement) = launched?;
        let mut actions = vec![Action::Launch {
            job: spec.id,
            workers,
            placement,
        }];

        if extra > 0 {
            let flex_prefs = flex_pools(spec, special);
            let flex_candidates = if auditing {
                candidate_fits(
                    servers,
                    &flex_prefs,
                    spec.gpus_per_worker,
                    ServerGroup::Flexible,
                    self.config.placement,
                )
            } else {
                Vec::new()
            };
            let flex = place_best_effort(
                servers,
                &flex_prefs,
                extra,
                spec.gpus_per_worker,
                ServerGroup::Flexible,
                self.config.placement,
                spec.hetero_capable,
            );
            if auditing {
                let placed = (!flex.is_empty()).then_some(&flex);
                audit_placement(
                    spec.id,
                    WorkerRole::ElasticFlexible,
                    spec.gpus_per_worker,
                    placed,
                    &flex_candidates,
                );
            }
            if !flex.is_empty() {
                actions.push(Action::ScaleOut {
                    job: spec.id,
                    extra: assignment_workers(&flex),
                    placement: flex,
                });
            }
        }
        Some(actions)
    }

    /// Runs allocation + placement over one snapshot slice, mutating the
    /// scratch servers.
    fn schedule_slice(&mut self, snapshot: &Snapshot, servers: &mut [ServerView]) -> Vec<Action> {
        let outcome =
            two_phase_allocate_with(&mut self.scratch.mckp, snapshot, self.config.allocation);
        let mut actions: Vec<Action> = Vec::new();

        // Scale-ins first: they free capacity the launches were promised.
        // `resizes` is id-sorted and short; `running` is long and also
        // id-ordered — resolving each resize against it emits actions in
        // the same order as a walk over every running job, without paying
        // an O(running) probe loop every epoch.
        let mut scale_outs: Vec<(JobId, u32)> = Vec::new();
        for &(id, target) in &outcome.resizes {
            let Some(r) = snapshot.running.iter().find(|r| r.spec.id == id) else {
                continue;
            };
            if target < r.workers {
                let removal = scale_in_removal(r, r.workers - target);
                apply_removal(servers, &removal, r.spec.gpus_per_worker);
                if !removal.is_empty() {
                    actions.push(Action::ScaleIn {
                        job: r.spec.id,
                        removal,
                    });
                }
            } else if target > r.workers {
                scale_outs.push((r.spec.id, target - r.workers));
            }
        }

        // Launches in BFD order (largest per-worker demand first). Specs
        // come straight from the allocator's pending indices — launches
        // are few even when the queue is deep, and this runs every
        // scheduler epoch, so no pass over the whole queue.
        let mut launches: Vec<(&JobSpec, u32)> = outcome
            .launches
            .iter()
            .zip(&outcome.launch_indices)
            .map(|(&(id, target), &idx)| {
                let spec = &snapshot.pending[idx as usize].spec;
                debug_assert_eq!(spec.id, id, "launch index out of step with launch list");
                (spec, target)
            })
            .collect();
        launches.sort_by(|a, b| {
            b.0.gpus_per_worker
                .cmp(&a.0.gpus_per_worker)
                .then(a.0.id.cmp(&b.0.id))
        });
        for (spec, target) in launches {
            if let Some(mut acts) = self.place_launch(servers, spec, target) {
                actions.append(&mut acts);
            }
        }

        // Scale-outs for running jobs.
        for (id, extra) in scale_outs {
            let r = snapshot
                .running
                .iter()
                .find(|r| r.spec.id == id)
                .expect("resize target exists");
            let flex = place_best_effort(
                servers,
                &flex_pools(&r.spec, self.config.placement.special_elastic_treatment),
                extra,
                r.spec.gpus_per_worker,
                ServerGroup::Flexible,
                self.config.placement,
                r.spec.hetero_capable,
            );
            if !flex.is_empty() {
                actions.push(Action::ScaleOut {
                    job: id,
                    extra: assignment_workers(&flex),
                    placement: flex,
                });
            }
        }
        actions
    }
}

impl JobScheduler for LyraScheduler {
    fn name(&self) -> &'static str {
        "lyra"
    }

    fn special_elastic_placement(&self) -> bool {
        self.config.placement.special_elastic_treatment
    }

    fn schedule(&mut self, snapshot: &Snapshot) -> Vec<Action> {
        let mut servers = snapshot.servers.clone();

        // Fast path: with no heterogeneous jobs anywhere, the "main" slice
        // below is the whole snapshot and the second pass is empty — skip
        // cloning every pending/running view just to filter nothing out.
        let any_hetero = snapshot.pending.iter().any(|p| p.spec.hetero_capable)
            || snapshot.running.iter().any(|r| r.spec.hetero_capable);
        if !any_hetero {
            return self.schedule_slice(snapshot, &mut servers);
        }

        // Heterogeneous jobs get the lowest priority: they are scheduled in
        // a second pass over whatever the first pass left (§6).
        let main = Snapshot {
            time_s: snapshot.time_s,
            servers: servers.clone(),
            pending: snapshot
                .pending
                .iter()
                .filter(|p| !p.spec.hetero_capable)
                .cloned()
                .collect(),
            running: snapshot
                .running
                .iter()
                .filter(|r| !r.spec.hetero_capable)
                .cloned()
                .collect(),
        };
        let mut actions = self.schedule_slice(&main, &mut servers);

        let hetero_pending: Vec<_> = snapshot
            .pending
            .iter()
            .filter(|p| p.spec.hetero_capable)
            .cloned()
            .collect();
        let hetero_running: Vec<_> = snapshot
            .running
            .iter()
            .filter(|r| r.spec.hetero_capable)
            .cloned()
            .collect();
        if !hetero_pending.is_empty() || !hetero_running.is_empty() {
            let hetero = Snapshot {
                time_s: snapshot.time_s,
                servers: servers.clone(),
                pending: hetero_pending,
                running: hetero_running,
            };
            actions.extend(self.schedule_slice(&hetero, &mut servers));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{PendingJobView, RunningJobView, ServerId};

    fn servers(train: u32, loan: u32) -> Vec<ServerView> {
        let mut v: Vec<ServerView> = (0..train)
            .map(|i| ServerView::idle(i, PoolKind::Training, GpuType::V100, 8))
            .collect();
        for i in 0..loan {
            v.push(ServerView::idle(
                train + i,
                PoolKind::OnLoan,
                GpuType::T4,
                8,
            ));
        }
        v
    }

    fn sched() -> LyraScheduler {
        LyraScheduler::default()
    }

    #[test]
    fn launches_base_and_flexible_separately() {
        let spec = JobSpec::elastic(0, 0.0, 2, 6, 1, 30.0);
        let snap = Snapshot {
            time_s: 0.0,
            servers: servers(1, 0),
            pending: vec![PendingJobView::fresh(spec)],
            running: vec![],
        };
        let actions = sched().schedule(&snap);
        assert_eq!(actions.len(), 2);
        match (&actions[0], &actions[1]) {
            (Action::Launch { workers, .. }, Action::ScaleOut { extra, .. }) => {
                assert_eq!(*workers, 2);
                assert_eq!(*extra, 4);
            }
            other => panic!("unexpected actions {other:?}"),
        }
    }

    #[test]
    fn elastic_fungible_prefers_on_loan_and_splits_groups() {
        let spec = JobSpec::elastic(0, 0.0, 2, 4, 2, 30.0).with_fungible(true);
        let snap = Snapshot {
            time_s: 0.0,
            servers: servers(1, 2),
            pending: vec![PendingJobView::fresh(spec)],
            running: vec![],
        };
        let actions = sched().schedule(&snap);
        let launch_servers: Vec<u32> = match &actions[0] {
            Action::Launch { placement, .. } => placement.iter().map(|(s, _)| s.0).collect(),
            other => panic!("unexpected {other:?}"),
        };
        let flex_servers: Vec<u32> = match &actions[1] {
            Action::ScaleOut { placement, .. } => placement.iter().map(|(s, _)| s.0).collect(),
            other => panic!("unexpected {other:?}"),
        };
        // Base on one on-loan server, flexible on the *other* (group split).
        assert!(launch_servers.iter().all(|s| *s >= 1));
        assert!(flex_servers.iter().all(|s| *s >= 1));
        assert!(launch_servers.iter().all(|s| !flex_servers.contains(s)));
    }

    #[test]
    fn fungible_inelastic_gets_worker_multiplier_on_t4() {
        let spec = JobSpec::inelastic(0, 0.0, 2, 2, 50.0).with_fungible(true);
        let snap = Snapshot {
            time_s: 0.0,
            servers: servers(0, 1),
            pending: vec![PendingJobView::fresh(spec)],
            running: vec![],
        };
        let actions = sched().schedule(&snap);
        match &actions[0] {
            Action::Launch { workers, .. } => assert_eq!(*workers, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn running_jobs_scale_in_under_pressure() {
        // One 8-GPU server: a running elastic job holds 4 workers (2 flex);
        // a short inelastic job needs 6 GPUs.
        let running = RunningJobView {
            spec: JobSpec::elastic(0, 0.0, 2, 6, 1, 100.0),
            workers: 4,
            work_left: 400.0,
            placement: vec![(ServerId(0), 4)],
            flexible_workers: 2,
            flex_placement: vec![(ServerId(0), 2)],
        };
        let mut srv = servers(1, 0);
        srv[0].free_gpus = 4;
        let snap = Snapshot {
            time_s: 0.0,
            servers: srv,
            pending: vec![PendingJobView::fresh(JobSpec::inelastic(1, 0.0, 6, 1, 5.0))],
            running: vec![running],
        };
        let actions = sched().schedule(&snap);
        let scale_in = actions.iter().find(|a| matches!(a, Action::ScaleIn { .. }));
        let launch = actions.iter().find(|a| matches!(a, Action::Launch { .. }));
        assert!(scale_in.is_some(), "elastic job shrinks: {actions:?}");
        assert!(launch.is_some(), "short job launches: {actions:?}");
    }

    #[test]
    fn hetero_jobs_scheduled_last() {
        // 8 GPUs; a hetero job (4 GPUs) submitted *before* a normal job
        // (8 GPUs). Lyra gives the normal job priority; hetero job waits.
        let hetero = JobSpec::inelastic(0, 0.0, 4, 1, 10.0).with_hetero(true);
        let normal = JobSpec::inelastic(1, 0.0, 8, 1, 10.0);
        let snap = Snapshot {
            time_s: 0.0,
            servers: servers(1, 0),
            pending: vec![PendingJobView::fresh(hetero), PendingJobView::fresh(normal)],
            running: vec![],
        };
        let actions = sched().schedule(&snap);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].job(), JobId(1));
    }

    #[test]
    fn hetero_flexible_spans_gpu_types() {
        let spec = JobSpec::elastic(0, 0.0, 2, 8, 2, 30.0)
            .with_fungible(true)
            .with_hetero(true);
        let snap = Snapshot {
            time_s: 0.0,
            servers: servers(1, 1),
            pending: vec![PendingJobView::fresh(spec)],
            running: vec![],
        };
        let actions = sched().schedule(&snap);
        // Base (2×2 GPUs) on training; flexible 6 workers need 12 GPUs:
        // 4 on training remainder? base takes 4 of training's 8; flex
        // prefers on-loan (4 workers) then spans back to training (2).
        let total: u32 = actions
            .iter()
            .map(|a| match a {
                Action::Launch { workers, .. } => *workers,
                Action::ScaleOut { extra, .. } => *extra,
                Action::ScaleIn { .. } => 0,
            })
            .sum();
        assert_eq!(total, 8, "full range placed across both pools: {actions:?}");
    }

    #[test]
    fn loaning_only_config_never_scales() {
        let spec = JobSpec::elastic(0, 0.0, 2, 6, 1, 30.0);
        let snap = Snapshot {
            time_s: 0.0,
            servers: servers(1, 0),
            pending: vec![PendingJobView::fresh(spec)],
            running: vec![],
        };
        let actions = LyraScheduler::new(LyraConfig::loaning_only()).schedule(&snap);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Launch { workers, .. } => assert_eq!(*workers, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_snapshot_no_actions() {
        assert!(sched().schedule(&Snapshot::default()).is_empty());
    }
}
