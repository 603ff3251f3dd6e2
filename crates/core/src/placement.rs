//! Worker placement (§5.3).
//!
//! Given the allocation results (how many workers each job gets), placement
//! decides which server hosts each worker. The goals and rules from the
//! paper:
//!
//! * **Bin packing with best-fit decreasing (BFD):** jobs are sorted by
//!   per-worker GPU demand in decreasing order; each worker goes to the
//!   non-empty server that best fits its demand, falling back to a fresh
//!   server only when no partially-used one has room. This fights
//!   fragmentation, the main obstacle Figure 2's queuing analysis found.
//! * **Pool preference:** inelastic jobs prefer dedicated training servers;
//!   elastic (and fungible) jobs prefer on-loan inference servers, which
//!   maximises the chance that reclaiming can be satisfied by scaling jobs
//!   in rather than preempting them.
//! * **Base/flexible split:** an elastic job's base and flexible workers go
//!   to *separate groups* of on-loan servers, so the orchestrator can
//!   release the flexible group first with zero preemptions (§4). Table 6
//!   quantifies what happens without this rule — the
//!   [`PlacementConfig::special_elastic_treatment`] switch reproduces it.
//! * **Heterogeneous jobs** (§6): scheduled last by the policy layer; their
//!   base demand prefers training servers and flexible demand prefers
//!   on-loan servers, and they alone may span both GPU types.

use crate::job::JobId;
use crate::snapshot::{Assignment, PoolKind, ServerGroup, ServerId, ServerView};
use serde::{Deserialize, Serialize};

/// What kind of workers a placement request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerRole {
    /// Fixed-demand job workers (gang: place all or nothing).
    Inelastic,
    /// The base (minimum) demand of an elastic job (gang).
    ElasticBase,
    /// Flexible workers of an elastic job (best effort: place what fits).
    ElasticFlexible,
}

/// One job's placement request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// Job identity.
    pub job: JobId,
    /// Workers to place.
    pub workers: u32,
    /// GPUs per worker.
    pub gpus_per_worker: u32,
    /// Role of these workers.
    pub role: WorkerRole,
    /// Whether the job may run on on-loan (inference-GPU) servers.
    pub fungible: bool,
    /// Whether the job may span both GPU types in one run.
    pub hetero: bool,
}

/// Placement policy switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Apply §5.3's special treatment of elastic jobs: prefer on-loan
    /// servers and split base/flexible onto separate groups. Disabling
    /// reproduces Table 6 (naive BFD for everyone).
    pub special_elastic_treatment: bool,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            special_elastic_treatment: true,
        }
    }
}

/// Result of placing a batch of requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PlacementOutcome {
    /// Successful placements: `(job, role, worker→server assignment)`.
    pub placed: Vec<(JobId, WorkerRole, Assignment)>,
    /// Gang requests that could not be fully placed (no server change).
    pub failed: Vec<JobId>,
}

impl PlacementOutcome {
    /// Total workers placed for `job` across all its entries.
    pub fn workers_placed(&self, job: JobId) -> u32 {
        self.placed
            .iter()
            .filter(|(j, _, _)| *j == job)
            .map(|(_, _, a)| a.iter().map(|(_, w)| w).sum::<u32>())
            .sum()
    }
}

/// Reusable buffers for the placement hot path.
///
/// Gang placement needs an undo log (to stay atomic on failure) and
/// auditing needs a candidate-fit list; both are per-epoch allocations
/// unless the caller carries this scratch across calls. Holds no state
/// between calls — each call fully reinitialises what it uses.
#[derive(Debug, Clone, Default)]
pub struct PlacementScratch {
    /// Undo log `(index, prior free GPUs, prior group)` for atomic gang
    /// placement.
    undo: Vec<(usize, u32, ServerGroup)>,
    /// Candidate-fit list `(server id, free GPUs)` for decision audits.
    fits: Vec<(u32, u32)>,
}

/// The server/group compatibility filter, exposed for the
/// placement-feasibility oracle in `lyra-oracle` (`test-oracles`
/// feature only).
#[cfg(feature = "test-oracles")]
pub fn group_compatible_for_oracles(
    server: &ServerView,
    group: ServerGroup,
    config: PlacementConfig,
) -> bool {
    group_compatible(server, group, config)
}

/// Which pools a request may use, in preference order, and the on-loan
/// group it belongs to.
fn pool_preference(
    req: &PlacementRequest,
    config: PlacementConfig,
) -> (Vec<PoolKind>, ServerGroup) {
    let group = if config.special_elastic_treatment && req.role == WorkerRole::ElasticFlexible {
        ServerGroup::Flexible
    } else {
        ServerGroup::Base
    };
    let pools = match req.role {
        WorkerRole::Inelastic => {
            if req.fungible {
                vec![PoolKind::Training, PoolKind::OnLoan]
            } else {
                vec![PoolKind::Training]
            }
        }
        WorkerRole::ElasticBase => {
            if req.hetero {
                // §6: hetero jobs put base demand on training servers.
                vec![PoolKind::Training, PoolKind::OnLoan]
            } else if req.fungible && config.special_elastic_treatment {
                vec![PoolKind::OnLoan, PoolKind::Training]
            } else if req.fungible {
                vec![PoolKind::Training, PoolKind::OnLoan]
            } else {
                vec![PoolKind::Training]
            }
        }
        WorkerRole::ElasticFlexible => {
            if req.hetero || (req.fungible && config.special_elastic_treatment) {
                vec![PoolKind::OnLoan, PoolKind::Training]
            } else if req.fungible {
                vec![PoolKind::Training, PoolKind::OnLoan]
            } else {
                vec![PoolKind::Training]
            }
        }
    };
    (pools, group)
}

/// Whether a server can accept a worker of this request under group rules.
fn group_compatible(server: &ServerView, group: ServerGroup, config: PlacementConfig) -> bool {
    if server.pool == PoolKind::Training || !config.special_elastic_treatment {
        return true;
    }
    server.group == ServerGroup::Unassigned || server.group == group
}

/// Finds the best-fit server index for one worker within `pool`.
///
/// Best fit = the *non-empty* compatible server with the least free GPUs
/// still ≥ demand; falls back to an empty server (lowest id) if none.
fn best_fit(
    servers: &[ServerView],
    pool: PoolKind,
    demand: u32,
    group: ServerGroup,
    config: PlacementConfig,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_free = u32::MAX;
    for (i, s) in servers.iter().enumerate() {
        if s.pool != pool || s.free_gpus < demand || s.is_empty() {
            continue;
        }
        if !group_compatible(s, group, config) {
            continue;
        }
        if s.free_gpus < best_free {
            best = Some(i);
            best_free = s.free_gpus;
        }
    }
    if best.is_some() {
        return best;
    }
    // A fresh server: lowest id for determinism.
    servers
        .iter()
        .enumerate()
        .filter(|(_, s)| s.pool == pool && s.is_empty() && s.free_gpus >= demand)
        .min_by_key(|(_, s)| s.id)
        .map(|(i, _)| i)
}

/// Atomically places `count` workers of `gpus_per_worker` GPUs each into
/// one pool, best-fit first.
///
/// Mutates `servers` only on success; returns `None` (state untouched) if
/// the gang does not fit. This is the building block policies use when the
/// worker count depends on the pool — e.g. a fungible job needs twice the
/// workers on T4 servers to keep its global batch size
/// ([`crate::gpu::GpuType::worker_multiplier`]).
pub fn place_gang(
    servers: &mut [ServerView],
    pool: PoolKind,
    count: u32,
    gpus_per_worker: u32,
    group: ServerGroup,
    config: PlacementConfig,
) -> Option<Assignment> {
    place_gang_into(&mut Vec::new(), servers, pool, count, gpus_per_worker, group, config)
}

/// [`place_gang`] over a caller-owned scratch, so the atomic-on-failure
/// undo log reuses one allocation across scheduling epochs.
pub fn place_gang_with(
    scratch: &mut PlacementScratch,
    servers: &mut [ServerView],
    pool: PoolKind,
    count: u32,
    gpus_per_worker: u32,
    group: ServerGroup,
    config: PlacementConfig,
) -> Option<Assignment> {
    place_gang_into(&mut scratch.undo, servers, pool, count, gpus_per_worker, group, config)
}

/// Gang placement core: places workers best-fit first directly into
/// `servers`, logging each server's prior `(free_gpus, group)` in
/// `undo`; if any worker fails to fit, the log is replayed in reverse
/// and the state is exactly as before. Placement only ever touches the
/// chosen servers, so the log stays tiny where the previous
/// clone-and-swap copied the whole cluster per gang attempt.
fn place_gang_into(
    undo: &mut Vec<(usize, u32, ServerGroup)>,
    servers: &mut [ServerView],
    pool: PoolKind,
    count: u32,
    gpus_per_worker: u32,
    group: ServerGroup,
    config: PlacementConfig,
) -> Option<Assignment> {
    let _timing = lyra_obs::span::span("core.placement.gang");
    undo.clear();
    let mut assignment: Vec<(ServerId, u32)> = Vec::new();
    for _ in 0..count {
        let Some(idx) = best_fit(servers, pool, gpus_per_worker, group, config) else {
            for &(i, free, g) in undo.iter().rev() {
                servers[i].free_gpus = free;
                servers[i].group = g;
            }
            return None;
        };
        let s = &mut servers[idx];
        undo.push((idx, s.free_gpus, s.group));
        s.free_gpus -= gpus_per_worker;
        if s.pool == PoolKind::OnLoan && config.special_elastic_treatment
            && s.group == ServerGroup::Unassigned {
                s.group = group;
            }
        match assignment.iter_mut().find(|(id, _)| *id == s.id) {
            Some(slot) => slot.1 += 1,
            None => assignment.push((s.id, 1)),
        }
    }
    Some(assignment)
}

/// Places up to `count` workers across `pools` in preference order,
/// best-effort.
///
/// Non-spanning mode stops at the first pool that accepted at least one
/// worker (single GPU type per job); spanning mode (hetero jobs) keeps
/// going. Returns the assignment, possibly empty.
pub fn place_best_effort(
    servers: &mut [ServerView],
    pools: &[PoolKind],
    count: u32,
    gpus_per_worker: u32,
    group: ServerGroup,
    config: PlacementConfig,
    span_pools: bool,
) -> Assignment {
    let _timing = lyra_obs::span::span("core.placement.flex");
    let mut assignment: Vec<(ServerId, u32)> = Vec::new();
    let mut remaining = count;
    for pool in pools {
        while remaining > 0 {
            let Some(i) = best_fit(servers, *pool, gpus_per_worker, group, config) else {
                break;
            };
            let s = &mut servers[i];
            s.free_gpus -= gpus_per_worker;
            if s.pool == PoolKind::OnLoan
                && config.special_elastic_treatment
                && s.group == ServerGroup::Unassigned
            {
                s.group = group;
            }
            match assignment.iter_mut().find(|(id, _)| *id == s.id) {
                Some(slot) => slot.1 += 1,
                None => assignment.push((s.id, 1)),
            }
            remaining -= 1;
        }
        if remaining == 0 {
            break;
        }
        if !span_pools && !assignment.is_empty() {
            break;
        }
    }
    assignment
}

/// Places a batch of requests with best-fit-decreasing ordering.
///
/// Mutates `servers` (free GPUs and on-loan group labels) to reflect the
/// successful placements. Gang requests (inelastic / elastic base) either
/// place all workers within a single pool — non-hetero jobs must not mix
/// GPU types — or fail atomically. Flexible requests place as many workers
/// as fit, trying each preferred pool in turn, and may split across pools
/// only for hetero jobs.
///
/// # Examples
///
/// ```
/// use lyra_core::placement::*;
/// use lyra_core::snapshot::{PoolKind, ServerView};
/// use lyra_core::{GpuType, JobId};
///
/// let mut servers = vec![ServerView::idle(0, PoolKind::Training, GpuType::V100, 8)];
/// let reqs = vec![PlacementRequest {
///     job: JobId(1),
///     workers: 2,
///     gpus_per_worker: 4,
///     role: WorkerRole::Inelastic,
///     fungible: false,
///     hetero: false,
/// }];
/// let out = place_workers(&mut servers, &reqs, PlacementConfig::default());
/// assert_eq!(out.workers_placed(JobId(1)), 2);
/// assert_eq!(servers[0].free_gpus, 0);
/// ```
pub fn place_workers(
    servers: &mut [ServerView],
    requests: &[PlacementRequest],
    config: PlacementConfig,
) -> PlacementOutcome {
    place_workers_with(&mut PlacementScratch::default(), servers, requests, config)
}

/// [`place_workers`] over a caller-owned [`PlacementScratch`], reusing the
/// gang-placement server copy and the audit candidate list across calls.
pub fn place_workers_with(
    scratch: &mut PlacementScratch,
    servers: &mut [ServerView],
    requests: &[PlacementRequest],
    config: PlacementConfig,
) -> PlacementOutcome {
    let _timing = lyra_obs::span::span("core.placement");
    let auditing = lyra_obs::audit::is_enabled();
    let PlacementScratch {
        undo: gang_undo,
        fits: candidates,
    } = scratch;
    // BFD: largest per-worker GPU demand first; stable by job id.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[b]
            .gpus_per_worker
            .cmp(&requests[a].gpus_per_worker)
            .then(requests[a].job.cmp(&requests[b].job))
    });

    let mut outcome = PlacementOutcome::default();
    for idx in order {
        let req = &requests[idx];
        if req.workers == 0 {
            continue;
        }
        let (pools, group) = pool_preference(req, config);
        // Candidate fits (and their best-fit costs) before this request
        // mutates the scratch state, for the decision audit.
        candidates.clear();
        if auditing {
            candidate_fits_into(candidates, servers, &pools, req.gpus_per_worker, group, config);
        }
        let gang = matches!(req.role, WorkerRole::Inelastic | WorkerRole::ElasticBase);
        if gang {
            // All workers in one pool, first preference that fits.
            let placed = pools.iter().find_map(|pool| {
                place_gang_into(
                    gang_undo,
                    servers,
                    *pool,
                    req.workers,
                    req.gpus_per_worker,
                    group,
                    config,
                )
            });
            if auditing {
                audit_placement(
                    req.job,
                    req.role,
                    req.gpus_per_worker,
                    placed.as_ref(),
                    candidates,
                );
            }
            match placed {
                Some(a) => outcome.placed.push((req.job, req.role, a)),
                None => outcome.failed.push(req.job),
            }
        } else {
            // Best effort, worker by worker; hetero jobs may span pools.
            let assignment = place_best_effort(
                servers,
                &pools,
                req.workers,
                req.gpus_per_worker,
                group,
                config,
                req.hetero,
            );
            if auditing {
                let placed = (!assignment.is_empty()).then(|| assignment.clone());
                audit_placement(
                    req.job,
                    req.role,
                    req.gpus_per_worker,
                    placed.as_ref(),
                    candidates,
                );
            }
            if !assignment.is_empty() {
                outcome.placed.push((req.job, req.role, assignment));
            } else if req.workers > 0 {
                outcome.failed.push(req.job);
            }
        }
    }
    outcome
}

/// Servers that could host one worker of this request, with their free
/// GPUs (the best-fit cost), in pool-preference then tightest-fit order.
pub(crate) fn candidate_fits(
    servers: &[ServerView],
    pools: &[PoolKind],
    demand: u32,
    group: ServerGroup,
    config: PlacementConfig,
) -> Vec<(u32, u32)> {
    let mut fits = Vec::new();
    candidate_fits_into(&mut fits, servers, pools, demand, group, config);
    fits
}

/// [`candidate_fits`] into a caller-owned buffer (cleared first): each
/// pool's slice is appended then sorted in place, so the result order is
/// identical to the allocating variant without a per-pool temporary.
pub(crate) fn candidate_fits_into(
    fits: &mut Vec<(u32, u32)>,
    servers: &[ServerView],
    pools: &[PoolKind],
    demand: u32,
    group: ServerGroup,
    config: PlacementConfig,
) {
    fits.clear();
    for pool in pools {
        let start = fits.len();
        fits.extend(
            servers
                .iter()
                .filter(|s| {
                    s.pool == *pool && s.free_gpus >= demand && group_compatible(s, group, config)
                })
                .map(|s| (s.id.0, s.free_gpus)),
        );
        fits[start..].sort_by_key(|&(id, free)| (free, id));
    }
}

/// Cap on rejected alternatives kept per placement audit record.
const AUDIT_ALTERNATIVES: usize = 8;

/// Records a [`lyra_obs::audit::AuditRecord::PlacementDecision`]: the
/// chosen server (when the request placed) and the rejected candidates
/// with their best-fit costs.
pub(crate) fn audit_placement(
    job: JobId,
    role: WorkerRole,
    gpus_per_worker: u32,
    assignment: Option<&Assignment>,
    candidates: &[(u32, u32)],
) {
    let role = match role {
        WorkerRole::Inelastic => "inelastic",
        WorkerRole::ElasticBase => "elastic_base",
        WorkerRole::ElasticFlexible => "elastic_flexible",
    };
    let chosen = assignment.and_then(|a| a.first()).map(|(id, _)| id.0);
    let chosen_free_gpus = chosen
        .and_then(|id| candidates.iter().find(|&&(c, _)| c == id))
        .map(|&(_, free)| free)
        .unwrap_or(0);
    let alternatives = candidates
        .iter()
        .filter(|&&(id, _)| Some(id) != chosen)
        .take(AUDIT_ALTERNATIVES)
        .copied()
        .collect();
    lyra_obs::audit::record(lyra_obs::audit::AuditRecord::PlacementDecision {
        job: job.0,
        role: role.to_string(),
        gpus: gpus_per_worker,
        chosen,
        chosen_free_gpus,
        alternatives,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuType;

    fn training(n: u32) -> Vec<ServerView> {
        (0..n)
            .map(|i| ServerView::idle(i, PoolKind::Training, GpuType::V100, 8))
            .collect()
    }

    fn mixed(train: u32, loaned: u32) -> Vec<ServerView> {
        let mut v = training(train);
        for i in 0..loaned {
            v.push(ServerView::idle(
                train + i,
                PoolKind::OnLoan,
                GpuType::T4,
                8,
            ));
        }
        v
    }

    fn req(job: u64, workers: u32, gpw: u32, role: WorkerRole) -> PlacementRequest {
        PlacementRequest {
            job: JobId(job),
            workers,
            gpus_per_worker: gpw,
            role,
            fungible: false,
            hetero: false,
        }
    }

    #[test]
    fn best_fit_prefers_fullest_server() {
        let mut servers = training(2);
        servers[0].free_gpus = 3; // non-empty, tight fit
        servers[1].free_gpus = 7; // non-empty, loose fit
        let out = place_workers(
            &mut servers,
            &[req(1, 1, 3, WorkerRole::Inelastic)],
            PlacementConfig::default(),
        );
        assert_eq!(out.placed[0].2, vec![(ServerId(0), 1)]);
        assert_eq!(servers[0].free_gpus, 0);
    }

    #[test]
    fn empty_server_only_when_no_partial_fits() {
        let mut servers = training(2);
        servers[0].free_gpus = 2; // non-empty but too small for 4 GPUs
        let out = place_workers(
            &mut servers,
            &[req(1, 1, 4, WorkerRole::Inelastic)],
            PlacementConfig::default(),
        );
        assert_eq!(out.placed[0].2, vec![(ServerId(1), 1)]);
    }

    #[test]
    fn bfd_orders_by_per_worker_demand() {
        // An 8-GPU and two 4-GPU workers into two servers: the 8-GPU worker
        // must be placed first or fragmentation strands it.
        let mut servers = training(2);
        let reqs = vec![
            req(1, 2, 4, WorkerRole::Inelastic),
            req(2, 1, 8, WorkerRole::Inelastic),
        ];
        let out = place_workers(&mut servers, &reqs, PlacementConfig::default());
        assert!(out.failed.is_empty());
        assert_eq!(out.workers_placed(JobId(1)), 2);
        assert_eq!(out.workers_placed(JobId(2)), 1);
        assert_eq!(servers[0].free_gpus + servers[1].free_gpus, 0);
    }

    #[test]
    fn gang_placement_is_atomic() {
        let mut servers = training(1); // 8 GPUs total
        let reqs = vec![req(1, 3, 4, WorkerRole::Inelastic)]; // needs 12
        let before = servers.clone();
        let out = place_workers(&mut servers, &reqs, PlacementConfig::default());
        assert_eq!(out.failed, vec![JobId(1)]);
        assert_eq!(servers, before, "failed gang leaves no residue");
    }

    #[test]
    fn non_fungible_cannot_use_on_loan() {
        let mut servers = mixed(0, 2);
        let out = place_workers(
            &mut servers,
            &[req(1, 1, 1, WorkerRole::Inelastic)],
            PlacementConfig::default(),
        );
        assert_eq!(out.failed, vec![JobId(1)]);
    }

    #[test]
    fn fungible_inelastic_prefers_training() {
        let mut servers = mixed(1, 1);
        let mut r = req(1, 1, 2, WorkerRole::Inelastic);
        r.fungible = true;
        let out = place_workers(&mut servers, &[r], PlacementConfig::default());
        assert_eq!(out.placed[0].2[0].0, ServerId(0), "training first");
    }

    #[test]
    fn elastic_fungible_prefers_on_loan() {
        let mut servers = mixed(1, 1);
        let mut r = req(1, 2, 2, WorkerRole::ElasticBase);
        r.fungible = true;
        let out = place_workers(&mut servers, &[r], PlacementConfig::default());
        assert_eq!(out.placed[0].2[0].0, ServerId(1), "on-loan first");
        assert_eq!(servers[1].group, ServerGroup::Base);
    }

    #[test]
    fn base_and_flexible_go_to_separate_groups() {
        let mut servers = mixed(0, 2);
        let mut base = req(1, 2, 2, WorkerRole::ElasticBase);
        base.fungible = true;
        let mut flex = req(1, 2, 2, WorkerRole::ElasticFlexible);
        flex.fungible = true;
        let out = place_workers(&mut servers, &[base, flex], PlacementConfig::default());
        assert!(out.failed.is_empty());
        let groups: Vec<ServerGroup> = servers.iter().map(|s| s.group).collect();
        assert!(groups.contains(&ServerGroup::Base));
        assert!(groups.contains(&ServerGroup::Flexible));
        // No server hosts both roles.
        for (_, role, a) in &out.placed {
            for (sid, _) in a {
                let s = servers.iter().find(|s| s.id == *sid).unwrap();
                match role {
                    WorkerRole::ElasticBase => assert_eq!(s.group, ServerGroup::Base),
                    WorkerRole::ElasticFlexible => assert_eq!(s.group, ServerGroup::Flexible),
                    WorkerRole::Inelastic => {}
                }
            }
        }
    }

    #[test]
    fn group_split_disabled_packs_together() {
        let mut servers = mixed(0, 2);
        let mut base = req(1, 2, 2, WorkerRole::ElasticBase);
        base.fungible = true;
        let mut flex = req(1, 2, 2, WorkerRole::ElasticFlexible);
        flex.fungible = true;
        let config = PlacementConfig {
            special_elastic_treatment: false,
        };
        let out = place_workers(&mut servers, &[base, flex], config);
        // Without special treatment both land where BFD sends them and the
        // flexible request degrades to training-pool preference — here only
        // on-loan exists for fungible jobs... base prefers Training first
        // but none exists, so it fails? No: fungible allows OnLoan second.
        assert!(out.failed.is_empty());
        assert_eq!(servers[0].group, ServerGroup::Unassigned);
    }

    #[test]
    fn flexible_is_best_effort() {
        let mut servers = mixed(1, 0); // 8 training GPUs
        let r = req(1, 5, 2, WorkerRole::ElasticFlexible); // wants 10 GPUs
        let out = place_workers(&mut servers, &[r], PlacementConfig::default());
        assert_eq!(out.workers_placed(JobId(1)), 4);
        assert!(out.failed.is_empty());
        assert_eq!(servers[0].free_gpus, 0);
    }

    #[test]
    fn non_hetero_flexible_does_not_span_pools() {
        let mut servers = mixed(1, 1);
        let mut r = req(1, 8, 2, WorkerRole::ElasticFlexible);
        r.fungible = true;
        let out = place_workers(&mut servers, &[r], PlacementConfig::default());
        // Prefers on-loan (4 workers fit); must NOT spill onto V100s.
        assert_eq!(out.workers_placed(JobId(1)), 4);
        assert_eq!(servers[0].free_gpus, 8, "training untouched");
    }

    #[test]
    fn hetero_flexible_spans_pools() {
        let mut servers = mixed(1, 1);
        let mut r = req(1, 8, 2, WorkerRole::ElasticFlexible);
        r.fungible = true;
        r.hetero = true;
        let out = place_workers(&mut servers, &[r], PlacementConfig::default());
        assert_eq!(out.workers_placed(JobId(1)), 8);
        assert_eq!(servers[0].free_gpus, 0);
        assert_eq!(servers[1].free_gpus, 0);
    }

    #[test]
    fn zero_worker_request_is_ignored() {
        let mut servers = training(1);
        let out = place_workers(
            &mut servers,
            &[req(1, 0, 2, WorkerRole::Inelastic)],
            PlacementConfig::default(),
        );
        assert!(out.placed.is_empty() && out.failed.is_empty());
    }

    #[test]
    fn assignment_counts_sum_to_workers() {
        let mut servers = training(3);
        let reqs = vec![req(1, 5, 3, WorkerRole::Inelastic)];
        let out = place_workers(&mut servers, &reqs, PlacementConfig::default());
        let total: u32 = out.placed[0].2.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 5);
        let used: u32 = servers.iter().map(|s| s.used_gpus()).sum();
        assert_eq!(used, 15);
    }
}
