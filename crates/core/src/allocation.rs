//! Lyra's two-phase resource allocation (§5.2).
//!
//! The key insight: an elastic job's demand splits into a *base* part that
//! behaves like an inelastic job (not granting it stalls the job) and a
//! *flexible* part that can be granted later without stalling anything.
//! Phase 1 therefore runs shortest-job-first over the **inelastic
//! workload** — inelastic jobs plus elastic jobs' base demands — to launch
//! as many jobs as possible and minimise queuing. Phase 2 hands the
//! remaining GPUs to elastic jobs' flexible demands by solving a
//! multiple-choice knapsack ([`crate::mckp`]) whose item values are JCT
//! reductions.
//!
//! The available capacity at an epoch is "idle GPUs and GPUs being used by
//! flexible workers for resizing": flexible workers of running elastic jobs
//! are *returned to the pool* before phase 1 and re-awarded (or not) by
//! phase 2, which is how Lyra scales jobs in under pressure without
//! preempting anyone.

use crate::job::JobId;
use crate::mckp::{
    effective_capacity, solve_mckp_with, McKnapsackGroup, McKnapsackItem, MckpScratch,
};
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};

/// How phase 1 orders the pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Phase1Order {
    /// Shortest-job-first on the estimated running time (§5.2's choice).
    #[default]
    Sjf,
    /// Least-attained-service, Tiresias-style: jobs that have consumed
    /// the least GPU-time go first. Needs *no* running-time estimates —
    /// the information-agnostic direction the paper names as future work
    /// (§10).
    Las,
    /// Plain submission order.
    Fifo,
}

/// How phase 2 distributes leftover GPUs to elastic jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Phase2Solver {
    /// The multiple-choice knapsack DP (§5.2's choice).
    #[default]
    Mckp,
    /// Greedy: repeatedly give one worker to the job with the highest
    /// marginal JCT reduction per GPU — the "greedy local heuristic"
    /// flavour the paper argues the knapsack beats (§2.3). Kept as an
    /// ablation.
    Greedy,
}

/// Tunables of the two-phase allocator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationConfig {
    /// Run phase 2 (elastic scale-out). Disabled for the capacity-loaning
    /// only experiments (§7.3).
    pub elastic_phase: bool,
    /// Normalise on-loan GPU capacity to V100-equivalents when sizing the
    /// pool (§5.2). When false, a GPU is a GPU.
    pub normalize_capacity: bool,
    /// Phase-1 queue ordering.
    pub phase1: Phase1Order,
    /// Phase-2 solver.
    pub phase2: Phase2Solver,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        AllocationConfig {
            elastic_phase: true,
            normalize_capacity: false,
            phase1: Phase1Order::Sjf,
            phase2: Phase2Solver::Mckp,
        }
    }
}

/// The allocator's decision for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AllocationOutcome {
    /// Pending jobs to launch, with their initial worker counts
    /// (base demand plus any phase-2 award), in launch order.
    pub launches: Vec<(JobId, u32)>,
    /// Index into `snapshot.pending` of each entry of `launches`
    /// (parallel array), so callers can resolve launch specs in
    /// O(launches) instead of re-scanning the queue.
    pub launch_indices: Vec<u32>,
    /// New worker targets for *running* elastic jobs whose allocation
    /// changed: `(job, new total workers)`. Omits unchanged jobs.
    pub resizes: Vec<(JobId, u32)>,
    /// Pending jobs that could not be scheduled this epoch.
    pub skipped: Vec<JobId>,
    /// GPUs of capacity left unused after both phases.
    pub leftover_gpus: u32,
}

/// Deferred phase-1 ranks past the capacity cut whose SJF estimates the
/// audit keeps (every admitted rank keeps its estimate).
const AUDIT_DEFERRED: usize = 8;

/// Cap on the option values kept per phase-2 audit curve: a wide elastic
/// range would bloat every record that carries one.
const AUDIT_VALUES: usize = 16;

/// Runs the two-phase allocation over a snapshot.
///
/// Phase 1 sorts pending jobs by their estimated base-demand running time
/// (SJF) and grants base demands while capacity lasts, skipping jobs that do
/// not fit. Phase 2 forms one knapsack group per elastic job — newly
/// launched or already running — and maximises total JCT reduction.
///
/// The returned worker counts are *allocation* results; worker-to-server
/// placement is a separate step ([`crate::placement`]).
///
/// # Examples
///
/// ```
/// use lyra_core::{two_phase_allocate, AllocationConfig, JobSpec, Snapshot};
/// use lyra_core::snapshot::{PendingJobView, PoolKind, ServerView};
/// use lyra_core::gpu::GpuType;
///
/// // Table 4: jobs A [2,3]×2 GPUs and B [2,6]×1 GPU share 8 GPUs.
/// let snapshot = Snapshot {
///     time_s: 0.0,
///     servers: vec![ServerView::idle(0, PoolKind::Training, GpuType::V100, 8)],
///     pending: vec![
///         PendingJobView::fresh(JobSpec::elastic(0, 0.0, 2, 3, 2, 100.0)),
///         PendingJobView::fresh(JobSpec::elastic(1, 0.0, 2, 6, 1, 20.0)),
///     ],
///     running: vec![],
/// };
/// let out = two_phase_allocate(&snapshot, AllocationConfig::default());
/// // Both bases fit (4 + 2 = 6 GPUs); the 2 leftover GPUs go to A
/// // (JCT reduction 50 beats B's 30) — §5.1's counterexample resolved.
/// assert_eq!(out.launches, vec![(lyra_core::JobId(1), 2), (lyra_core::JobId(0), 3)]);
/// ```
pub fn two_phase_allocate(snapshot: &Snapshot, config: AllocationConfig) -> AllocationOutcome {
    two_phase_allocate_with(&mut MckpScratch::default(), snapshot, config)
}

/// [`two_phase_allocate`] over a caller-owned phase-2 DP scratch.
///
/// Policies that run every scheduling epoch should hold one
/// [`MckpScratch`] and pass it here so the knapsack's DP and choice rows
/// are reused across ticks instead of reallocated.
pub fn two_phase_allocate_with(
    mckp_scratch: &mut MckpScratch,
    snapshot: &Snapshot,
    config: AllocationConfig,
) -> AllocationOutcome {
    let _timing = lyra_obs::span::span("core.allocation");
    let auditing = lyra_obs::audit::is_enabled();
    // Pool capacity: idle GPUs plus GPUs held by flexible workers of
    // running elastic jobs (which are up for resizing). When normalising,
    // *both* parts are V100-equivalents: a flexible worker's GPUs are
    // weighted by the capability of the server they sit on (an on-loan T4
    // flexible worker must not be counted at full V100 weight — the §5.3
    // steering case), and the floor is taken once over the sum so the two
    // parts cannot drift into mixed units.
    let mut capacity: u64 = if config.normalize_capacity {
        let idle = snapshot.normalized_free_gpus();
        let capability_of = |id: crate::snapshot::ServerId| -> f64 {
            snapshot
                .servers
                .iter()
                .find(|s| s.id == id)
                .map_or(1.0, |s| s.effective_capability())
        };
        let flexible: f64 = snapshot
            .running
            .iter()
            .flat_map(|r| {
                r.flex_placement.iter().map(move |&(sid, workers)| {
                    f64::from(workers) * f64::from(r.spec.gpus_per_worker) * capability_of(sid)
                })
            })
            .sum();
        (idle + flexible).floor() as u64
    } else {
        let flexible_pool: u64 = snapshot
            .running
            .iter()
            .map(|r| u64::from(r.flexible_workers) * u64::from(r.spec.gpus_per_worker))
            .sum();
        u64::from(snapshot.free_gpus()) + flexible_pool
    };

    // ---- Phase 1 over the inelastic workload. ----
    // One sequential pass copies everything the admit loop needs into
    // compact rows: the queue runs deep under load, and both an indexed
    // sort comparator and a per-admission spec lookup would chase
    // ~200-byte-stride pointers into the pending array on every step.
    // With inline rows the O(q log q) sort and the O(q) admit loop stay
    // in cache and never touch `snapshot.pending` again.
    struct Phase1Row {
        /// Priority key, pre-mapped to IEEE total-order bits so the hot
        /// sort compares integers instead of calling `partial_cmp` on
        /// floats. For the finite, `-0.0`-normalised keys produced above
        /// this orders exactly like `f64::partial_cmp`.
        key: u64,
        id: JobId,
        idx: u32,
        base_gpus: u32,
        w_min: u32,
    }
    fn total_order_bits(x: f64) -> u64 {
        // Normalise -0.0 to +0.0 (partial_cmp calls them equal) before
        // the standard sign-fold: negatives flip entirely, positives
        // just set the sign bit, making unsigned order = float order.
        let bits = (if x == 0.0 { 0.0f64 } else { x }).to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
    let mut order: Vec<Phase1Row> = snapshot
        .pending
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = match config.phase1 {
                Phase1Order::Sjf => p.est_running_time_s,
                // Attained service = GPU-time consumed so far, inferred
                // from the work already completed (work is reference
                // worker-seconds, i.e. GPU-time up to the per-worker GPU
                // factor).
                Phase1Order::Las => {
                    (p.spec.work() - p.work_left).max(0.0) * f64::from(p.spec.gpus_per_worker)
                }
                Phase1Order::Fifo => 0.0,
            };
            Phase1Row {
                key: total_order_bits(key),
                id: p.spec.id,
                idx: i as u32,
                base_gpus: p.spec.base_gpus(),
                w_min: p.spec.w_min(),
            }
        })
        .collect();
    if config.phase1 != Phase1Order::Fifo {
        order.sort_unstable_by_key(|r| (r.key, r.id));
    }

    let mut launches: Vec<(JobId, u32)> = Vec::new();
    let mut launch_indices: Vec<u32> = Vec::new();
    let mut skipped: Vec<JobId> = Vec::new();
    let phase1_capacity = capacity.min(u64::from(u32::MAX)) as u32;
    // The audit's columns: admitted ranks, and the SJF estimates of
    // every admitted rank and of the first deferrals past the cut (the
    // ranks `why` can explain; the deep tail of the queue keeps only its
    // ids).
    let mut audit_admitted: Vec<u32> = Vec::new();
    let mut audit_estimates: Vec<(u32, f64, u32)> = Vec::new();
    let mut deferred = 0;
    for (rank, r) in order.iter().enumerate() {
        let need = u64::from(r.base_gpus);
        let admitted = need <= capacity;
        if admitted {
            capacity -= need;
            launches.push((r.id, r.w_min));
            launch_indices.push(r.idx);
        } else {
            skipped.push(r.id);
        }
        if auditing {
            let rank = rank as u32;
            if admitted {
                audit_admitted.push(rank);
            } else {
                deferred += 1;
            }
            if admitted || deferred <= AUDIT_DEFERRED {
                let est = snapshot.pending[r.idx as usize].est_running_time_s;
                audit_estimates.push((rank, est, r.base_gpus));
            }
        }
    }
    if auditing && !order.is_empty() {
        lyra_obs::audit::record(lyra_obs::audit::AuditRecord::Phase1Order {
            capacity_gpus: phase1_capacity,
            order: order.iter().map(|r| r.id.0).collect(),
            admitted: audit_admitted,
            estimates: audit_estimates,
        });
    }

    // ---- Phase 2: MCKP over elastic jobs' flexible demand. ----
    let mut resizes: Vec<(JobId, u32)> = Vec::new();
    if config.elastic_phase {
        // Group sources: launched elastic pending jobs, then running
        // elastic jobs. Keep indices to map the solution back.
        enum Source {
            /// Pending index plus the job's position in `launches`.
            Pending { idx: usize, launch: usize },
            Running(usize),
        }
        let mut paired: Vec<(McKnapsackGroup, Source)> = Vec::new();

        let push_group = |id: JobId,
                          w_min: u32,
                          w_max: u32,
                          gpw: u32,
                          est_rt: f64,
                          curve: &crate::job::ScalingCurve,
                          src: Source,
                          paired: &mut Vec<(McKnapsackGroup, Source)>| {
            if w_max <= w_min || est_rt <= 0.0 {
                return;
            }
            let s_base = curve.speedup(w_min);
            let items: Vec<McKnapsackItem> = (1..=(w_max - w_min))
                .map(|k| {
                    let s_k = curve.speedup(w_min + k);
                    let value = if s_k > 0.0 {
                        est_rt * (1.0 - s_base / s_k)
                    } else {
                        0.0
                    };
                    McKnapsackItem {
                        weight: k * gpw,
                        value,
                    }
                })
                .collect();
            paired.push((McKnapsackGroup { key: id.0, items }, src));
        };

        for (launch, &idx) in launch_indices.iter().enumerate() {
            let idx = idx as usize;
            let p = &snapshot.pending[idx];
            if p.spec.is_elastic() {
                push_group(
                    p.spec.id,
                    p.spec.w_min(),
                    p.spec.w_max(),
                    p.spec.gpus_per_worker,
                    p.est_running_time_s,
                    &p.spec.curve,
                    Source::Pending { idx, launch },
                    &mut paired,
                );
            }
        }
        for (ridx, r) in snapshot.running.iter().enumerate() {
            if r.spec.is_elastic() {
                // Remaining running time at base demand, from remaining work.
                let rate = r.spec.service_rate(r.spec.w_min(), 1.0);
                let est_rt = if rate > 0.0 { r.work_left / rate } else { 0.0 };
                push_group(
                    r.spec.id,
                    r.spec.w_min(),
                    r.spec.w_max(),
                    r.spec.gpus_per_worker,
                    est_rt,
                    &r.spec.curve,
                    Source::Running(ridx),
                    &mut paired,
                );
            }
        }

        // Deterministic group order: by job id, which is unique (launches
        // come in phase-1 order). Sorting the pairs moves the groups
        // rather than cloning their item vectors.
        paired.sort_by_key(|(g, _)| g.key);
        let (groups_sorted, sources): (Vec<McKnapsackGroup>, Vec<Source>) =
            paired.into_iter().unzip();

        // The capacity the DP clamps to; the audit records it.
        let cap_u32 = effective_capacity(&groups_sorted, capacity);
        let solution = match config.phase2 {
            Phase2Solver::Mckp => solve_mckp_with(mckp_scratch, &groups_sorted, cap_u32),
            Phase2Solver::Greedy => solve_greedy(&groups_sorted, cap_u32),
        };
        capacity -= u64::from(solution.total_weight);

        for (slot, chosen) in solution.chosen.iter().enumerate() {
            // Item i grants i + 1 extra workers.
            let extra = chosen.map_or(0, |i| i as u32 + 1);
            match sources[slot] {
                Source::Pending { idx, launch } => {
                    let p = &snapshot.pending[idx];
                    if extra > 0 {
                        debug_assert_eq!(
                            launches[launch].0, p.spec.id,
                            "phase-2 award must patch its own launch entry"
                        );
                        launches[launch].1 = p.spec.w_min() + extra;
                    }
                }
                Source::Running(ridx) => {
                    let r = &snapshot.running[ridx];
                    let target = r.spec.w_min() + extra;
                    if target != r.workers {
                        resizes.push((r.spec.id, target));
                    }
                }
            }
        }
        resizes.sort_by_key(|(id, _)| *id);

        if auditing && !groups_sorted.is_empty() {
            // Every group's grant, and the value curve of each group
            // whose grant changes its job's allocation: a launch, or a
            // running job resized.
            let extra = solution
                .chosen
                .iter()
                .map(|c| c.map_or(0, |i| i as u32 + 1))
                .collect();
            let curves = groups_sorted
                .iter()
                .zip(&sources)
                .filter(|(g, src)| match src {
                    Source::Pending { .. } => true,
                    Source::Running(_) => resizes.binary_search_by_key(&g.key, |r| r.0 .0).is_ok(),
                })
                .map(|(g, _)| {
                    let values = g.items.iter().take(AUDIT_VALUES).map(|i| i.value);
                    (g.key, values.collect())
                })
                .collect();
            lyra_obs::audit::record(lyra_obs::audit::AuditRecord::Phase2Mckp {
                capacity_gpus: cap_u32,
                jobs: groups_sorted.iter().map(|g| g.key).collect(),
                extra,
                curves,
                total_value: solution.total_value,
                total_weight: solution.total_weight,
            });
        }
    }

    AllocationOutcome {
        launches,
        launch_indices,
        resizes,
        skipped,
        leftover_gpus: capacity.min(u64::from(u32::MAX)) as u32,
    }
}

/// The greedy phase-2 ablation solver, exposed verbatim for the
/// differential oracles in `lyra-oracle` (`test-oracles` feature only —
/// production callers go through `two_phase_allocate_with`).
#[cfg(feature = "test-oracles")]
pub fn greedy_phase2_for_oracles(
    groups: &[McKnapsackGroup],
    capacity: u32,
) -> crate::mckp::MckpSolution {
    solve_greedy(groups, capacity)
}

/// Greedy phase-2 ablation: repeatedly take the upgrade step (to the next
/// item within a group) with the best marginal value per GPU. Optimal for
/// concave value curves, suboptimal in general — the point of comparison
/// for the knapsack (§2.3).
fn solve_greedy(groups: &[McKnapsackGroup], capacity: u32) -> crate::mckp::MckpSolution {
    let mut chosen: Vec<Option<usize>> = vec![None; groups.len()];
    let mut used: u64 = 0;
    let cap = u64::from(capacity);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (g, group) in groups.iter().enumerate() {
            let next = chosen[g].map_or(0, |i| i + 1);
            let Some(item) = group.items.get(next) else {
                continue;
            };
            let (prev_w, prev_v) = chosen[g]
                .map(|i| (group.items[i].weight, group.items[i].value))
                .unwrap_or((0, 0.0));
            let dw = item.weight.saturating_sub(prev_w);
            let dv = item.value - prev_v;
            if dv <= 0.0 || used + u64::from(dw) > cap {
                continue;
            }
            let ratio = dv / f64::from(dw.max(1));
            if best.is_none_or(|(_, r)| ratio > r) {
                best = Some((g, ratio));
            }
        }
        let Some((g, _)) = best else { break };
        let next = chosen[g].map_or(0, |i| i + 1);
        let prev_w = chosen[g].map_or(0, |i| groups[g].items[i].weight);
        // Guard like the scan above: a non-monotone group (next item
        // lighter than the current one) must not underflow the budget.
        used += u64::from(groups[g].items[next].weight.saturating_sub(prev_w));
        chosen[g] = Some(next);
    }
    let total_value = chosen
        .iter()
        .enumerate()
        .filter_map(|(g, c)| c.map(|i| groups[g].items[i].value))
        .sum();
    let total_weight = chosen
        .iter()
        .enumerate()
        .filter_map(|(g, c)| c.map(|i| groups[g].items[i].weight))
        .sum();
    crate::mckp::MckpSolution {
        total_value,
        total_weight,
        chosen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuType;
    use crate::job::JobSpec;
    use crate::snapshot::{PendingJobView, PoolKind, RunningJobView, ServerId, ServerView};
    use std::collections::HashMap;

    fn cluster(gpus: u32) -> Vec<ServerView> {
        (0..gpus.div_ceil(8))
            .map(|i| ServerView::idle(i, PoolKind::Training, GpuType::V100, 8.min(gpus - i * 8)))
            .collect()
    }

    fn snap(servers: Vec<ServerView>, pending: Vec<JobSpec>) -> Snapshot {
        Snapshot {
            time_s: 0.0,
            servers,
            pending: pending.into_iter().map(PendingJobView::fresh).collect(),
            running: vec![],
        }
    }

    #[test]
    fn table2_equal_split_is_not_chosen() {
        // Table 2/3: A [2,6] 50 s, B [2,6] 20 s, 8 workers. The best of the
        // three listed solutions favours B (avg JCT 41.67). Two-phase:
        // bases 2+2, leftovers 4 go to the larger-value group.
        let a = JobSpec::elastic(0, 0.0, 2, 6, 1, 50.0);
        let b = JobSpec::elastic(1, 0.0, 2, 6, 1, 20.0);
        let out = two_phase_allocate(&snap(cluster(8), vec![a, b]), AllocationConfig::default());
        // Values for extra k: A: 150(1 − 2/(2+k)); B: 60(1 − 2/(2+k)).
        // A's values dominate B's at every k, so all 4 extras go to A:
        // A=6, B=2 → JCTs 50 and 60... but the MCKP maximises value sum
        // (runtime reduction), picking A's k=4 (value 100) over any split
        // (A3+B1: 90+12=102? A's k=3 is 90, B k=1 is 12 → 102 > 100).
        let m: HashMap<JobId, u32> = out.launches.iter().copied().collect();
        let total: u32 = m.values().sum();
        assert_eq!(total, 8, "all 8 workers allocated");
        assert_eq!(m[&JobId(0)] + m[&JobId(1)], 8);
        // Verify it picked the MCKP optimum over these value curves.
        let val =
            |spec: &JobSpec, w: u32| -> f64 { spec.base_running_time() - spec.running_time(w) };
        let a = JobSpec::elastic(0, 0.0, 2, 6, 1, 50.0);
        let b = JobSpec::elastic(1, 0.0, 2, 6, 1, 20.0);
        let achieved = val(&a, m[&JobId(0)]) + val(&b, m[&JobId(1)]);
        let mut best = 0.0_f64;
        for wa in 2..=6u32 {
            let wb = 8 - wa;
            if (2..=6).contains(&wb) {
                best = best.max(val(&a, wa) + val(&b, wb));
            }
        }
        assert!((achieved - best).abs() < 1e-9);
    }

    #[test]
    fn table4_prioritizes_job_a() {
        // Table 4: A [2,3]×2-GPU 100 s, B [2,6]×1-GPU 20 s, 8 GPUs.
        // Bases: A 4 GPUs + B 2 GPUs, 2 left. A's extra worker reduces JCT
        // by 50 s; B's best 2-GPU item reduces 30 s → favour A (avg 62).
        let a = JobSpec::elastic(0, 0.0, 2, 3, 2, 100.0);
        let b = JobSpec::elastic(1, 0.0, 2, 6, 1, 20.0);
        let out = two_phase_allocate(&snap(cluster(8), vec![a, b]), AllocationConfig::default());
        let m: HashMap<JobId, u32> = out.launches.iter().copied().collect();
        assert_eq!(m[&JobId(0)], 3, "A gets its flexible worker");
        assert_eq!(m[&JobId(1)], 2, "B stays at base");
    }

    #[test]
    fn phase1_is_sjf_with_skipping() {
        // 8 GPUs; three inelastic jobs: 60 s × 6 GPUs, 10 s × 4 GPUs,
        // 20 s × 4 GPUs. SJF launches the 10 s and 20 s jobs and skips the
        // 60 s one.
        let jobs = vec![
            JobSpec::inelastic(0, 0.0, 6, 1, 60.0),
            JobSpec::inelastic(1, 0.0, 4, 1, 10.0),
            JobSpec::inelastic(2, 0.0, 4, 1, 20.0),
        ];
        let out = two_phase_allocate(&snap(cluster(8), jobs), AllocationConfig::default());
        assert_eq!(out.launches, vec![(JobId(1), 4), (JobId(2), 4)]);
        assert_eq!(out.skipped, vec![JobId(0)]);
        assert_eq!(out.leftover_gpus, 0);
    }

    #[test]
    fn running_elastic_jobs_can_be_scaled_in() {
        // A running elastic job holds 4 workers (2 flexible). A pending
        // 10 s inelastic job needs 4 GPUs but only 2 are idle: phase 1 must
        // take the flexible pool, scaling the running job to base.
        let running = RunningJobView {
            spec: JobSpec::elastic(0, 0.0, 2, 6, 1, 100.0),
            workers: 4,
            work_left: 300.0,
            placement: vec![(ServerId(0), 4)],
            flexible_workers: 2,
            flex_placement: vec![(ServerId(0), 2)],
        };
        let mut servers = cluster(8);
        servers[0].free_gpus = 2; // 4 by the elastic job + 2 by someone else
        let pending = vec![JobSpec::inelastic(1, 0.0, 4, 1, 10.0)];
        let snapshot = Snapshot {
            time_s: 0.0,
            servers,
            pending: pending.into_iter().map(PendingJobView::fresh).collect(),
            running: vec![running],
        };
        let out = two_phase_allocate(&snapshot, AllocationConfig::default());
        assert_eq!(out.launches, vec![(JobId(1), 4)]);
        assert_eq!(out.resizes, vec![(JobId(0), 2)]);
    }

    #[test]
    fn running_elastic_jobs_can_be_scaled_out() {
        let running = RunningJobView {
            spec: JobSpec::elastic(0, 0.0, 2, 6, 1, 100.0),
            workers: 2,
            work_left: 300.0,
            placement: vec![(ServerId(0), 2)],
            flexible_workers: 0,
            flex_placement: vec![],
        };
        let mut servers = cluster(8);
        servers[0].free_gpus = 6;
        let snapshot = Snapshot {
            time_s: 0.0,
            servers,
            pending: vec![],
            running: vec![running],
        };
        let out = two_phase_allocate(&snapshot, AllocationConfig::default());
        assert_eq!(out.resizes, vec![(JobId(0), 6)]);
        assert_eq!(out.leftover_gpus, 2);
    }

    #[test]
    fn elastic_phase_disabled_keeps_bases_only() {
        let a = JobSpec::elastic(0, 0.0, 2, 6, 1, 50.0);
        let out = two_phase_allocate(
            &snap(cluster(8), vec![a]),
            AllocationConfig {
                elastic_phase: false,
                normalize_capacity: false,
                ..AllocationConfig::default()
            },
        );
        assert_eq!(out.launches, vec![(JobId(0), 2)]);
        assert_eq!(out.leftover_gpus, 6);
    }

    #[test]
    fn normalization_discounts_on_loan_gpus() {
        // 8 idle T4 GPUs ≈ 2.67 V100-equivalents: a 3-GPU job no longer
        // fits when normalising.
        let servers = vec![ServerView::idle(0, PoolKind::OnLoan, GpuType::T4, 8)];
        let pending = vec![JobSpec::inelastic(0, 0.0, 3, 1, 10.0)];
        let out = two_phase_allocate(
            &snap(servers.clone(), pending.clone()),
            AllocationConfig {
                elastic_phase: true,
                normalize_capacity: true,
                ..AllocationConfig::default()
            },
        );
        assert!(out.launches.is_empty());
        assert_eq!(out.skipped, vec![JobId(0)]);
        // Without normalisation it fits.
        let out = two_phase_allocate(&snap(servers, pending), AllocationConfig::default());
        assert_eq!(out.launches.len(), 1);
    }

    #[test]
    fn normalization_discounts_t4_flexible_workers() {
        // Regression: the flexible pool must be V100-normalized like the
        // idle pool. A running elastic job parks 6 flexible workers on an
        // on-loan T4 server; with 2 idle T4 GPUs the true pool is
        // (2 + 6) × 1/3 = 2.67 → 2 GPUs, so a 4-GPU job must be skipped.
        // The old code summed the flexible part raw (6 full GPUs) and
        // admitted it.
        let mut servers = vec![
            ServerView::idle(0, PoolKind::Training, GpuType::V100, 8),
            ServerView::idle(1, PoolKind::OnLoan, GpuType::T4, 8),
        ];
        servers[0].free_gpus = 6; // 2 held by the running job's base workers
        servers[1].free_gpus = 2; // 6 held by its flexible workers
        let running = RunningJobView {
            spec: JobSpec::elastic(0, 0.0, 2, 8, 1, 100.0),
            workers: 8,
            work_left: 300.0,
            placement: vec![(ServerId(0), 2), (ServerId(1), 6)],
            flexible_workers: 6,
            flex_placement: vec![(ServerId(1), 6)],
        };
        // Make the V100 server fully busy so only T4 capacity remains.
        servers[0].free_gpus = 0;
        let pending = vec![JobSpec::inelastic(1, 0.0, 4, 1, 10.0)];
        let config = AllocationConfig {
            elastic_phase: false, // isolate the capacity accounting
            normalize_capacity: true,
            ..AllocationConfig::default()
        };
        let snapshot = Snapshot {
            time_s: 0.0,
            servers: servers.clone(),
            pending: pending.clone().into_iter().map(PendingJobView::fresh).collect(),
            running: vec![running.clone()],
        };
        let out = two_phase_allocate(&snapshot, config);
        assert!(out.launches.is_empty(), "4-GPU job must not fit in 2.67 V100-equivalents");
        assert_eq!(out.skipped, vec![JobId(1)]);
        assert_eq!(out.leftover_gpus, 2, "leftover is normalized too");
        // Without normalisation a GPU is a GPU: 2 idle + 6 flexible = 8.
        let snapshot = Snapshot {
            time_s: 0.0,
            servers,
            pending: pending.into_iter().map(PendingJobView::fresh).collect(),
            running: vec![running],
        };
        let out = two_phase_allocate(
            &snapshot,
            AllocationConfig {
                elastic_phase: false,
                ..AllocationConfig::default()
            },
        );
        assert_eq!(out.launches, vec![(JobId(1), 4)]);
    }

    #[test]
    fn greedy_handles_non_monotone_group_weights() {
        // Regression: the apply step used an unguarded subtraction and
        // underflowed (debug) / wrapped (release) when a later item was
        // lighter than the current one.
        let groups = vec![McKnapsackGroup {
            key: 0,
            items: vec![
                McKnapsackItem { weight: 5, value: 10.0 },
                McKnapsackItem { weight: 2, value: 15.0 },
            ],
        }];
        let sol = solve_greedy(&groups, 10);
        assert!(sol.total_weight <= 10);
        assert!(sol.total_value >= 10.0);
    }

    proptest::proptest! {
        /// Greedy never beats the DP, never panics and never overpacks —
        /// on arbitrary (including non-monotone-weight) groups.
        #[test]
        fn greedy_bounded_by_dp_on_arbitrary_groups(
            groups in proptest::collection::vec(
                proptest::collection::vec((0u32..10, -10.0f64..50.0), 1..5),
                0..5,
            ),
            capacity in 0u32..30,
        ) {
            let groups: Vec<McKnapsackGroup> = groups
                .into_iter()
                .enumerate()
                .map(|(k, items)| McKnapsackGroup {
                    key: k as u64,
                    items: items
                        .into_iter()
                        .map(|(w, v)| McKnapsackItem { weight: w, value: v })
                        .collect(),
                })
                .collect();
            let greedy = solve_greedy(&groups, capacity);
            let dp = crate::mckp::solve_mckp(&groups, capacity);
            proptest::prop_assert!(greedy.total_value <= dp.total_value + 1e-9);
            proptest::prop_assert!(greedy.total_weight <= capacity);
        }
    }

    #[test]
    fn empty_snapshot_is_a_noop() {
        let out = two_phase_allocate(&Snapshot::default(), AllocationConfig::default());
        assert!(out.launches.is_empty());
        assert!(out.resizes.is_empty());
        assert!(out.skipped.is_empty());
    }

    #[test]
    fn audit_records_the_verdicts_of_the_outcome() {
        use lyra_obs::audit::{self, AuditRecord};
        // 8 idle GPUs plus R1's 2 flexible workers: a short elastic job
        // (A) and one 5-GPU job are admitted, eleven more 5-GPU jobs are
        // deferred, and 3 GPUs are left to phase 2. R1 (long) is resized;
        // R2 (almost done) keeps its base and so logs no curve.
        let running = |id, w_max, workers, work_left, flexible| RunningJobView {
            spec: JobSpec::elastic(id, 0.0, 2, w_max, 1, 1000.0),
            workers,
            work_left,
            placement: vec![(ServerId(1), workers)],
            flexible_workers: flexible,
            flex_placement: vec![(ServerId(1), flexible)],
        };
        let mut pending = vec![JobSpec::elastic(0, 0.0, 2, 4, 1, 10.0)];
        pending.extend((1..=12).map(|id| JobSpec::inelastic(id, 0.0, 5, 1, 100.0 + id as f64)));
        let snapshot = Snapshot {
            time_s: 0.0,
            servers: cluster(8),
            pending: pending.into_iter().map(PendingJobView::fresh).collect(),
            running: vec![running(100, 6, 4, 50_000.0, 2), running(101, 4, 2, 1.0, 0)],
        };
        audit::set_enabled(true);
        let out = two_phase_allocate(&snapshot, AllocationConfig::default());
        let records = audit::drain();
        audit::set_enabled(false);
        let [AuditRecord::Phase1Order {
            order,
            admitted,
            estimates,
            ..
        }, AuditRecord::Phase2Mckp {
            jobs,
            extra,
            curves,
            ..
        }] = records.as_slice()
        else {
            panic!("want one phase-1 and one phase-2 record, got {records:?}");
        };

        // Phase 1: the admitted ranks name exactly the launches.
        let admitted_ids: Vec<JobId> = admitted.iter().map(|&r| JobId(order[r as usize])).collect();
        let launched: Vec<JobId> = out.launches.iter().map(|&(id, _)| id).collect();
        assert_eq!(admitted_ids, launched);
        let deferred: Vec<u32> = (0..order.len() as u32)
            .filter(|r| !admitted.contains(r))
            .collect();
        assert_eq!(deferred.len(), 11, "more deferrals than the window");
        // Estimates: every admitted rank plus the deferral window.
        let mut want: Vec<u32> = admitted.clone();
        want.extend(&deferred[..AUDIT_DEFERRED]);
        want.sort_unstable();
        let ranks: Vec<u32> = estimates.iter().map(|e| e.0).collect();
        assert_eq!(ranks, want);
        for &(rank, est, base) in estimates {
            let p = snapshot
                .pending
                .iter()
                .find(|p| p.spec.id.0 == order[rank as usize])
                .expect("ranked job is pending");
            assert_eq!((est, base), (p.est_running_time_s, p.spec.base_gpus()));
        }

        // Phase 2: each group's grant is the launch or resize it caused.
        assert_eq!(jobs, &vec![0, 100, 101]);
        for (&job, &extra) in jobs.iter().zip(extra) {
            let workers = match out.launches.iter().find(|l| l.0 .0 == job) {
                Some(&(_, w)) => w,
                None => match out.resizes.iter().find(|r| r.0 .0 == job) {
                    Some(&(_, w)) => w,
                    None => {
                        let r = snapshot.running.iter().find(|r| r.spec.id.0 == job);
                        r.expect("every group is a launch or a running job").workers
                    }
                },
            };
            assert_eq!(workers, 2 + extra, "job {job}");
        }
        // Curves: the launched elastic job plus the resized jobs, only.
        let curve_jobs: Vec<u64> = curves.iter().map(|c| c.0).collect();
        let mut want: Vec<u64> = vec![0];
        want.extend(out.resizes.iter().map(|r| r.0 .0));
        assert_eq!(curve_jobs, want);
        assert_eq!(curve_jobs, vec![0, 100], "R1 resized, R2 unchanged");
        assert!(
            extra.iter().any(|&e| e > 0),
            "phase 2 granted something: {extra:?}"
        );
    }

    #[test]
    fn tie_on_runtime_breaks_by_job_id() {
        let jobs = vec![
            JobSpec::inelastic(5, 0.0, 4, 1, 10.0),
            JobSpec::inelastic(3, 0.0, 4, 1, 10.0),
        ];
        let out = two_phase_allocate(&snap(cluster(4), jobs), AllocationConfig::default());
        assert_eq!(out.launches, vec![(JobId(3), 4)]);
        assert_eq!(out.skipped, vec![JobId(5)]);
    }
}
