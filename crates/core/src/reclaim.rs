//! Server reclaiming for capacity loaning (§4).
//!
//! When the inference cluster asks for `N_R` servers back, every training
//! job running on a returned server must be preempted — losing all progress
//! unless it checkpoints. Picking the cheapest set of servers is a knapsack
//! problem with *dependent item values*: preempting a job that spans several
//! servers empties all of them at once, so server costs are coupled
//! (Figure 5 / Table 1).
//!
//! Lyra defines a server's **preemption cost** as the sum, over the jobs it
//! hosts, of the fraction of each job's servers that this server represents
//! (`Σ_j 1/servers(j)`), then greedily returns the lowest-cost server,
//! preempts its jobs everywhere, updates the remaining costs and repeats
//! until the demand is met. Ties are broken by the collateral damage the
//! choice would incur. The module also provides the paper's comparators:
//! [`reclaim_random`], smallest-count-first ([`reclaim_scf`]), the
//! GPU-fraction cost variant that Table 1 shows to be inferior, and an
//! exhaustive optimal search used in §7.3's optimality study.

use crate::job::JobId;
use crate::snapshot::ServerId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// How a server's preemption cost is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostModel {
    /// Lyra's choice: each job contributes `1 / (number of servers hosting
    /// it)` — the "sum of job's server fraction" column of Table 1.
    ServerFraction,
    /// Each job contributes the fraction of its GPUs on this server — the
    /// "sum of job's GPU fraction" column of Table 1, shown to mis-rank
    /// server 5 in the example.
    GpuFraction,
    /// Each job contributes 1 — the naive "# running jobs" column of
    /// Table 1 (the plain 0-1 knapsack value).
    JobCount,
}

/// A job's cluster-wide footprint, as needed for cost computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobFootprint {
    /// Job identity.
    pub id: JobId,
    /// Number of distinct servers hosting at least one of its workers
    /// (including servers outside the reclaim candidate set).
    pub total_servers: u32,
    /// Total GPUs the job occupies cluster-wide.
    pub total_gpus: u32,
}

/// A reclaim-candidate (on-loan) server and the jobs it hosts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReclaimServerView {
    /// Server identity.
    pub id: ServerId,
    /// Total GPUs installed.
    pub total_gpus: u32,
    /// `(job, GPUs that job occupies here)` for every job with ≥1 worker on
    /// this server.
    pub jobs: Vec<(JobId, u32)>,
}

impl ReclaimServerView {
    fn is_empty(&self, alive: &HashSet<JobId>) -> bool {
        self.jobs.iter().all(|(j, _)| !alive.contains(j))
    }
}

/// One reclaiming request from the orchestrator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReclaimRequest {
    /// Candidate on-loan servers (only these can be returned).
    pub servers: Vec<ReclaimServerView>,
    /// Footprints of every job appearing in `servers`.
    pub jobs: Vec<JobFootprint>,
    /// Number of servers the inference cluster wants back (`N_R`).
    pub need: usize,
}

impl ReclaimRequest {
    fn footprints(&self) -> HashMap<JobId, JobFootprint> {
        self.jobs.iter().map(|f| (f.id, *f)).collect()
    }

    /// Validates internal consistency; useful when assembling requests from
    /// external state.
    ///
    /// Returns an error string describing the first inconsistency found:
    /// a duplicate candidate server, a job listed twice on one server, a
    /// job on a server without a footprint, or per-server GPU usage
    /// exceeding the server size. Duplicates matter because the greedy
    /// loop indexes candidates by id and sums per-entry costs — a repeated
    /// entry would double-count a job's preemption cost and a repeated
    /// server could be "returned" twice toward the demand.
    pub fn validate(&self) -> Result<(), String> {
        let fp = self.footprints();
        let mut seen_servers: HashSet<ServerId> = HashSet::with_capacity(self.servers.len());
        for s in &self.servers {
            if !seen_servers.insert(s.id) {
                return Err(format!("{} appears twice among the candidates", s.id));
            }
            let mut used = 0;
            let mut seen_jobs: HashSet<JobId> = HashSet::with_capacity(s.jobs.len());
            for &(j, g) in &s.jobs {
                if !seen_jobs.insert(j) {
                    return Err(format!("{j} listed more than once on {}", s.id));
                }
                if !fp.contains_key(&j) {
                    return Err(format!("{j} on {} has no footprint", s.id));
                }
                used += g;
            }
            if used > s.total_gpus {
                return Err(format!(
                    "{} hosts {used} GPUs of jobs but has only {}",
                    s.id, s.total_gpus
                ));
            }
        }
        Ok(())
    }
}

/// Result of a reclaiming decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReclaimOutcome {
    /// Servers to hand back, in selection order.
    pub returned: Vec<ServerId>,
    /// Jobs that must be preempted.
    pub preempted: Vec<JobId>,
    /// GPUs vacated beyond the reclaiming demand (`need` × server size):
    /// idle GPUs on returned servers plus GPUs the preempted jobs held on
    /// servers that were *not* returned. This is the paper's "collateral
    /// damage" numerator (§7.3).
    pub collateral_gpus: u32,
    /// How many of the `need` servers could not be provided (candidates
    /// exhausted).
    pub shortfall: usize,
}

/// Per-server preemption cost under a [`CostModel`], considering only
/// still-alive jobs.
///
/// For the server-fraction model the denominator is capped at the
/// *remaining demand*: vacating more servers than the inference cluster
/// asked for is pure collateral, so a job spanning five servers is no
/// cheaper than a single-server job when only one server is needed. With
/// `need_left ≥ span` this reduces to the paper's `1/servers(j)`.
fn server_cost(
    server: &ReclaimServerView,
    alive: &HashSet<JobId>,
    footprints: &HashMap<JobId, JobFootprint>,
    model: CostModel,
    need_left: usize,
) -> f64 {
    server
        .jobs
        .iter()
        .filter(|(j, _)| alive.contains(j))
        .map(|&(j, gpus_here)| {
            let fp = &footprints[&j];
            match model {
                CostModel::ServerFraction => {
                    let useful = fp.total_servers.min(need_left.max(1) as u32).max(1);
                    1.0 / f64::from(useful)
                }
                CostModel::GpuFraction => f64::from(gpus_here) / f64::from(fp.total_gpus.max(1)),
                CostModel::JobCount => 1.0,
            }
        })
        .sum()
}

/// Computes Table 1's cost columns for a request — exposed for the `tab1`
/// experiment and tests.
///
/// The server-fraction column reports the paper's *uncapped* `1/servers(j)`
/// (Table 1 has no notion of remaining demand). The decision path still
/// uses the demand-capped cost — see [`reclaim_servers`] — so a request
/// whose `need` is smaller than a job's span shows the paper's number here
/// while the greedy loop ranks by the capped one.
pub fn cost_table(request: &ReclaimRequest) -> Vec<(ServerId, f64, f64, f64)> {
    let fp = request.footprints();
    let alive: HashSet<JobId> = fp.keys().copied().collect();
    request
        .servers
        .iter()
        .map(|s| {
            (
                s.id,
                server_cost(s, &alive, &fp, CostModel::JobCount, request.need),
                server_cost(s, &alive, &fp, CostModel::GpuFraction, request.need),
                server_cost(s, &alive, &fp, CostModel::ServerFraction, usize::MAX),
            )
        })
        .collect()
}

/// Collateral damage of returning `server` now: GPUs its alive jobs hold on
/// servers that will *not* be handed back as a result — i.e. non-candidate
/// servers, and candidate servers that do not become empty when this
/// server's jobs are preempted. Candidate servers that cascade-empty count
/// toward the reclaiming demand, so freeing them is not damage.
fn collateral_of(
    server: &ReclaimServerView,
    candidates: &[&ReclaimServerView],
    alive: &HashSet<JobId>,
    footprints: &HashMap<JobId, JobFootprint>,
) -> u32 {
    let preempt: HashSet<JobId> = server
        .jobs
        .iter()
        .filter(|(j, _)| alive.contains(j))
        .map(|(j, _)| *j)
        .collect();
    let mut on_candidates: HashMap<JobId, u32> = HashMap::new();
    let mut damage = 0;
    for t in candidates {
        let freed: u32 = t
            .jobs
            .iter()
            .filter(|(j, _)| preempt.contains(j))
            .map(|(_, g)| g)
            .sum();
        for &(j, g) in &t.jobs {
            if preempt.contains(&j) {
                *on_candidates.entry(j).or_insert(0) += g;
            }
        }
        if t.id == server.id || freed == 0 {
            continue;
        }
        let becomes_empty = t
            .jobs
            .iter()
            .all(|(j, _)| !alive.contains(j) || preempt.contains(j));
        if !becomes_empty {
            damage += freed;
        }
    }
    // GPUs held on servers outside the candidate set are always damage.
    for j in &preempt {
        let total = footprints.get(j).map_or(0, |f| f.total_gpus);
        damage += total.saturating_sub(on_candidates.get(j).copied().unwrap_or(0));
    }
    damage
}

/// Shared greedy loop: repeatedly take all empty candidates for free, then
/// apply `pick` to choose the next non-empty server to clear.
fn greedy_reclaim<F>(request: &ReclaimRequest, mut pick: F) -> ReclaimOutcome
where
    F: FnMut(&[&ReclaimServerView], &HashSet<JobId>, &HashMap<JobId, JobFootprint>, usize) -> usize,
{
    let _timing = lyra_obs::span::span("core.reclaim");
    let footprints = request.footprints();
    let mut alive: HashSet<JobId> = footprints.keys().copied().collect();
    let mut returned: Vec<ServerId> = Vec::new();
    let mut returned_set: HashSet<ServerId> = HashSet::new();
    let mut preempted: Vec<JobId> = Vec::new();

    while returned.len() < request.need {
        // Empty candidates (originally idle or emptied by cascades) are
        // free to return.
        if let Some(s) = request
            .servers
            .iter()
            .find(|s| !returned_set.contains(&s.id) && s.is_empty(&alive))
        {
            returned.push(s.id);
            returned_set.insert(s.id);
            continue;
        }
        let candidates: Vec<&ReclaimServerView> = request
            .servers
            .iter()
            .filter(|s| !returned_set.contains(&s.id))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let need_left = request.need - returned.len();
        let idx = pick(&candidates, &alive, &footprints, need_left);
        let victim = candidates[idx];
        for &(j, _) in &victim.jobs {
            if alive.remove(&j) {
                preempted.push(j);
            }
        }
        returned.push(victim.id);
        returned_set.insert(victim.id);
    }

    let collateral = collateral_damage(request, &returned, &preempted);
    let shortfall = request.need.saturating_sub(returned.len());
    ReclaimOutcome {
        returned,
        preempted,
        collateral_gpus: collateral,
        shortfall,
    }
}

/// Total GPUs vacated in excess of the demand actually served, for a given
/// returned-server set and preempted-job set.
fn collateral_damage(request: &ReclaimRequest, returned: &[ServerId], preempted: &[JobId]) -> u32 {
    let returned_set: HashSet<ServerId> = returned.iter().copied().collect();
    let preempted_set: HashSet<JobId> = preempted.iter().copied().collect();
    let footprints = request.footprints();
    // Idle GPUs on returned servers (capacity handed back unused by jobs,
    // beyond what was actually occupied) do not count as damage — the
    // demand is in servers. Damage is progress-bearing GPUs freed outside
    // returned servers.
    let mut on_returned: HashMap<JobId, u32> = HashMap::new();
    for s in &request.servers {
        if returned_set.contains(&s.id) {
            for &(j, g) in &s.jobs {
                *on_returned.entry(j).or_insert(0) += g;
            }
        }
    }
    preempted_set
        .iter()
        .map(|j| {
            let total = footprints.get(j).map_or(0, |f| f.total_gpus);
            total.saturating_sub(on_returned.get(j).copied().unwrap_or(0))
        })
        .sum()
}

/// Lyra's reclaiming heuristic (§4) under a configurable [`CostModel`].
///
/// Greedily returns the server with the lowest preemption cost, breaking
/// ties by collateral damage, preempts its jobs everywhere, updates costs
/// and repeats until `need` servers are vacated (cascade-emptied servers are
/// returned for free).
///
/// # Examples
///
/// ```
/// use lyra_core::reclaim::*;
/// use lyra_core::{JobId, ServerId};
/// // Figure 5: job a spans servers 1&2; reclaiming both costs 1 job.
/// let req = ReclaimRequest {
///     servers: vec![
///         ReclaimServerView { id: ServerId(1), total_gpus: 8, jobs: vec![(JobId(0), 8)] },
///         ReclaimServerView { id: ServerId(2), total_gpus: 8, jobs: vec![(JobId(0), 8)] },
///         ReclaimServerView { id: ServerId(3), total_gpus: 8, jobs: vec![(JobId(1), 8)] },
///     ],
///     jobs: vec![
///         JobFootprint { id: JobId(0), total_servers: 2, total_gpus: 16 },
///         JobFootprint { id: JobId(1), total_servers: 1, total_gpus: 8 },
///     ],
///     need: 2,
/// };
/// let out = reclaim_servers(&req, CostModel::ServerFraction);
/// assert_eq!(out.preempted.len(), 1); // only job a
/// ```
pub fn reclaim_servers(request: &ReclaimRequest, model: CostModel) -> ReclaimOutcome {
    greedy_reclaim(request, |candidates, alive, footprints, need_left| {
        let auditing = lyra_obs::audit::is_enabled();
        let mut audit_costs = Vec::new();
        let mut best = 0;
        let mut best_cost = f64::INFINITY;
        let mut best_coll = u32::MAX;
        for (i, s) in candidates.iter().enumerate() {
            let cost = server_cost(s, alive, footprints, model, need_left);
            let coll = collateral_of(s, candidates, alive, footprints);
            if auditing && audit_costs.len() < AUDIT_CANDIDATES {
                audit_costs.push(lyra_obs::audit::ReclaimCandidate {
                    server: s.id.0,
                    cost,
                    collateral_gpus: coll,
                });
            }
            if cost < best_cost - 1e-12 || ((cost - best_cost).abs() <= 1e-12 && coll < best_coll) {
                best = i;
                best_cost = cost;
                best_coll = coll;
            }
        }
        if auditing {
            audit_choice(candidates, alive, need_left, best, audit_costs);
        }
        best
    })
}

/// Cap on candidate costs kept per reclaim audit record.
const AUDIT_CANDIDATES: usize = 16;

/// Records a [`lyra_obs::audit::AuditRecord::ReclaimChoice`] for the pick
/// of `best` out of `candidates` — shared by every comparator so each
/// reclaiming decision leaves an audit trail regardless of policy.
fn audit_choice(
    candidates: &[&ReclaimServerView],
    alive: &HashSet<JobId>,
    need_left: usize,
    best: usize,
    audit_costs: Vec<lyra_obs::audit::ReclaimCandidate>,
) {
    let victim = candidates[best];
    let preempted: Vec<u64> = victim
        .jobs
        .iter()
        .filter(|(j, _)| alive.contains(j))
        .map(|(j, _)| j.0)
        .collect();
    let cause = (!preempted.is_empty()).then_some(lyra_obs::DelayCause::ReclaimPreemption);
    lyra_obs::audit::record(lyra_obs::audit::AuditRecord::ReclaimChoice {
        need: need_left as u32,
        candidates: audit_costs,
        chosen: victim.id.0,
        preempted,
        cause,
    });
}

/// Random reclaiming comparator (§7.1): clears uniformly random candidate
/// servers until the demand is met.
///
/// Audited like every other comparator, but with an empty candidate-cost
/// list: a uniform draw has no meaningful per-candidate cost.
pub fn reclaim_random<R: Rng>(request: &ReclaimRequest, rng: &mut R) -> ReclaimOutcome {
    greedy_reclaim(request, |candidates, alive, _, need_left| {
        let best = rng.gen_range(0..candidates.len());
        if lyra_obs::audit::is_enabled() {
            audit_choice(candidates, alive, need_left, best, Vec::new());
        }
        best
    })
}

/// Smallest-(job)-count-first comparator (§7.1): clears the candidate
/// hosting the fewest running jobs first.
///
/// Audit records carry each candidate's alive-job count as its cost, plus
/// the collateral damage its choice would incur, mirroring
/// [`reclaim_servers`]'s records.
pub fn reclaim_scf(request: &ReclaimRequest) -> ReclaimOutcome {
    greedy_reclaim(request, |candidates, alive, footprints, need_left| {
        let auditing = lyra_obs::audit::is_enabled();
        let mut audit_costs = Vec::new();
        let mut best = 0;
        let mut best_key = (usize::MAX, u32::MAX);
        for (i, s) in candidates.iter().enumerate() {
            let count = s.jobs.iter().filter(|(j, _)| alive.contains(j)).count();
            if auditing && audit_costs.len() < AUDIT_CANDIDATES {
                audit_costs.push(lyra_obs::audit::ReclaimCandidate {
                    server: s.id.0,
                    cost: count as f64,
                    collateral_gpus: collateral_of(s, candidates, alive, footprints),
                });
            }
            // Plain job-count ranking with an id tie-break — SCF is blind
            // to job spans, which is exactly what Lyra's cost fixes.
            if (count, s.id.0) < best_key {
                best = i;
                best_key = (count, s.id.0);
            }
        }
        if auditing {
            audit_choice(candidates, alive, need_left, best, audit_costs);
        }
        best
    })
}

/// Incremental reclaiming engine: produces exactly [`reclaim_servers`]'s
/// outcome, in far less time on large requests.
///
/// The from-scratch greedy loop recomputes every candidate's preemption
/// cost *and* collateral damage on every iteration — O(candidates² ×
/// job entries) per request, the dominant term in `core.reclaim`'s
/// profile. This engine memoises both across the loop's iterations:
///
/// * **Empty sweep** — alive-empty candidates sit in an ordered queue (a
///   [`BTreeSet`] of candidate positions), so taking the first free
///   server is O(log C) amortised instead of a scan per returned server.
/// * **Cost memo** — a candidate's cost changes only when one of its jobs
///   is preempted, or (server-fraction model) when the remaining demand
///   drops below the span of a job it hosts (the demand cap in the cost
///   definition). Both are tracked — preemptions through a job→hosts
///   inverted index, the cap through the largest alive span seen at
///   memoisation time — so the per-iteration scan reads cached costs.
/// * **Collateral memo** — collateral damage only *matters* on cost ties
///   (and in audit records), so it is computed lazily and cached. A
///   preemption cascade invalidates the servers hosting a preempted job
///   and, two hops out, every candidate sharing a still-alive job with
///   one of those servers (their `becomes_empty` status may flip).
///   Shrinkage of the candidate list alone never changes a cached value:
///   a returned server was either alive-empty (its entries can never
///   intersect a preemption set) or the victim itself, whose jobs just
///   died — covered by the first hop.
///
/// A strict priority heap deliberately does **not** replace the selection
/// scan: the from-scratch pick is an order-dependent epsilon chain
/// (`1e-12` cost ties broken by collateral, scanned in candidate order),
/// which is not a total order, so heap ordering could flip decisions.
/// With memoised costs the linear scan is no longer the bottleneck. The
/// `incremental_engine_matches_from_scratch` proptest pins both paths to
/// identical outcomes over randomised request sequences.
///
/// Scratch buffers persist across calls (cleared, never shrunk); the
/// engine holds no cross-request state.
#[derive(Debug, Clone, Default)]
pub struct ReclaimEngine {
    /// Job id → dense index into the per-job arrays below.
    job_index: HashMap<JobId, u32>,
    /// Per job: footprint span, footprint GPUs, liveness.
    fp_span: Vec<u32>,
    fp_gpus: Vec<u32>,
    alive: Vec<bool>,
    /// CSR inverted index: job → hosting candidate positions, one entry
    /// per `(server, job)` list entry so duplicates behave as they would
    /// from scratch.
    host_start: Vec<u32>,
    host_list: Vec<u32>,
    cursor: Vec<u32>,
    /// Per candidate: alive-entry count and the two memos.
    alive_entries: Vec<u32>,
    cost_cache: Vec<f64>,
    cost_valid: Vec<bool>,
    max_alive_span: Vec<u32>,
    coll_cache: Vec<u32>,
    coll_valid: Vec<bool>,
    returned_mask: Vec<bool>,
    /// Alive-empty, not-yet-returned candidates in candidate order.
    empty_queue: BTreeSet<u32>,
    /// Scratch for collateral computation and cascade invalidation.
    preempt_mark: Vec<bool>,
    preempt_list: Vec<u32>,
    on_candidates: Vec<u32>,
    touched: Vec<u32>,
    touched_mark: Vec<bool>,
}

impl ReclaimEngine {
    /// An engine with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the per-request indices, reusing buffer capacity.
    fn setup(&mut self, request: &ReclaimRequest) {
        let n = request.servers.len();
        let nj = request.jobs.len();
        self.job_index.clear();
        self.fp_span.clear();
        self.fp_gpus.clear();
        for (k, f) in request.jobs.iter().enumerate() {
            // On duplicate footprints the last one wins, matching
            // `ReclaimRequest::footprints`.
            self.job_index.insert(f.id, k as u32);
            self.fp_span.push(f.total_servers);
            self.fp_gpus.push(f.total_gpus);
        }
        self.alive.clear();
        self.alive.resize(nj, true);
        self.host_start.clear();
        self.host_start.resize(nj + 1, 0);
        for s in &request.servers {
            for (j, _) in &s.jobs {
                if let Some(&k) = self.job_index.get(j) {
                    self.host_start[k as usize + 1] += 1;
                }
            }
        }
        for k in 0..nj {
            self.host_start[k + 1] += self.host_start[k];
        }
        self.host_list.clear();
        self.host_list.resize(self.host_start[nj] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.host_start[..nj]);
        self.alive_entries.clear();
        self.empty_queue.clear();
        for (p, s) in request.servers.iter().enumerate() {
            let mut entries = 0u32;
            for (j, _) in &s.jobs {
                if let Some(&k) = self.job_index.get(j) {
                    self.host_list[self.cursor[k as usize] as usize] = p as u32;
                    self.cursor[k as usize] += 1;
                    entries += 1;
                }
            }
            self.alive_entries.push(entries);
            if entries == 0 {
                self.empty_queue.insert(p as u32);
            }
        }
        self.cost_cache.clear();
        self.cost_cache.resize(n, 0.0);
        self.cost_valid.clear();
        self.cost_valid.resize(n, false);
        self.max_alive_span.clear();
        self.max_alive_span.resize(n, 0);
        self.coll_cache.clear();
        self.coll_cache.resize(n, 0);
        self.coll_valid.clear();
        self.coll_valid.resize(n, false);
        self.returned_mask.clear();
        self.returned_mask.resize(n, false);
        self.preempt_mark.clear();
        self.preempt_mark.resize(nj, false);
        self.on_candidates.clear();
        self.on_candidates.resize(nj, 0);
        self.touched.clear();
        self.touched_mark.clear();
        self.touched_mark.resize(n, false);
    }

    /// Memoised [`server_cost`] of candidate `p`, entry order preserved so
    /// the floating-point sum is bit-identical to the from-scratch path.
    fn cost_of(&mut self, p: usize, request: &ReclaimRequest, model: CostModel, need_left: usize) -> f64 {
        let span_ok = match model {
            // A memo that was taken with every alive span within the
            // demand cap holds uncapped 1/span terms, which stay correct
            // exactly while the (strictly decreasing) demand still covers
            // the largest alive span.
            CostModel::ServerFraction => (self.max_alive_span[p] as usize) <= need_left,
            CostModel::GpuFraction | CostModel::JobCount => true,
        };
        if self.cost_valid[p] && span_ok {
            return self.cost_cache[p];
        }
        let mut sum = 0.0;
        let mut max_span = 0u32;
        for &(j, gpus_here) in &request.servers[p].jobs {
            let Some(&k) = self.job_index.get(&j) else {
                continue;
            };
            let k = k as usize;
            if !self.alive[k] {
                continue;
            }
            let span = self.fp_span[k];
            max_span = max_span.max(span);
            sum += match model {
                CostModel::ServerFraction => {
                    let useful = span.min(need_left.max(1) as u32).max(1);
                    1.0 / f64::from(useful)
                }
                CostModel::GpuFraction => {
                    f64::from(gpus_here) / f64::from(self.fp_gpus[k].max(1))
                }
                CostModel::JobCount => 1.0,
            };
        }
        self.cost_cache[p] = sum;
        self.cost_valid[p] = true;
        self.max_alive_span[p] = max_span;
        sum
    }

    /// Memoised [`collateral_of`] for candidate `p` against the current
    /// non-returned candidate list.
    fn coll_of(&mut self, p: usize, request: &ReclaimRequest) -> u32 {
        if self.coll_valid[p] {
            return self.coll_cache[p];
        }
        self.preempt_list.clear();
        for &(j, _) in &request.servers[p].jobs {
            let Some(&k) = self.job_index.get(&j) else {
                continue;
            };
            if self.alive[k as usize] && !self.preempt_mark[k as usize] {
                self.preempt_mark[k as usize] = true;
                self.preempt_list.push(k);
            }
        }
        let mut damage = 0u32;
        for (q, t) in request.servers.iter().enumerate() {
            if self.returned_mask[q] {
                continue;
            }
            let mut freed = 0u32;
            let mut becomes_empty = true;
            for &(j, g) in &t.jobs {
                let Some(&k) = self.job_index.get(&j) else {
                    continue;
                };
                let k = k as usize;
                if self.preempt_mark[k] {
                    freed += g;
                    self.on_candidates[k] += g;
                } else if self.alive[k] {
                    becomes_empty = false;
                }
            }
            if q == p || freed == 0 {
                continue;
            }
            if !becomes_empty {
                damage += freed;
            }
        }
        for &k in &self.preempt_list {
            let k = k as usize;
            damage += self.fp_gpus[k].saturating_sub(self.on_candidates[k]);
            self.on_candidates[k] = 0;
            self.preempt_mark[k] = false;
        }
        self.coll_cache[p] = damage;
        self.coll_valid[p] = true;
        damage
    }

    /// Incremental counterpart of [`reclaim_servers`]: identical returned
    /// set, preempted set, collateral and shortfall — and identical audit
    /// records when auditing is enabled.
    pub fn reclaim(&mut self, request: &ReclaimRequest, model: CostModel) -> ReclaimOutcome {
        let _timing = lyra_obs::span::span("core.reclaim");
        self.setup(request);
        let auditing = lyra_obs::audit::is_enabled();
        let n = request.servers.len();
        let mut returned: Vec<ServerId> = Vec::new();
        let mut preempted: Vec<JobId> = Vec::new();

        while returned.len() < request.need {
            // First-in-order alive-empty candidate is free to return.
            if let Some(&p) = self.empty_queue.iter().next() {
                self.empty_queue.remove(&p);
                self.returned_mask[p as usize] = true;
                returned.push(request.servers[p as usize].id);
                continue;
            }
            let need_left = request.need - returned.len();
            let mut best = usize::MAX;
            let mut best_cost = f64::INFINITY;
            let mut best_coll = u32::MAX;
            let mut best_coll_known = false;
            let mut audit_costs = Vec::new();
            for p in 0..n {
                if self.returned_mask[p] {
                    continue;
                }
                let cost = self.cost_of(p, request, model, need_left);
                if auditing && audit_costs.len() < AUDIT_CANDIDATES {
                    audit_costs.push(lyra_obs::audit::ReclaimCandidate {
                        server: request.servers[p].id.0,
                        cost,
                        collateral_gpus: self.coll_of(p, request),
                    });
                }
                if cost < best_cost - 1e-12 {
                    best = p;
                    best_cost = cost;
                    best_coll_known = false;
                } else if (cost - best_cost).abs() <= 1e-12 {
                    // Collateral is only fetched on ties — lazily for the
                    // incumbent too, since within an iteration the value
                    // is scan-order independent.
                    if !best_coll_known {
                        best_coll = self.coll_of(best, request);
                        best_coll_known = true;
                    }
                    let coll = self.coll_of(p, request);
                    if coll < best_coll {
                        best = p;
                        best_cost = cost;
                        best_coll = coll;
                    }
                }
            }
            if best == usize::MAX {
                break; // Candidates exhausted.
            }
            let victim_p = best;
            if auditing {
                let victim = &request.servers[victim_p];
                let pre: Vec<u64> = victim
                    .jobs
                    .iter()
                    .filter(|(j, _)| {
                        self.job_index.get(j).is_some_and(|&k| self.alive[k as usize])
                    })
                    .map(|(j, _)| j.0)
                    .collect();
                let cause =
                    (!pre.is_empty()).then_some(lyra_obs::DelayCause::ReclaimPreemption);
                lyra_obs::audit::record(lyra_obs::audit::AuditRecord::ReclaimChoice {
                    need: need_left as u32,
                    candidates: audit_costs,
                    chosen: victim.id.0,
                    preempted: pre,
                    cause,
                });
            }
            self.returned_mask[victim_p] = true;
            self.touched.clear();
            for &(j, _) in &request.servers[victim_p].jobs {
                let Some(&k) = self.job_index.get(&j) else {
                    continue;
                };
                let ku = k as usize;
                if !self.alive[ku] {
                    continue;
                }
                self.alive[ku] = false;
                preempted.push(j);
                for idx in self.host_start[ku] as usize..self.host_start[ku + 1] as usize {
                    let p = self.host_list[idx];
                    let pu = p as usize;
                    self.alive_entries[pu] -= 1;
                    self.cost_valid[pu] = false;
                    self.coll_valid[pu] = false;
                    if !self.touched_mark[pu] {
                        self.touched_mark[pu] = true;
                        self.touched.push(p);
                    }
                    if self.alive_entries[pu] == 0 && !self.returned_mask[pu] {
                        self.empty_queue.insert(p);
                    }
                }
            }
            returned.push(request.servers[victim_p].id);
            // Two-hop collateral invalidation: a candidate sharing a
            // still-alive job with a cascade-touched server may see that
            // server's `becomes_empty` status flip.
            for i in 0..self.touched.len() {
                let p = self.touched[i];
                self.touched_mark[p as usize] = false;
                for &(j, _) in &request.servers[p as usize].jobs {
                    let Some(&k) = self.job_index.get(&j) else {
                        continue;
                    };
                    let ku = k as usize;
                    if !self.alive[ku] {
                        continue;
                    }
                    for idx in self.host_start[ku] as usize..self.host_start[ku + 1] as usize {
                        self.coll_valid[self.host_list[idx] as usize] = false;
                    }
                }
            }
        }

        let collateral = collateral_damage(request, &returned, &preempted);
        let shortfall = request.need.saturating_sub(returned.len());
        ReclaimOutcome {
            returned,
            preempted,
            collateral_gpus: collateral,
            shortfall,
        }
    }
}

/// Exhaustive optimal reclaiming: the minimum-preemption solution, found by
/// searching job subsets in increasing size (§7.3's optimality study).
///
/// Exponential in the number of distinct jobs — use only on small instances
/// (the paper reports the optimum's running time is ~420 000× Lyra's).
/// Returns `None` when even preempting every job cannot vacate `need`
/// servers.
pub fn reclaim_exhaustive_optimal(request: &ReclaimRequest) -> Option<ReclaimOutcome> {
    let footprints = request.footprints();
    let job_ids: Vec<JobId> = {
        let mut v: Vec<JobId> = footprints.keys().copied().collect();
        v.sort_unstable();
        v
    };

    let vacated_by = |preempt: &HashSet<JobId>| -> Vec<ServerId> {
        request
            .servers
            .iter()
            .filter(|s| s.jobs.iter().all(|(j, _)| preempt.contains(j)))
            .map(|s| s.id)
            .collect()
    };

    /// Enumerates all `k`-subsets of `job_ids[start..]` extending `combo`,
    /// keeping the candidate with the least collateral damage.
    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        request: &ReclaimRequest,
        job_ids: &[JobId],
        k: usize,
        start: usize,
        combo: &mut Vec<JobId>,
        vacated_by: &dyn Fn(&HashSet<JobId>) -> Vec<ServerId>,
        best: &mut Option<ReclaimOutcome>,
    ) {
        if combo.len() == k {
            let preempt: HashSet<JobId> = combo.iter().copied().collect();
            let vacated = vacated_by(&preempt);
            if vacated.len() >= request.need {
                let returned: Vec<ServerId> = vacated.into_iter().take(request.need).collect();
                let mut preempted = combo.clone();
                preempted.sort_unstable();
                let collateral = collateral_damage(request, &returned, &preempted);
                let cand = ReclaimOutcome {
                    returned,
                    preempted,
                    collateral_gpus: collateral,
                    shortfall: 0,
                };
                let better = match best {
                    None => true,
                    Some(b) => cand.collateral_gpus < b.collateral_gpus,
                };
                if better {
                    *best = Some(cand);
                }
            }
            return;
        }
        for i in start..job_ids.len() {
            combo.push(job_ids[i]);
            enumerate(request, job_ids, k, i + 1, combo, vacated_by, best);
            combo.pop();
        }
    }

    // Smallest preemption count first: the first k with any feasible
    // solution is optimal in the primary objective.
    for k in 0..=job_ids.len() {
        let mut best: Option<ReclaimOutcome> = None;
        let mut combo = Vec::with_capacity(k);
        enumerate(request, &job_ids, k, 0, &mut combo, &vacated_by, &mut best);
        if best.is_some() {
            return best;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds Figure 5 / Table 1's example: six 8-GPU candidate servers.
    ///
    /// * servers 1, 2: job `a` spans both (half on each) — cost columns
    ///   (1, 0.5, 0.5);
    /// * server 3: job `b` fills it alone — (1, 1, 1);
    /// * server 4: 80 % of job `c`'s GPUs; `c`'s remainder sits on a
    ///   server outside the candidate set — (1, 0.8, 0.5);
    /// * server 5: jobs `d` and `e`, each holding 20 % of their GPUs here
    ///   (both span a second, non-candidate server) — (2, 0.4, 1);
    /// * server 6: 80 % of job `f`'s GPUs, remainder outside — (1, 0.8,
    ///   0.5).
    fn figure5() -> ReclaimRequest {
        let a = JobId(0);
        let b = JobId(1);
        let c = JobId(2);
        let d = JobId(3);
        let e = JobId(4);
        let f = JobId(5);
        ReclaimRequest {
            servers: vec![
                ReclaimServerView {
                    id: ServerId(1),
                    total_gpus: 8,
                    jobs: vec![(a, 4)],
                },
                ReclaimServerView {
                    id: ServerId(2),
                    total_gpus: 8,
                    jobs: vec![(a, 4)],
                },
                ReclaimServerView {
                    id: ServerId(3),
                    total_gpus: 8,
                    jobs: vec![(b, 8)],
                },
                ReclaimServerView {
                    id: ServerId(4),
                    total_gpus: 8,
                    jobs: vec![(c, 8)],
                },
                ReclaimServerView {
                    id: ServerId(5),
                    total_gpus: 8,
                    jobs: vec![(d, 2), (e, 2)],
                },
                ReclaimServerView {
                    id: ServerId(6),
                    total_gpus: 8,
                    jobs: vec![(f, 8)],
                },
            ],
            jobs: vec![
                JobFootprint {
                    id: a,
                    total_servers: 2,
                    total_gpus: 8,
                },
                JobFootprint {
                    id: b,
                    total_servers: 1,
                    total_gpus: 8,
                },
                JobFootprint {
                    id: c,
                    total_servers: 2,
                    total_gpus: 10,
                },
                JobFootprint {
                    id: d,
                    total_servers: 2,
                    total_gpus: 10,
                },
                JobFootprint {
                    id: e,
                    total_servers: 2,
                    total_gpus: 10,
                },
                JobFootprint {
                    id: f,
                    total_servers: 2,
                    total_gpus: 10,
                },
            ],
            need: 2,
        }
    }

    #[test]
    fn request_validation() {
        assert!(figure5().validate().is_ok());
        let mut bad = figure5();
        bad.servers[0].jobs.push((JobId(99), 1));
        assert!(bad.validate().is_err());
        let mut over = figure5();
        over.servers[0].jobs[0].1 = 100;
        assert!(over.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicate_candidate_servers() {
        let mut dup = figure5();
        let twin = dup.servers[2].clone();
        dup.servers.push(twin);
        let err = dup.validate().expect_err("duplicate ServerId must fail");
        assert!(err.contains("twice"), "unexpected message: {err}");
    }

    #[test]
    fn validation_rejects_duplicate_job_entries_on_one_server() {
        let mut dup = figure5();
        // Job d listed twice on server 5 — the cost sum would double-count.
        dup.servers[4].jobs.push((JobId(3), 1));
        let err = dup.validate().expect_err("duplicate job entry must fail");
        assert!(err.contains("more than once"), "unexpected message: {err}");
    }

    #[test]
    fn table1_cost_columns_match_paper() {
        let table = cost_table(&figure5());
        // (id, job-count, gpu-fraction, server-fraction)
        let by_id: HashMap<u32, (f64, f64, f64)> = table
            .into_iter()
            .map(|(id, a, b, c)| (id.0, (a, b, c)))
            .collect();
        // Server 1: 1 job, 0.5 GPU fraction, 0.5 server fraction.
        assert_eq!(by_id[&1], (1.0, 0.5, 0.5));
        assert_eq!(by_id[&2], (1.0, 0.5, 0.5));
        assert_eq!(by_id[&3], (1.0, 1.0, 1.0));
        // Server 4: 1 job, 0.8 GPU fraction, 0.5 server fraction.
        assert_eq!(by_id[&4], (1.0, 0.8, 0.5));
        // Server 5: 2 jobs, 0.2 + 0.2 GPU fraction, 0.5 + 0.5 server
        // fraction.
        let (n, g, s) = by_id[&5];
        assert_eq!(n, 2.0);
        assert!((g - 0.4).abs() < 1e-12);
        assert_eq!(s, 1.0);
        assert_eq!(by_id[&6], (1.0, 0.8, 0.5));
    }

    #[test]
    fn cost_table_reports_uncapped_server_fraction() {
        // Table 1 has no notion of remaining demand: even when `need` is
        // smaller than a job's span the reported column must stay the
        // paper's 1/servers(j). Jobs a, c, f span 2 servers > need = 1.
        let mut req = figure5();
        req.need = 1;
        let by_id: HashMap<u32, f64> = cost_table(&req)
            .into_iter()
            .map(|(id, _, _, sf)| (id.0, sf))
            .collect();
        assert_eq!(by_id[&1], 0.5);
        assert_eq!(by_id[&2], 0.5);
        assert_eq!(by_id[&3], 1.0);
        assert_eq!(by_id[&4], 0.5);
        assert_eq!(by_id[&5], 1.0);
        assert_eq!(by_id[&6], 0.5);
    }

    #[test]
    fn need_capped_cost_levels_wide_spans_in_decisions() {
        // Decision-path cost: at need_left == 1, vacating a 5-server job
        // is pure collateral beyond the first server, so it must cost as
        // much as a single-server job (satellite of the demand cap).
        let req = figure5();
        let fp = req.footprints();
        let alive: HashSet<JobId> = fp.keys().copied().collect();
        let mut wide = req.servers[0].clone(); // hosts job a
        wide.jobs = vec![(JobId(0), 4)];
        let mut fp_wide = fp.clone();
        fp_wide.get_mut(&JobId(0)).unwrap().total_servers = 5;
        let wide_cost = server_cost(&wide, &alive, &fp_wide, CostModel::ServerFraction, 1);
        let single_cost =
            server_cost(&req.servers[2], &alive, &fp, CostModel::ServerFraction, 1);
        assert_eq!(wide_cost, 1.0);
        assert_eq!(single_cost, 1.0);
        // With enough demand the paper's uncapped fraction returns.
        let uncapped = server_cost(&wide, &alive, &fp_wide, CostModel::ServerFraction, 5);
        assert!((uncapped - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lyra_reclaims_spanning_job_pair() {
        // Figure 5's optimum for N_R = 2: servers 1 & 2, one preemption.
        let out = reclaim_servers(&figure5(), CostModel::ServerFraction);
        assert_eq!(out.preempted.len(), 1);
        assert_eq!(out.preempted[0], JobId(0));
        let mut returned: Vec<u32> = out.returned.iter().map(|s| s.0).collect();
        returned.sort_unstable();
        assert_eq!(returned, vec![1, 2]);
        assert_eq!(out.collateral_gpus, 0);
        assert_eq!(out.shortfall, 0);
    }

    #[test]
    fn gpu_fraction_cost_makes_the_papers_mistake() {
        // Table 1's point: GPU-fraction cost ranks server 5 cheapest, which
        // preempts two jobs.
        let out = reclaim_servers(&figure5(), CostModel::GpuFraction);
        assert!(out.preempted.len() >= 2);
    }

    #[test]
    fn optimal_matches_lyra_on_figure5() {
        let opt = reclaim_exhaustive_optimal(&figure5()).expect("feasible");
        assert_eq!(opt.preempted.len(), 1);
        assert_eq!(opt.preempted[0], JobId(0));
    }

    #[test]
    fn scf_counts_jobs_not_fractions() {
        // SCF ranks every single-job server equally; with the secondary
        // tie-break it still avoids server 5 (two jobs).
        let out = reclaim_scf(&figure5());
        assert!(!out.returned.contains(&ServerId(5)));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = reclaim_random(&figure5(), &mut rng1);
        let b = reclaim_random(&figure5(), &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_servers_are_free() {
        let mut req = figure5();
        req.servers.push(ReclaimServerView {
            id: ServerId(7),
            total_gpus: 8,
            jobs: vec![],
        });
        req.need = 1;
        let out = reclaim_servers(&req, CostModel::ServerFraction);
        assert_eq!(out.returned, vec![ServerId(7)]);
        assert!(out.preempted.is_empty());
    }

    #[test]
    fn shortfall_reported_when_candidates_exhausted() {
        let mut req = figure5();
        req.need = 10;
        let out = reclaim_servers(&req, CostModel::ServerFraction);
        assert_eq!(out.returned.len(), 6);
        assert_eq!(out.shortfall, 4);
        assert_eq!(out.preempted.len(), 6);
    }

    #[test]
    fn cascade_emptied_servers_count_toward_demand() {
        // Preempting job a (spanning servers 1 and 2) vacates both with a
        // single preemption.
        let mut req = figure5();
        req.servers.retain(|s| s.id.0 == 1 || s.id.0 == 2);
        req.jobs.retain(|f| f.id == JobId(0));
        req.need = 2;
        let out = reclaim_servers(&req, CostModel::ServerFraction);
        assert_eq!(out.preempted, vec![JobId(0)]);
        assert_eq!(out.returned.len(), 2);
        assert_eq!(out.collateral_gpus, 0);
    }

    #[test]
    fn collateral_counts_gpus_outside_returned_servers() {
        // Only server 4 is a candidate; job c also holds 2 GPUs on server 6
        // (not a candidate here) → collateral = 2.
        let req = ReclaimRequest {
            servers: vec![ReclaimServerView {
                id: ServerId(4),
                total_gpus: 8,
                jobs: vec![(JobId(2), 8)],
            }],
            jobs: vec![JobFootprint {
                id: JobId(2),
                total_servers: 2,
                total_gpus: 10,
            }],
            need: 1,
        };
        let out = reclaim_servers(&req, CostModel::ServerFraction);
        assert_eq!(out.preempted, vec![JobId(2)]);
        assert_eq!(out.collateral_gpus, 2);
    }

    #[test]
    fn optimal_none_when_infeasible() {
        let req = ReclaimRequest {
            servers: vec![],
            jobs: vec![],
            need: 1,
        };
        assert!(reclaim_exhaustive_optimal(&req).is_none());
    }

    #[test]
    fn optimal_zero_preemptions_when_idle_servers_suffice() {
        let req = ReclaimRequest {
            servers: vec![
                ReclaimServerView {
                    id: ServerId(0),
                    total_gpus: 8,
                    jobs: vec![],
                },
                ReclaimServerView {
                    id: ServerId(1),
                    total_gpus: 8,
                    jobs: vec![(JobId(0), 8)],
                },
            ],
            jobs: vec![JobFootprint {
                id: JobId(0),
                total_servers: 1,
                total_gpus: 8,
            }],
            need: 1,
        };
        let opt = reclaim_exhaustive_optimal(&req).unwrap();
        assert!(opt.preempted.is_empty());
        assert_eq!(opt.returned, vec![ServerId(0)]);
    }

    #[test]
    fn collateral_cascade_emptied_candidate_is_demand_not_damage() {
        // Job a spans candidate servers 1 and 2. Preempting it from
        // server 1 cascade-empties server 2: those GPUs count toward the
        // demand, not the damage, and nothing sits outside the candidate
        // set — zero collateral.
        let req = figure5();
        let fp = req.footprints();
        let alive: HashSet<JobId> = fp.keys().copied().collect();
        let candidates: Vec<&ReclaimServerView> = req.servers.iter().collect();
        assert_eq!(collateral_of(&req.servers[0], &candidates, &alive, &fp), 0);
    }

    #[test]
    fn collateral_counts_surviving_candidate_and_remainder_gpus() {
        // Job x spans candidates 1 and 2; candidate 2 also hosts job y,
        // so preempting x leaves server 2 non-empty → x's 3 GPUs there
        // are damage. Job x's 2 GPUs on a non-candidate server are always
        // damage.
        let x = JobId(0);
        let y = JobId(1);
        let servers = vec![
            ReclaimServerView {
                id: ServerId(1),
                total_gpus: 8,
                jobs: vec![(x, 4)],
            },
            ReclaimServerView {
                id: ServerId(2),
                total_gpus: 8,
                jobs: vec![(x, 3), (y, 2)],
            },
        ];
        let req = ReclaimRequest {
            servers,
            jobs: vec![
                JobFootprint {
                    id: x,
                    total_servers: 3,
                    total_gpus: 9, // 4 + 3 on candidates, 2 outside
                },
                JobFootprint {
                    id: y,
                    total_servers: 1,
                    total_gpus: 2,
                },
            ],
            need: 1,
        };
        req.validate().unwrap();
        let fp = req.footprints();
        let alive: HashSet<JobId> = fp.keys().copied().collect();
        let candidates: Vec<&ReclaimServerView> = req.servers.iter().collect();
        // Returning server 1: 3 GPUs stranded on surviving candidate 2,
        // plus 2 GPUs on the non-candidate remainder.
        assert_eq!(collateral_of(&req.servers[0], &candidates, &alive, &fp), 5);
        // Returning server 2 preempts x and y, which cascade-empties
        // candidate 1 (demand, not damage); only x's 2 GPUs outside the
        // candidate set remain as damage.
        assert_eq!(collateral_of(&req.servers[1], &candidates, &alive, &fp), 2);
    }

    /// Random valid instance for differential tests: up to `max_servers`
    /// candidates (some possibly idle), jobs spanning 1–3 of them, plus
    /// off-candidate remainders folded into the footprints.
    fn random_request(rng: &mut StdRng, max_servers: usize) -> ReclaimRequest {
        use rand::Rng;
        let n_servers = rng.gen_range(2..=max_servers);
        let n_jobs = rng.gen_range(1..=(n_servers + 2));
        let mut servers: Vec<ReclaimServerView> = (0..n_servers)
            .map(|i| ReclaimServerView {
                id: ServerId(i as u32),
                total_gpus: 8,
                jobs: vec![],
            })
            .collect();
        let mut jobs = Vec::new();
        for j in 0..n_jobs {
            let span = rng.gen_range(1..=3usize).min(n_servers);
            let mut hosts = HashSet::new();
            while hosts.len() < span {
                hosts.insert(rng.gen_range(0..n_servers));
            }
            let mut placed = 0;
            for &h in &hosts {
                let free: u32 = 8 - servers[h].jobs.iter().map(|(_, g)| g).sum::<u32>();
                if free == 0 {
                    continue;
                }
                let g = rng.gen_range(1..=free.min(4));
                servers[h].jobs.push((JobId(j as u64), g));
                placed += g;
            }
            if placed > 0 {
                let hosts_used = servers
                    .iter()
                    .filter(|s| s.jobs.iter().any(|(id, _)| *id == JobId(j as u64)))
                    .count() as u32;
                // Sometimes the job also runs outside the candidate set.
                let outside = rng.gen_range(0..=4u32);
                let outside_hosts = u32::from(outside > 0);
                jobs.push(JobFootprint {
                    id: JobId(j as u64),
                    total_servers: hosts_used + outside_hosts,
                    total_gpus: placed + outside,
                });
            }
        }
        let need = rng.gen_range(1..=n_servers);
        let req = ReclaimRequest {
            servers,
            jobs,
            need,
        };
        req.validate().unwrap();
        req
    }

    #[test]
    fn incremental_engine_matches_from_scratch() {
        // One engine (scratch reused) across a random request sequence,
        // against the from-scratch greedy, for every cost model. Outcomes
        // must be identical field for field: returned order, preempted
        // order, collateral, shortfall.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut engine = ReclaimEngine::new();
        for trial in 0..400 {
            let req = random_request(&mut rng, 12);
            for model in [
                CostModel::ServerFraction,
                CostModel::GpuFraction,
                CostModel::JobCount,
            ] {
                let scratch = reclaim_servers(&req, model);
                let inc = engine.reclaim(&req, model);
                assert_eq!(
                    inc, scratch,
                    "trial {trial} {model:?}: engine diverged on {req:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_engine_handles_degenerate_requests() {
        let mut engine = ReclaimEngine::new();
        // Zero need.
        let mut req = figure5();
        req.need = 0;
        assert_eq!(
            engine.reclaim(&req, CostModel::ServerFraction),
            reclaim_servers(&req, CostModel::ServerFraction)
        );
        // No candidates.
        let empty = ReclaimRequest {
            servers: vec![],
            jobs: vec![],
            need: 3,
        };
        assert_eq!(
            engine.reclaim(&empty, CostModel::ServerFraction),
            reclaim_servers(&empty, CostModel::ServerFraction)
        );
        // Demand exceeding candidates (shortfall path) and idle servers.
        let mut big = figure5();
        big.servers.push(ReclaimServerView {
            id: ServerId(7),
            total_gpus: 8,
            jobs: vec![],
        });
        big.need = 10;
        assert_eq!(
            engine.reclaim(&big, CostModel::ServerFraction),
            reclaim_servers(&big, CostModel::ServerFraction)
        );
        // Job listed in footprints but hosted nowhere, and an entry whose
        // job has no footprint (the greedy treats it as not alive).
        let mut odd = figure5();
        odd.jobs.push(JobFootprint {
            id: JobId(77),
            total_servers: 0,
            total_gpus: 0,
        });
        odd.servers[2].jobs.push((JobId(88), 1));
        assert_eq!(
            engine.reclaim(&odd, CostModel::ServerFraction),
            reclaim_servers(&odd, CostModel::ServerFraction)
        );
    }

    #[test]
    fn heuristic_never_beats_optimal_on_random_instances() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..50 {
            // Random small instance: ≤6 servers, ≤6 jobs spanning 1-2.
            let n_servers = rng.gen_range(2..=6usize);
            let n_jobs = rng.gen_range(1..=6usize);
            let mut servers: Vec<ReclaimServerView> = (0..n_servers)
                .map(|i| ReclaimServerView {
                    id: ServerId(i as u32),
                    total_gpus: 8,
                    jobs: vec![],
                })
                .collect();
            let mut jobs = Vec::new();
            for j in 0..n_jobs {
                let span = rng.gen_range(1..=2usize).min(n_servers);
                let mut placed = 0;
                let mut hosts = HashSet::new();
                while hosts.len() < span {
                    hosts.insert(rng.gen_range(0..n_servers));
                }
                for &h in &hosts {
                    let free: u32 = 8 - servers[h].jobs.iter().map(|(_, g)| g).sum::<u32>();
                    if free == 0 {
                        continue;
                    }
                    let g = rng.gen_range(1..=free.min(4));
                    servers[h].jobs.push((JobId(j as u64), g));
                    placed += g;
                }
                if placed > 0 {
                    let hosts_used = servers
                        .iter()
                        .filter(|s| s.jobs.iter().any(|(id, _)| *id == JobId(j as u64)))
                        .count() as u32;
                    jobs.push(JobFootprint {
                        id: JobId(j as u64),
                        total_servers: hosts_used,
                        total_gpus: placed,
                    });
                }
            }
            let need = rng.gen_range(1..=n_servers);
            let req = ReclaimRequest {
                servers,
                jobs,
                need,
            };
            req.validate().unwrap();
            let lyra = reclaim_servers(&req, CostModel::ServerFraction);
            if lyra.shortfall > 0 {
                continue;
            }
            let opt = reclaim_exhaustive_optimal(&req)
                .unwrap_or_else(|| panic!("trial {trial}: optimal infeasible"));
            assert!(
                lyra.preempted.len() >= opt.preempted.len(),
                "trial {trial}: heuristic beat the optimum?"
            );
        }
    }
}
