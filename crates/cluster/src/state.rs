//! Cluster-wide state: the two management domains, loans and occupancy.
//!
//! The training scheduler controls exactly the servers on its *whitelist*
//! (§6): its dedicated V100 servers plus whatever inference servers are
//! currently on loan. Inference-owned servers never appear in scheduler
//! snapshots. All occupancy mutations validate first and apply atomically,
//! so a buggy policy cannot corrupt the bookkeeping.

use crate::server::Server;
use lyra_core::gpu::{GpuType, SpeedFactors};
use lyra_core::job::JobId;
use lyra_core::reclaim::{JobFootprint, ReclaimRequest, ReclaimServerView};
use lyra_core::snapshot::{PoolKind, ServerGroup, ServerId, ServerView};
use std::collections::{BTreeMap, BTreeSet};

/// Cluster shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Dedicated training servers (the paper: 443).
    pub training_servers: u32,
    /// Inference-owned servers (the paper: 520).
    pub inference_servers: u32,
    /// GPUs per server (8 in both clusters).
    pub gpus_per_server: u32,
    /// Per-generation speed multipliers stamped onto every server of the
    /// matching GPU type; all 1.0 reproduces the paper's environment.
    pub speed: SpeedFactors,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            training_servers: 443,
            inference_servers: 520,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        }
    }
}

impl ClusterConfig {
    /// The testbed shape of §7.5: four training and four inference
    /// servers.
    pub fn testbed() -> Self {
        ClusterConfig {
            training_servers: 4,
            inference_servers: 4,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        }
    }

    /// Sets the per-generation speed multipliers.
    pub fn with_speed(mut self, speed: SpeedFactors) -> Self {
        self.speed = speed;
        self
    }
}

/// Errors from cluster-state operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The server id does not exist.
    UnknownServer(ServerId),
    /// The server is not under training-scheduler control.
    NotWhitelisted(ServerId),
    /// The server is not currently on loan.
    NotLoaned(ServerId),
    /// The server is down (crashed) and cannot take part in the
    /// operation.
    ServerDown(ServerId),
    /// A loaned server cannot be returned while occupied.
    Occupied(ServerId),
    /// An occupancy mutation would overflow or underflow a server.
    Occupancy(String),
    /// Not enough idle inference servers to loan.
    InsufficientLoanable {
        /// Servers requested.
        requested: u32,
        /// Servers actually available.
        available: u32,
    },
    /// The state failed a consistency audit (see [`ClusterState::audit`]).
    AuditViolation(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownServer(s) => write!(f, "unknown {s}"),
            ClusterError::NotWhitelisted(s) => write!(f, "{s} is not whitelisted"),
            ClusterError::NotLoaned(s) => write!(f, "{s} is not on loan"),
            ClusterError::ServerDown(s) => write!(f, "{s} is down"),
            ClusterError::Occupied(s) => write!(f, "{s} still hosts workers"),
            ClusterError::Occupancy(msg) => write!(f, "occupancy violation: {msg}"),
            ClusterError::InsufficientLoanable {
                requested,
                available,
            } => write!(
                f,
                "asked to loan {requested} servers, only {available} idle"
            ),
            ClusterError::AuditViolation(msg) => write!(f, "audit violation: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Cluster-wide footprint of one running job: the GPUs it holds on each
/// hosting server (any pool). Maintained eagerly by every occupancy
/// mutator so reclaim-request assembly never rescans the whole cluster.
#[derive(Debug, Clone, Default, PartialEq)]
struct JobOccupancy {
    /// GPUs held per hosting server; entries are removed at zero, so
    /// `hosts.len()` is the paper's `servers(j)` denominator.
    hosts: BTreeMap<ServerId, u32>,
    /// Total GPUs across all hosts (the sum of `hosts` values).
    gpus: u32,
}

/// The whole cluster as the training scheduler and orchestrator see it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    /// Shape the state was built with.
    pub config: ClusterConfig,
    /// Every server, server `i` in slot `i`: ids are dense by
    /// construction ([`ClusterState::new`]; checked by
    /// [`ClusterState::audit`]), so a lookup by id is an index and
    /// iteration runs in id order.
    servers: Vec<Server>,
    whitelist: BTreeSet<ServerId>,
    loaned: BTreeSet<ServerId>,
    /// Derived index: the loaned servers currently hosting no workers —
    /// exactly the ones eligible for a prompt return. Kept in lockstep by
    /// every mutator (checked by [`ClusterState::audit`]) so the
    /// scheduler's per-epoch surplus check is O(idle) instead of a walk
    /// over the whole loan ledger.
    idle_loaned: BTreeSet<ServerId>,
    /// Servers currently crashed: off the whitelist, off the loan ledger,
    /// and ineligible for loans until they recover.
    down: BTreeSet<ServerId>,
    /// Derived index: every running job's cluster-wide footprint. Updated
    /// on launch, scale, preemption, vacate and crash transitions (checked
    /// by [`ClusterState::audit`]) so [`ClusterState::reclaim_request`]
    /// assembles footprints in O(loaned servers + their jobs) instead of a
    /// full-cluster scan, and [`ClusterState::evict_job`] touches only the
    /// servers actually hosting the job.
    occupancy: BTreeMap<JobId, JobOccupancy>,
    /// Derived index: `(used, total)` GPUs across whitelisted Training
    /// servers. Kept in lockstep by every mutator (checked by
    /// [`ClusterState::audit`]) so [`ClusterState::gpu_usage`] — on the
    /// scheduler's per-epoch loan-demand path — is O(1) instead of a
    /// whitelist walk.
    usage_training: (u32, u32),
    /// Same as `usage_training` for whitelisted OnLoan servers.
    usage_on_loan: (u32, u32),
    /// Derived index: GPUs on whitelisted servers hosting no workers —
    /// the gang-friendly free capacity. Kept in lockstep by every mutator
    /// (checked by [`ClusterState::audit`]) so
    /// [`ClusterState::fragmentation_index`] is O(1).
    empty_gpus: u32,
    /// Derived index: GPUs used on loaned *Flexible*-group servers. Kept
    /// in lockstep by every mutator (checked by [`ClusterState::audit`])
    /// so [`ClusterState::flexible_gpu_usage`] is O(1). Only occupied
    /// loaned servers carry a Flexible label: `allocate` sets it on an
    /// OnLoan server and `Server::release`/`Server::evict` clear it once
    /// the server empties.
    flexible_used: u32,
    /// Mutation generation: every `&mut self` public mutator bumps it on
    /// entry, refused calls included (see [`ClusterState::generation`]).
    generation: u64,
}

/// The slot of the dense server table that holds server `id`.
fn slot(id: ServerId) -> usize {
    id.0 as usize
}

/// The share of `free` GPUs stranded off the `on_empty` ones sitting on
/// empty servers; `0.0` when nothing is free.
fn stranded_share(on_empty: u32, free: u32) -> f64 {
    if free == 0 {
        0.0
    } else {
        1.0 - f64::from(on_empty) / f64::from(free)
    }
}

impl ClusterState {
    /// Builds the cluster: training servers get ids `0..T`, inference
    /// servers `T..T+I`.
    pub fn new(config: ClusterConfig) -> Self {
        let mut servers =
            Vec::with_capacity((config.training_servers + config.inference_servers) as usize);
        let mut whitelist = BTreeSet::new();
        for i in 0..config.training_servers {
            let s = Server::new(i, GpuType::V100, config.gpus_per_server, PoolKind::Training)
                .with_speed_factor(config.speed.factor(GpuType::V100));
            whitelist.insert(s.id);
            servers.push(s);
        }
        for i in 0..config.inference_servers {
            let s = Server::new(
                config.training_servers + i,
                GpuType::T4,
                config.gpus_per_server,
                PoolKind::OnLoan,
            )
            .with_speed_factor(config.speed.factor(GpuType::T4));
            servers.push(s);
        }
        ClusterState {
            servers,
            whitelist,
            loaned: BTreeSet::new(),
            idle_loaned: BTreeSet::new(),
            down: BTreeSet::new(),
            occupancy: BTreeMap::new(),
            usage_training: (0, config.training_servers * config.gpus_per_server),
            usage_on_loan: (0, 0),
            empty_gpus: config.training_servers * config.gpus_per_server,
            flexible_used: 0,
            generation: 0,
            config,
        }
    }

    /// The mutation generation. Every `&mut self` public mutator bumps it
    /// on entry, so equal generations prove the state unchanged in
    /// between: a caller may skip re-checking what it already checked at
    /// this generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bumps the mutation generation; the first statement of every
    /// `&mut self` public mutator.
    fn touch(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// The mutable usage counter of `pool`.
    fn usage_mut(&mut self, pool: PoolKind) -> &mut (u32, u32) {
        match pool {
            PoolKind::Training => &mut self.usage_training,
            PoolKind::OnLoan => &mut self.usage_on_loan,
        }
    }

    /// Records `gpus` of `job` landing on `server` in the footprint index.
    fn occupancy_add(&mut self, job: JobId, server: ServerId, gpus: u32) {
        if gpus == 0 {
            return;
        }
        let entry = self.occupancy.entry(job).or_default();
        *entry.hosts.entry(server).or_insert(0) += gpus;
        entry.gpus += gpus;
    }

    /// Records `gpus` of `job` leaving `server` in the footprint index,
    /// dropping host entries at zero and the job once it runs nowhere.
    fn occupancy_remove(&mut self, job: JobId, server: ServerId, gpus: u32) {
        if gpus == 0 {
            return;
        }
        if let Some(entry) = self.occupancy.get_mut(&job) {
            if let Some(held) = entry.hosts.get_mut(&server) {
                *held = held.saturating_sub(gpus);
                if *held == 0 {
                    entry.hosts.remove(&server);
                }
            }
            entry.gpus = entry.gpus.saturating_sub(gpus);
            if entry.hosts.is_empty() {
                self.occupancy.remove(&job);
            }
        }
    }

    /// Loaned servers currently hosting no workers, ascending — the ones
    /// eligible for [`ClusterState::return_servers`] right now. O(idle).
    pub fn idle_loaned_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.idle_loaned.iter().copied()
    }

    /// The scheduler-facing views of all whitelisted servers.
    pub fn server_views(&self) -> Vec<ServerView> {
        self.whitelist
            .iter()
            .filter_map(|id| self.server(*id).map(Server::view))
            .collect()
    }

    /// Access one server.
    pub fn server(&self, id: ServerId) -> Option<&Server> {
        self.servers.get(slot(id))
    }

    /// Ids of servers currently on loan, ascending.
    pub fn loaned_ids(&self) -> Vec<ServerId> {
        self.loaned.iter().copied().collect()
    }

    /// Number of servers currently on loan.
    pub fn loaned_count(&self) -> u32 {
        self.loaned.len() as u32
    }

    /// Number of loaned servers hosting at least one worker. O(1): the
    /// idle-loan index holds exactly the empty loaned servers (checked by
    /// [`ClusterState::audit`]).
    pub fn busy_loaned_count(&self) -> u32 {
        self.loaned.len().saturating_sub(self.idle_loaned.len()) as u32
    }

    /// Whether `id` is on loan to training.
    pub fn is_loaned(&self, id: ServerId) -> bool {
        self.loaned.contains(&id)
    }

    /// `(used, total)` GPUs across whitelisted servers of `pool` — O(1)
    /// from the eagerly-maintained counters.
    pub fn gpu_usage(&self, pool: PoolKind) -> (u32, u32) {
        match pool {
            PoolKind::Training => self.usage_training,
            PoolKind::OnLoan => self.usage_on_loan,
        }
    }

    /// GPUs currently used by workers on loaned *Flexible*-group
    /// servers — the capacity that §5.3 can hand back preemption-free.
    /// Telemetry samples this per epoch as the `flexible` slice of the
    /// utilization split. O(1) from the eagerly-maintained counter.
    pub fn flexible_gpu_usage(&self) -> u32 {
        self.flexible_used
    }

    /// Fragmentation index over the whitelisted servers: the fraction
    /// of free GPUs stranded on *partially occupied* servers, `0.0`
    /// (every free GPU sits on an empty server — gang-friendly) to
    /// `1.0` (all free capacity is slivers no full-server gang fits
    /// in). `0.0` when nothing is free. O(1): the free GPUs come from
    /// the pool usage counters, the ones on empty servers from their
    /// own counter.
    pub fn fragmentation_index(&self) -> f64 {
        let free = |(used, total): (u32, u32)| total - used;
        stranded_share(
            self.empty_gpus,
            free(self.usage_training) + free(self.usage_on_loan),
        )
    }

    /// [`Self::flexible_gpu_usage`] the direct way: a walk over the loan
    /// ledger. The oracle its counter is tested against.
    #[cfg(test)]
    fn flexible_gpu_usage_walk(&self) -> u32 {
        self.loaned
            .iter()
            .filter_map(|id| self.server(*id))
            .filter(|s| s.group == ServerGroup::Flexible)
            .map(Server::used_gpus)
            .sum()
    }

    /// The inputs of [`Self::fragmentation_index`] the direct way, by a
    /// walk over the whitelist: `(free GPUs on empty servers, all free
    /// GPUs)`. The oracle its counters are tested against.
    #[cfg(test)]
    fn fragmentation_walk(&self) -> (u32, u32) {
        let mut free_total = 0u32;
        let mut free_on_empty = 0u32;
        for id in &self.whitelist {
            let Some(s) = self.server(*id) else {
                continue;
            };
            let free = s.free_gpus();
            free_total += free;
            if s.is_empty() {
                free_on_empty += free;
            }
        }
        (free_on_empty, free_total)
    }

    /// Whether `id` is currently down (crashed).
    pub fn is_down(&self, id: ServerId) -> bool {
        self.down.contains(&id)
    }

    /// Ids of servers currently down, ascending.
    pub fn down_ids(&self) -> Vec<ServerId> {
        self.down.iter().copied().collect()
    }

    /// Crashes a server: every worker on it is lost, it leaves the
    /// whitelist and the loan ledger, and it stays ineligible for loans
    /// until [`Self::recover_server`]. Returns the `(job, gpus)` pairs
    /// that were running there.
    pub fn crash_server(&mut self, id: ServerId) -> Result<Vec<(JobId, u32)>, ClusterError> {
        self.touch();
        if self.down.contains(&id) {
            return Err(ClusterError::ServerDown(id));
        }
        let s = self
            .servers
            .get_mut(slot(id))
            .ok_or(ClusterError::UnknownServer(id))?;
        let victims: Vec<(JobId, u32)> = s.jobs().collect();
        // Read the group before the evictions reset it.
        let (pool, total, flexible) = (s.pool, s.total_gpus, s.group == ServerGroup::Flexible);
        for (job, _) in &victims {
            s.evict(*job);
        }
        for &(job, gpus) in &victims {
            self.occupancy_remove(job, id, gpus);
        }
        if self.whitelist.remove(&id) {
            let victim_gpus: u32 = victims.iter().map(|&(_, g)| g).sum();
            let u = self.usage_mut(pool);
            u.0 -= victim_gpus;
            u.1 -= total;
            if victims.is_empty() {
                self.empty_gpus -= total;
            }
            if flexible {
                self.flexible_used -= victim_gpus;
            }
        }
        self.loaned.remove(&id);
        self.idle_loaned.remove(&id);
        self.down.insert(id);
        self.debug_audit();
        Ok(victims)
    }

    /// Brings a crashed server back: dedicated training servers rejoin
    /// the whitelist immediately; inference-owned servers return to the
    /// inference pool and become loanable again.
    pub fn recover_server(&mut self, id: ServerId) -> Result<(), ClusterError> {
        self.touch();
        if !self.down.remove(&id) {
            return Err(ClusterError::UnknownServer(id));
        }
        let s = self
            .servers
            .get_mut(slot(id))
            .ok_or(ClusterError::UnknownServer(id))?;
        s.group = ServerGroup::Unassigned;
        let total = s.total_gpus;
        if s.gpu_type == GpuType::V100 {
            s.pool = PoolKind::Training;
            // Down servers host no workers, so only the capacity returns,
            // all of it free on an empty server.
            if self.whitelist.insert(id) {
                self.usage_training.1 += total;
                self.empty_gpus += total;
            }
        }
        self.debug_audit();
        Ok(())
    }

    /// Audits the bookkeeping invariants and returns a typed error on the
    /// first violation:
    ///
    /// * the server table is dense: slot `i` holds server `i`;
    /// * per-server GPU accounting never exceeds capacity;
    /// * the loan ledger is a subset of the whitelist and only ever holds
    ///   inference-owned (T4) servers;
    /// * down servers are neither whitelisted nor loaned, and host no
    ///   workers;
    /// * no orphaned assignments: servers outside the whitelist host no
    ///   workers;
    /// * every id in the whitelist, loan ledger, idle-loan index and down
    ///   set names an existing server;
    /// * the derived indices agree with the servers: the idle-loan index
    ///   holds exactly the empty loaned servers, the job-footprint index
    ///   equals a rebuild from every server's job table, the pool usage
    ///   counters and the empty-server GPU counter equal a whitelist
    ///   walk, and the Flexible-usage counter equals a loan-ledger walk.
    ///
    /// One pass over the servers in id order, with the four id sets
    /// stepped alongside as cursors, counts the placements. Then one pass
    /// over the footprint index looks each host entry up in its server's
    /// job table, O(1) apiece: an entry must hold what its server holds,
    /// and as many entries must match as there are placements and index
    /// entries, so the index and the placements pair off one to one.
    /// Nothing is allocated unless a violation is reported.
    ///
    /// The engine skips the audit while [`Self::generation`] stands where
    /// the last passing audit left it; release builds call this
    /// explicitly where they want degradation instead of a crash; debug
    /// builds additionally run it after every mutation (via
    /// `debug_audit`, outside the `cluster.audit` span, so the span counts
    /// only the audits a release build runs) so tests fail fast at the
    /// corrupting operation.
    pub fn audit(&self) -> Result<(), ClusterError> {
        let _timing = lyra_obs::span::span("cluster.audit");
        self.check()
    }

    /// The body of [`Self::audit`].
    fn check(&self) -> Result<(), ClusterError> {
        let violation = |msg: String| Err(ClusterError::AuditViolation(msg));
        // All four sets are sorted by `ServerId`, like the dense table:
        // each cursor steps past an id at its server's slot, so an id
        // still left after the last server names no server.
        let mut sets = [
            ("whitelisted", self.whitelist.iter().peekable()),
            ("loaned", self.loaned.iter().peekable()),
            ("idle-loaned", self.idle_loaned.iter().peekable()),
            ("down", self.down.iter().peekable()),
        ];
        let mut training = (0u32, 0u32);
        let mut on_loan = (0u32, 0u32);
        let (mut empty_gpus, mut flexible_used) = (0u32, 0u32);
        let mut placements = 0usize;
        for (i, s) in self.servers.iter().enumerate() {
            let id = s.id;
            if slot(id) != i {
                return violation(format!("slot {i} holds {id}"));
            }
            let mut member = [false; 4];
            for (is_member, (_, cursor)) in member.iter_mut().zip(&mut sets) {
                *is_member = cursor.next_if_eq(&&id).is_some();
            }
            let [whitelisted, loaned, idle, down] = member;
            let mut used = 0u32;
            for (_, gpus) in s.jobs() {
                placements += 1;
                used += gpus;
            }
            if used > s.total_gpus {
                return violation(format!("{id}: {used} GPUs used of {}", s.total_gpus));
            }
            let empty = s.is_empty();
            if down && whitelisted {
                return violation(format!("down {id} is still whitelisted"));
            }
            if down && loaned {
                return violation(format!("down {id} is still on the loan ledger"));
            }
            if down && !empty {
                return violation(format!("down {id} still hosts workers"));
            }
            if loaned && !whitelisted {
                return violation(format!("loaned {id} is not whitelisted"));
            }
            if loaned && s.gpu_type != GpuType::T4 {
                return violation(format!("loaned {id} is a dedicated training server"));
            }
            if !whitelisted && !empty {
                return violation(format!("{id} hosts workers but is outside the whitelist"));
            }
            if idle && !loaned {
                return violation(format!("idle-loan index holds non-loaned {id}"));
            }
            if loaned && idle != empty {
                return violation(format!(
                    "idle-loan index out of lockstep for {id} (empty: {empty})"
                ));
            }
            if whitelisted {
                let usage = match s.pool {
                    PoolKind::Training => &mut training,
                    PoolKind::OnLoan => &mut on_loan,
                };
                usage.0 += used;
                usage.1 += s.total_gpus;
                if empty {
                    empty_gpus += s.total_gpus;
                }
            }
            if loaned && s.group == ServerGroup::Flexible {
                flexible_used += used;
            }
        }
        for (set, mut cursor) in sets {
            if let Some(unknown) = cursor.next() {
                return violation(format!("{set} {unknown} does not exist"));
            }
        }
        if (training, on_loan) != (self.usage_training, self.usage_on_loan) {
            return violation(format!(
                "pool GPU-usage counters out of lockstep: training {:?} vs {:?}, \
                 on-loan {:?} vs {:?}",
                self.usage_training, training, self.usage_on_loan, on_loan
            ));
        }
        if (empty_gpus, flexible_used) != (self.empty_gpus, self.flexible_used) {
            return violation(format!(
                "gauge counters out of lockstep: empty-server GPUs {} vs {empty_gpus}, \
                 Flexible GPUs used {} vs {flexible_used}",
                self.empty_gpus, self.flexible_used
            ));
        }
        // Each host entry names one (job, server) pair, and an entry the
        // server holds must hold the same GPUs. An entry the server does
        // not hold matches nothing: it is caught by the counts below.
        let (mut host_entries, mut matched) = (0usize, 0usize);
        for (&job, occ) in &self.occupancy {
            let mut gpus = 0u32;
            for (&id, &indexed) in &occ.hosts {
                gpus += indexed;
                match self.server(id).and_then(|s| s.holding(job)) {
                    Some(held) if held == indexed => matched += 1,
                    Some(held) => {
                        return violation(format!(
                            "job-footprint index out of lockstep: {job} holds {held} GPUs \
                             on {id}, indexed Some({indexed})"
                        ));
                    }
                    None => {}
                }
            }
            if occ.hosts.is_empty() || occ.gpus != gpus {
                return violation(format!(
                    "job-footprint index out of lockstep: {job} indexes {} GPUs on {:?}",
                    occ.gpus, occ.hosts
                ));
            }
            host_entries += occ.hosts.len();
        }
        if matched != placements {
            return self.unindexed_placement(placements, matched);
        }
        if host_entries != placements {
            return violation(format!(
                "job-footprint index out of lockstep: {host_entries} host entries for \
                 {placements} placements"
            ));
        }
        Ok(())
    }

    /// The violation of a state whose footprint index matches fewer
    /// placements than the servers hold: a server-major scan names the
    /// first placement the index misses. Runs only once [`Self::audit`]
    /// has already failed.
    fn unindexed_placement(&self, placements: usize, matched: usize) -> Result<(), ClusterError> {
        let violation = |msg: String| Err(ClusterError::AuditViolation(msg));
        for s in &self.servers {
            for (job, gpus) in s.jobs() {
                let indexed = self.occupancy.get(&job).and_then(|o| o.hosts.get(&s.id));
                if indexed != Some(&gpus) {
                    return violation(format!(
                        "job-footprint index out of lockstep: {job} holds {gpus} GPUs \
                         on {}, indexed {indexed:?}",
                        s.id
                    ));
                }
            }
        }
        // Every placement is indexed, but a job table lists one job twice.
        violation(format!(
            "job-footprint index out of lockstep: {matched} of {placements} placements \
             indexed"
        ))
    }

    /// [`Self::audit`], skipped while `last_passed` holds the current
    /// generation: nothing has changed since an audit passed there. A
    /// passing audit records its generation in `last_passed`; a failing
    /// one clears it, so a violation is reported again on every call.
    pub fn audit_if_changed(&self, last_passed: &mut Option<u64>) -> Result<(), ClusterError> {
        if *last_passed == Some(self.generation) {
            return Ok(());
        }
        let verdict = self.audit();
        *last_passed = verdict.is_ok().then_some(self.generation);
        verdict
    }

    /// The same invariants checked the direct way: one pass per
    /// invariant with set lookups, and the job-footprint index compared
    /// with a full rebuild. The oracle that [`Self::audit`]'s verdicts
    /// are tested against.
    #[cfg(test)]
    fn audit_reference(&self) -> Result<(), ClusterError> {
        let violation = |msg: String| Err(ClusterError::AuditViolation(msg));
        for (i, s) in self.servers.iter().enumerate() {
            if slot(s.id) != i {
                return violation(format!("slot {i} holds {}", s.id));
            }
        }
        for s in &self.servers {
            if s.used_gpus() > s.total_gpus {
                return violation(format!(
                    "{}: {} GPUs used of {}",
                    s.id,
                    s.used_gpus(),
                    s.total_gpus
                ));
            }
        }
        for id in &self.whitelist {
            if self.server(*id).is_none() {
                return violation(format!("whitelisted {id} does not exist"));
            }
        }
        for id in &self.loaned {
            if !self.whitelist.contains(id) {
                return violation(format!("loaned {id} is not whitelisted"));
            }
            match self.server(*id) {
                Some(s) if s.gpu_type != GpuType::T4 => {
                    return violation(format!("loaned {id} is a dedicated training server"));
                }
                Some(_) => {}
                None => return violation(format!("loaned {id} does not exist")),
            }
        }
        for id in &self.down {
            if self.whitelist.contains(id) {
                return violation(format!("down {id} is still whitelisted"));
            }
            if self.loaned.contains(id) {
                return violation(format!("down {id} is still on the loan ledger"));
            }
            if self.server(*id).is_some_and(|s| !s.is_empty()) {
                return violation(format!("down {id} still hosts workers"));
            }
        }
        for s in &self.servers {
            if !self.whitelist.contains(&s.id) && !s.is_empty() {
                return violation(format!(
                    "{} hosts workers but is outside the whitelist",
                    s.id
                ));
            }
        }
        for id in &self.loaned {
            let empty = self.server(*id).is_some_and(|s| s.is_empty());
            if empty != self.idle_loaned.contains(id) {
                return violation(format!(
                    "idle-loan index out of lockstep for {id} (empty: {empty})"
                ));
            }
        }
        if let Some(id) = self.idle_loaned.difference(&self.loaned).next() {
            return violation(format!("idle-loan index holds non-loaned {id}"));
        }
        // The job-footprint index must equal what a full-cluster rebuild
        // produces — every mutator keeps it in lockstep.
        let mut rebuilt: BTreeMap<JobId, JobOccupancy> = BTreeMap::new();
        for s in &self.servers {
            for (job, gpus) in s.jobs() {
                let entry = rebuilt.entry(job).or_default();
                entry.hosts.insert(s.id, gpus);
                entry.gpus += gpus;
            }
        }
        if rebuilt != self.occupancy {
            return violation("job-footprint index out of lockstep".to_string());
        }
        // The pool GPU-usage counters must equal a whitelist walk.
        let mut training = (0u32, 0u32);
        let mut on_loan = (0u32, 0u32);
        for id in &self.whitelist {
            let Some(s) = self.server(*id) else {
                continue;
            };
            let usage = match s.pool {
                PoolKind::Training => &mut training,
                PoolKind::OnLoan => &mut on_loan,
            };
            usage.0 += s.used_gpus();
            usage.1 += s.total_gpus;
        }
        if (training, on_loan) != (self.usage_training, self.usage_on_loan) {
            return violation(format!(
                "pool GPU-usage counters out of lockstep: training {:?} vs {:?}, \
                 on-loan {:?} vs {:?}",
                self.usage_training, training, self.usage_on_loan, on_loan
            ));
        }
        // The gauge counters must equal the walks they replaced.
        let (empty_gpus, flexible_used) =
            (self.fragmentation_walk().0, self.flexible_gpu_usage_walk());
        if (empty_gpus, flexible_used) != (self.empty_gpus, self.flexible_used) {
            return violation(format!(
                "gauge counters out of lockstep: empty-server GPUs {} vs {empty_gpus}, \
                 Flexible GPUs used {} vs {flexible_used}",
                self.empty_gpus, self.flexible_used
            ));
        }
        Ok(())
    }

    /// In debug builds, panics at the corrupting mutation instead of
    /// letting an inconsistency propagate. No-op in release.
    #[inline]
    fn debug_audit(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check() {
            panic!("cluster-state {e}");
        }
    }

    /// Loans `n` idle inference-owned servers to training, adding them to
    /// the whitelist. Returns the loaned ids.
    pub fn loan(&mut self, n: u32) -> Result<Vec<ServerId>, ClusterError> {
        self.touch();
        let candidates: Vec<ServerId> = self
            .servers
            .iter()
            .filter(|s| {
                s.gpu_type == GpuType::T4
                    && !self.whitelist.contains(&s.id)
                    && !self.down.contains(&s.id)
                    && s.is_empty()
            })
            .map(|s| s.id)
            .take(n as usize)
            .collect();
        if (candidates.len() as u32) < n {
            return Err(ClusterError::InsufficientLoanable {
                requested: n,
                available: candidates.len() as u32,
            });
        }
        for id in &candidates {
            self.whitelist.insert(*id);
            self.loaned.insert(*id);
            // Freshly loaned servers arrive empty.
            self.idle_loaned.insert(*id);
            if let Some(s) = self.servers.get_mut(slot(*id)) {
                s.pool = PoolKind::OnLoan;
                s.group = ServerGroup::Unassigned;
                let total = s.total_gpus;
                self.usage_on_loan.1 += total;
                self.empty_gpus += total;
            }
        }
        self.debug_audit();
        Ok(candidates)
    }

    /// Returns loaned servers to the inference cluster. Each must be on
    /// loan and empty.
    pub fn return_servers(&mut self, ids: &[ServerId]) -> Result<(), ClusterError> {
        self.touch();
        for id in ids {
            let s = self.server(*id).ok_or(ClusterError::UnknownServer(*id))?;
            if !self.loaned.contains(id) {
                return Err(ClusterError::NotLoaned(*id));
            }
            if !s.is_empty() {
                return Err(ClusterError::Occupied(*id));
            }
        }
        for id in ids {
            let total = self.server(*id).map_or(0, |s| s.total_gpus);
            // Returned servers are validated empty above, so only the
            // capacity leaves the counters.
            if self.whitelist.remove(id) {
                self.usage_on_loan.1 -= total;
                self.empty_gpus -= total;
            }
            self.loaned.remove(id);
            self.idle_loaned.remove(id);
        }
        self.debug_audit();
        Ok(())
    }

    /// Allocates workers of `job` per the assignment, labelling on-loan
    /// servers with `group` when unassigned. Validates every leg first;
    /// applies atomically.
    pub fn allocate(
        &mut self,
        job: JobId,
        assignment: &[(ServerId, u32)],
        gpus_per_worker: u32,
        group: ServerGroup,
    ) -> Result<(), ClusterError> {
        self.touch();
        for (id, workers) in assignment {
            let s = self.server(*id).ok_or(ClusterError::UnknownServer(*id))?;
            if !self.whitelist.contains(id) {
                return Err(ClusterError::NotWhitelisted(*id));
            }
            let need = workers * gpus_per_worker;
            if need > s.free_gpus() {
                return Err(ClusterError::Occupancy(format!(
                    "{id}: need {need}, free {}",
                    s.free_gpus()
                )));
            }
        }
        for (id, workers) in assignment {
            let gpus = workers * gpus_per_worker;
            let s = self.servers.get_mut(slot(*id)).expect("validated above");
            let was_empty = s.is_empty();
            s.allocate(job, gpus).map_err(ClusterError::Occupancy)?;
            if s.pool == PoolKind::OnLoan && s.group == ServerGroup::Unassigned {
                s.group = group;
            }
            let pool = s.pool;
            // The server is whitelisted (validated) and now occupied.
            if was_empty {
                self.empty_gpus -= s.total_gpus;
            }
            if s.group == ServerGroup::Flexible {
                self.flexible_used += gpus;
            }
            self.occupancy_add(job, *id, gpus);
            self.usage_mut(pool).0 += gpus;
            // No-op unless the server was an idle loaner.
            self.idle_loaned.remove(id);
        }
        self.debug_audit();
        Ok(())
    }

    /// Releases workers of `job` per the assignment (scale-in). Validates
    /// first; applies atomically.
    pub fn release(
        &mut self,
        job: JobId,
        assignment: &[(ServerId, u32)],
        gpus_per_worker: u32,
    ) -> Result<(), ClusterError> {
        self.touch();
        for (id, workers) in assignment {
            let s = self.server(*id).ok_or(ClusterError::UnknownServer(*id))?;
            if s.gpus_of(job) < workers * gpus_per_worker {
                return Err(ClusterError::Occupancy(format!(
                    "{id}: {job} holds {} GPUs, releasing {}",
                    s.gpus_of(job),
                    workers * gpus_per_worker
                )));
            }
        }
        for (id, workers) in assignment {
            let gpus = workers * gpus_per_worker;
            let s = self.servers.get_mut(slot(*id)).expect("validated above");
            // Read the group before the release resets it.
            let (was_empty, flexible) = (s.is_empty(), s.group == ServerGroup::Flexible);
            s.release(job, gpus).map_err(ClusterError::Occupancy)?;
            let now_empty = s.is_empty();
            let pool = s.pool;
            // An occupied server is whitelisted (audited invariant).
            if now_empty && !was_empty {
                self.empty_gpus += s.total_gpus;
            }
            if flexible {
                self.flexible_used -= gpus;
            }
            self.occupancy_remove(job, *id, gpus);
            self.usage_mut(pool).0 -= gpus;
            if now_empty && self.loaned.contains(id) {
                self.idle_loaned.insert(*id);
            }
        }
        self.debug_audit();
        Ok(())
    }

    /// Vacates every allocation on one server (flexible-group release),
    /// returning the `(job, gpus)` pairs that were freed.
    pub fn vacate_server(&mut self, id: ServerId) -> Result<Vec<(JobId, u32)>, ClusterError> {
        self.touch();
        let s = self
            .servers
            .get_mut(slot(id))
            .ok_or(ClusterError::UnknownServer(id))?;
        let jobs: Vec<(JobId, u32)> = s.jobs().collect();
        // Read the group before the evictions reset it.
        let (pool, total, flexible) = (s.pool, s.total_gpus, s.group == ServerGroup::Flexible);
        for (job, _) in &jobs {
            s.evict(*job);
        }
        for &(job, gpus) in &jobs {
            self.occupancy_remove(job, id, gpus);
        }
        // Occupied servers are always whitelisted (audited invariant),
        // so the freed GPUs leave the pool counter and the server's
        // whole capacity becomes free GPUs on an empty server; an empty
        // server frees nothing.
        let freed: u32 = jobs.iter().map(|&(_, g)| g).sum();
        self.usage_mut(pool).0 -= freed;
        if !jobs.is_empty() {
            self.empty_gpus += total;
        }
        if flexible {
            self.flexible_used -= freed;
        }
        if self.loaned.contains(&id) {
            self.idle_loaned.insert(id);
        }
        self.debug_audit();
        Ok(jobs)
    }

    /// Evicts `job` everywhere (preemption). Returns `(server, gpus)`
    /// freed. O(hosting servers) via the footprint index.
    pub fn evict_job(&mut self, job: JobId) -> Vec<(ServerId, u32)> {
        self.touch();
        let hosts: Vec<ServerId> = self
            .occupancy
            .get(&job)
            .map(|o| o.hosts.keys().copied().collect())
            .unwrap_or_default();
        let mut freed = Vec::new();
        for &sid in &hosts {
            let Some(s) = self.servers.get_mut(slot(sid)) else {
                continue;
            };
            // Read the group before the eviction resets it.
            let (was_empty, flexible) = (s.is_empty(), s.group == ServerGroup::Flexible);
            let g = s.evict(job);
            let pool = s.pool;
            if s.is_empty() && !was_empty {
                self.empty_gpus += s.total_gpus;
            }
            if flexible {
                self.flexible_used -= g;
            }
            if g > 0 {
                freed.push((sid, g));
                self.usage_mut(pool).0 -= g;
            }
        }
        self.occupancy.remove(&job);
        for &(sid, _) in &freed {
            if self.loaned.contains(&sid) && self.server(sid).is_some_and(|s| s.is_empty()) {
                self.idle_loaned.insert(sid);
            }
        }
        self.debug_audit();
        freed
    }

    /// Servers on loan whose group is `Flexible`, with their jobs — the
    /// candidates for §5.3's preemption-free release.
    pub fn flexible_group_servers(&self) -> Vec<(ServerId, Vec<(JobId, u32)>)> {
        self.loaned
            .iter()
            .filter_map(|id| {
                let s = self.server(*id)?;
                (s.group == ServerGroup::Flexible).then(|| (s.id, s.jobs().collect()))
            })
            .collect()
    }

    /// Builds the §4 reclaim request over the currently loaned servers.
    ///
    /// Footprints count each job's servers and GPUs cluster-wide, so the
    /// preemption-cost denominators include training-side placements. Runs
    /// in O(loaned servers + their jobs): footprints come straight from the
    /// job-occupancy index instead of a scan over every server.
    pub fn reclaim_request(&self, need: usize) -> ReclaimRequest {
        let servers: Vec<ReclaimServerView> = self
            .loaned
            .iter()
            .filter_map(|id| {
                let s = self.server(*id)?;
                Some(ReclaimServerView {
                    id: s.id,
                    total_gpus: s.total_gpus,
                    jobs: s.jobs().collect(),
                })
            })
            .collect();
        let jobs: Vec<JobFootprint> = servers
            .iter()
            .flat_map(|s| s.jobs.iter().map(|(j, _)| *j))
            .collect::<BTreeSet<JobId>>()
            .into_iter()
            .map(|id| {
                let occ = self.occupancy.get(&id);
                JobFootprint {
                    id,
                    total_servers: occ.map_or(0, |o| o.hosts.len() as u32),
                    total_gpus: occ.map_or(0, |o| o.gpus),
                }
            })
            .collect();
        let request = ReclaimRequest {
            servers,
            jobs,
            need,
        };
        // The engine must never hand the reclaim heuristics a request with
        // duplicate candidates or duplicate per-server job entries.
        debug_assert!(
            request.validate().is_ok(),
            "engine-built reclaim request failed validation: {:?}",
            request.validate()
        );
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusterState {
        ClusterState::new(ClusterConfig {
            training_servers: 2,
            inference_servers: 3,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        })
    }

    #[test]
    fn initial_whitelist_is_training_only() {
        let c = small();
        let views = c.server_views();
        assert_eq!(views.len(), 2);
        assert!(views.iter().all(|v| v.pool == PoolKind::Training));
        assert_eq!(c.gpu_usage(PoolKind::Training), (0, 16));
        assert_eq!(c.gpu_usage(PoolKind::OnLoan), (0, 0));
    }

    #[test]
    fn loan_and_return_roundtrip() {
        let mut c = small();
        let loaned = c.loan(2).expect("2 of 3 idle");
        assert_eq!(loaned.len(), 2);
        assert_eq!(c.loaned_count(), 2);
        assert_eq!(c.server_views().len(), 4);
        assert_eq!(c.gpu_usage(PoolKind::OnLoan), (0, 16));
        c.return_servers(&loaned).expect("all empty");
        assert_eq!(c.loaned_count(), 0);
        assert_eq!(c.server_views().len(), 2);
    }

    #[test]
    fn loan_rejects_over_request() {
        let mut c = small();
        match c.loan(4) {
            Err(ClusterError::InsufficientLoanable {
                requested: 4,
                available: 3,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.loaned_count(), 0, "failed loan changes nothing");
    }

    #[test]
    fn cannot_return_occupied_or_unloaned() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        c.allocate(JobId(1), &[(loaned[0], 2)], 2, ServerGroup::Base)
            .unwrap();
        assert_eq!(
            c.return_servers(&loaned),
            Err(ClusterError::Occupied(loaned[0]))
        );
        assert_eq!(
            c.return_servers(&[ServerId(0)]),
            Err(ClusterError::NotLoaned(ServerId(0)))
        );
    }

    #[test]
    fn fragmentation_index_tracks_stranded_free_gpus() {
        let mut c = small();
        // Empty cluster: all free GPUs sit on empty servers.
        assert_eq!(c.fragmentation_index(), 0.0);
        // Half-fill one server: its 4 free GPUs are stranded, the other
        // server's 8 are not → 4/12 fragmented.
        c.allocate(JobId(1), &[(ServerId(0), 4)], 1, ServerGroup::Base)
            .unwrap();
        assert!((c.fragmentation_index() - 4.0 / 12.0).abs() < 1e-12);
        // Fill everything: no free GPUs at all → defined as 0.
        c.allocate(
            JobId(2),
            &[(ServerId(0), 4), (ServerId(1), 8)],
            1,
            ServerGroup::Base,
        )
        .unwrap();
        assert_eq!(c.fragmentation_index(), 0.0);
    }

    #[test]
    fn flexible_gpu_usage_counts_only_flexible_loaned_workers() {
        let mut c = small();
        let loaned = c.loan(2).unwrap();
        assert_eq!(c.flexible_gpu_usage(), 0);
        c.allocate(JobId(1), &[(loaned[0], 3)], 1, ServerGroup::Flexible)
            .unwrap();
        c.allocate(JobId(2), &[(loaned[1], 2)], 1, ServerGroup::Base)
            .unwrap();
        // Training-side placement never counts.
        c.allocate(JobId(3), &[(ServerId(0), 4)], 1, ServerGroup::Flexible)
            .unwrap();
        assert_eq!(c.flexible_gpu_usage(), 3);
    }

    #[test]
    fn allocate_is_atomic_across_servers() {
        let mut c = small();
        // First leg fits, second overflows → nothing applies.
        let a = [(ServerId(0), 2u32), (ServerId(1), 5u32)];
        let err = c.allocate(JobId(1), &a, 2, ServerGroup::Base);
        assert!(matches!(err, Err(ClusterError::Occupancy(_))));
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 0);
    }

    #[test]
    fn allocate_requires_whitelist() {
        let mut c = small();
        // Server 2 is inference-owned, not loaned.
        let err = c.allocate(JobId(1), &[(ServerId(2), 1)], 1, ServerGroup::Base);
        assert_eq!(err, Err(ClusterError::NotWhitelisted(ServerId(2))));
    }

    #[test]
    fn release_and_evict() {
        let mut c = small();
        c.allocate(
            JobId(1),
            &[(ServerId(0), 2), (ServerId(1), 1)],
            2,
            ServerGroup::Base,
        )
        .unwrap();
        c.release(JobId(1), &[(ServerId(0), 1)], 2).unwrap();
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 4);
        let freed = c.evict_job(JobId(1));
        assert_eq!(freed, vec![(ServerId(0), 2), (ServerId(1), 2)]);
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 0);
    }

    #[test]
    fn release_validates_holdings() {
        let mut c = small();
        c.allocate(JobId(1), &[(ServerId(0), 1)], 2, ServerGroup::Base)
            .unwrap();
        let err = c.release(JobId(1), &[(ServerId(0), 2)], 2);
        assert!(matches!(err, Err(ClusterError::Occupancy(_))));
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 2, "unchanged");
    }

    #[test]
    fn group_labels_follow_allocations() {
        let mut c = small();
        let loaned = c.loan(2).unwrap();
        c.allocate(JobId(1), &[(loaned[0], 1)], 1, ServerGroup::Flexible)
            .unwrap();
        assert_eq!(c.server(loaned[0]).unwrap().group, ServerGroup::Flexible);
        assert_eq!(
            c.flexible_group_servers(),
            vec![(loaned[0], vec![(JobId(1), 1)])]
        );
        // Releasing everything resets the label.
        c.release(JobId(1), &[(loaned[0], 1)], 1).unwrap();
        assert!(c.flexible_group_servers().is_empty());
    }

    #[test]
    fn reclaim_request_footprints_span_pools() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        // Job 1 spans a training server and the loaned server.
        c.allocate(
            JobId(1),
            &[(ServerId(0), 1), (loaned[0], 1)],
            4,
            ServerGroup::Base,
        )
        .unwrap();
        let req = c.reclaim_request(1);
        assert_eq!(req.need, 1);
        assert_eq!(req.servers.len(), 1);
        assert_eq!(req.jobs.len(), 1);
        assert_eq!(req.jobs[0].total_servers, 2);
        assert_eq!(req.jobs[0].total_gpus, 8);
        req.validate().expect("request is consistent");
    }

    #[test]
    fn crash_evicts_and_delists() {
        let mut c = small();
        c.allocate(JobId(1), &[(ServerId(0), 2)], 2, ServerGroup::Base)
            .unwrap();
        let victims = c.crash_server(ServerId(0)).expect("crashes");
        assert_eq!(victims, vec![(JobId(1), 4)]);
        assert!(c.is_down(ServerId(0)));
        assert_eq!(c.down_ids(), vec![ServerId(0)]);
        assert_eq!(c.server_views().len(), 1, "left the whitelist");
        // Down servers reject double-crash and cannot take allocations.
        assert_eq!(
            c.crash_server(ServerId(0)),
            Err(ClusterError::ServerDown(ServerId(0)))
        );
        assert!(matches!(
            c.allocate(JobId(2), &[(ServerId(0), 1)], 1, ServerGroup::Base),
            Err(ClusterError::NotWhitelisted(_))
        ));
    }

    #[test]
    fn crashed_training_server_recovers_to_whitelist() {
        let mut c = small();
        c.crash_server(ServerId(0)).unwrap();
        c.recover_server(ServerId(0)).expect("recovers");
        assert!(!c.is_down(ServerId(0)));
        assert_eq!(c.server_views().len(), 2);
        assert!(matches!(
            c.recover_server(ServerId(0)),
            Err(ClusterError::UnknownServer(_))
        ));
    }

    #[test]
    fn crashed_loaned_server_recovers_to_inference_pool() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        c.allocate(JobId(1), &[(loaned[0], 1)], 2, ServerGroup::Flexible)
            .unwrap();
        let victims = c.crash_server(loaned[0]).unwrap();
        assert_eq!(victims.len(), 1);
        assert_eq!(c.loaned_count(), 0, "off the loan ledger");
        // While down it cannot be loaned again.
        assert!(matches!(
            c.loan(3),
            Err(ClusterError::InsufficientLoanable { available: 2, .. })
        ));
        c.recover_server(loaned[0]).unwrap();
        assert_eq!(c.server_views().len(), 2, "not auto-rewhitelisted");
        let again = c.loan(3).expect("recovered server is loanable again");
        assert!(again.contains(&loaned[0]));
    }

    #[test]
    fn gauge_counters_match_walks_over_a_seeded_history() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        let mut c = ClusterState::new(ClusterConfig {
            training_servers: 4,
            inference_servers: 6,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        });
        let (mut flexible_seen, mut fragmented_seen) = (false, false);
        for step in 0..3000 {
            let mut before = c.clone();
            // Server 10 does not exist; refused operations change nothing.
            let id = ServerId(rng.gen_range(0..11));
            let job = JobId(rng.gen_range(0..6));
            let n = rng.gen_range(1..4);
            let _ = match rng.gen_range(0..10) {
                0 => c.loan(n).map(drop),
                1 | 2 => c.allocate(job, &[(id, n)], 2, ServerGroup::Base),
                3 => c.allocate(job, &[(id, n)], 2, ServerGroup::Flexible),
                4 => {
                    let held = c.server(id).map_or(0, |s| s.gpus_of(job)) / 2;
                    c.release(job, &[(id, rng.gen_range(0..=held))], 2)
                }
                5 => c.vacate_server(id).map(drop),
                6 => {
                    c.evict_job(job);
                    Ok(())
                }
                7 => c.crash_server(id).map(drop),
                8 => c.recover_server(id),
                _ => c.return_servers(&[id]),
            };
            // A state that changed, generation aside, moved its generation.
            let generation = before.generation;
            before.generation = c.generation;
            assert!(before == c || c.generation != generation, "step {step}");
            assert_eq!(
                c.flexible_gpu_usage(),
                c.flexible_gpu_usage_walk(),
                "step {step}"
            );
            let (on_empty, free) = c.fragmentation_walk();
            assert_eq!(c.empty_gpus, on_empty, "step {step}");
            assert_eq!(
                c.fragmentation_index().to_bits(),
                stranded_share(on_empty, free).to_bits(),
                "step {step}"
            );
            flexible_seen |= c.flexible_gpu_usage() > 0;
            fragmented_seen |= c.fragmentation_index() > 0.0;
        }
        assert!(
            flexible_seen && fragmented_seen,
            "the history reached both gauges"
        );
    }

    #[test]
    fn audit_accepts_all_legal_histories() {
        let mut c = small();
        c.audit().expect("fresh state is consistent");
        let loaned = c.loan(2).unwrap();
        c.allocate(JobId(1), &[(ServerId(0), 2), (loaned[0], 1)], 2, ServerGroup::Base)
            .unwrap();
        c.crash_server(loaned[1]).unwrap();
        c.audit().expect("after loan/allocate/crash");
        c.recover_server(loaned[1]).unwrap();
        c.evict_job(JobId(1));
        c.audit().expect("after recover/evict");
    }

    /// A job no mutator ever places.
    const STRAY: JobId = JobId(u64::MAX);

    /// One way to corrupt the bookkeeping behind the mutators' backs.
    /// [`Corruption::apply`] picks its target among the eligible servers
    /// or index entries by `pick`, and does nothing when none is eligible.
    #[derive(Debug, Clone, Copy)]
    enum Corruption {
        /// Drops one host entry of a job's footprint, with its GPUs.
        DropHost,
        /// Adds a host entry on a server the job does not run on.
        AddHost,
        /// Gives one host entry, and its job's total, one GPU too many.
        WrongHostGpus,
        /// Indexes a job that runs nowhere.
        EmptyHosts,
        /// Makes a job's GPU total disagree with the sum of its hosts.
        GpusNotSum,
        /// Drops an empty loaner from the idle-loan index.
        IdleMissing,
        /// Adds a busy loaner to the idle-loan index.
        IdleBusy,
        /// Adds a server that is not on loan to the idle-loan index.
        IdleNotLoaned,
        /// The four pool usage counters, each one too high.
        TrainingUsed,
        TrainingTotal,
        OnLoanUsed,
        OnLoanTotal,
        /// The two gauge counters, each one too high.
        EmptyGpus,
        FlexibleUsed,
        /// Takes an idle loaner, and its capacity, off the whitelist.
        LoanedNotWhitelisted,
        /// Puts a dedicated V100 server on the loan ledger.
        LoanedV100,
        /// Marks a whitelisted training server down.
        DownWhitelisted,
        /// Takes an idle loaner off the whitelist and marks it down while
        /// it stays on the loan ledger.
        DownLoaned,
        /// Places a worker on a down server.
        DownHostsWorkers,
        /// Places a worker on a server outside the whitelist.
        OrphanWorkers,
        /// Shrinks a busy server below the GPUs it has in use.
        OverCapacity,
        /// Adds an id no server has to one of the id sets.
        UnknownWhitelisted,
        UnknownLoaned,
        UnknownIdle,
        /// Swaps two servers' slots in the dense table.
        MisSlotted,
    }

    impl Corruption {
        const ALL: [Corruption; 25] = [
            Corruption::DropHost,
            Corruption::AddHost,
            Corruption::WrongHostGpus,
            Corruption::EmptyHosts,
            Corruption::GpusNotSum,
            Corruption::IdleMissing,
            Corruption::IdleBusy,
            Corruption::IdleNotLoaned,
            Corruption::TrainingUsed,
            Corruption::TrainingTotal,
            Corruption::OnLoanUsed,
            Corruption::OnLoanTotal,
            Corruption::EmptyGpus,
            Corruption::FlexibleUsed,
            Corruption::LoanedNotWhitelisted,
            Corruption::LoanedV100,
            Corruption::DownWhitelisted,
            Corruption::DownLoaned,
            Corruption::DownHostsWorkers,
            Corruption::OrphanWorkers,
            Corruption::OverCapacity,
            Corruption::UnknownWhitelisted,
            Corruption::UnknownLoaned,
            Corruption::UnknownIdle,
            Corruption::MisSlotted,
        ];

        fn apply(self, c: &mut ClusterState, pick: usize) {
            use Corruption::*;
            let unknown = ServerId(u32::MAX);
            match self {
                DropHost => {
                    if let Some((job, host)) = pick_host(c, pick) {
                        let occ = c.occupancy.get_mut(&job).expect("picked");
                        occ.gpus -= occ.hosts.remove(&host).expect("picked");
                    }
                }
                AddHost => {
                    if let Some((job, _)) = pick_host(c, pick) {
                        let occ = c.occupancy.get_mut(&job).expect("picked");
                        if let Some(id) = c.servers.iter().map(|s| s.id).find(|id| !occ.hosts.contains_key(id)) {
                            occ.hosts.insert(id, 1);
                            occ.gpus += 1;
                        }
                    }
                }
                WrongHostGpus => {
                    if let Some((job, host)) = pick_host(c, pick) {
                        let occ = c.occupancy.get_mut(&job).expect("picked");
                        *occ.hosts.get_mut(&host).expect("picked") += 1;
                        occ.gpus += 1;
                    }
                }
                EmptyHosts => {
                    c.occupancy.insert(STRAY, JobOccupancy::default());
                }
                GpusNotSum => {
                    let n = c.occupancy.len().max(1);
                    if let Some(occ) = c.occupancy.values_mut().nth(pick % n) {
                        occ.gpus += 1;
                    }
                }
                IdleMissing => {
                    if let Some(id) = pick_server(c, pick, |c, s| c.idle_loaned.contains(&s.id)) {
                        c.idle_loaned.remove(&id);
                    }
                }
                IdleBusy => {
                    if let Some(id) =
                        pick_server(c, pick, |c, s| c.loaned.contains(&s.id) && !s.is_empty())
                    {
                        c.idle_loaned.insert(id);
                    }
                }
                IdleNotLoaned => {
                    if let Some(id) = pick_server(c, pick, |c, s| !c.loaned.contains(&s.id)) {
                        c.idle_loaned.insert(id);
                    }
                }
                TrainingUsed => c.usage_training.0 += 1,
                TrainingTotal => c.usage_training.1 += 1,
                OnLoanUsed => c.usage_on_loan.0 += 1,
                OnLoanTotal => c.usage_on_loan.1 += 1,
                EmptyGpus => c.empty_gpus += 1,
                FlexibleUsed => c.flexible_used += 1,
                LoanedNotWhitelisted | DownLoaned => {
                    if let Some(id) = pick_server(c, pick, |c, s| c.idle_loaned.contains(&s.id)) {
                        c.whitelist.remove(&id);
                        c.usage_on_loan.1 -= c.servers[slot(id)].total_gpus;
                        c.empty_gpus -= c.servers[slot(id)].total_gpus;
                        if matches!(self, DownLoaned) {
                            c.down.insert(id);
                        }
                    }
                }
                LoanedV100 => {
                    if let Some(id) = pick_server(c, pick, |_, s| s.gpu_type == GpuType::V100) {
                        c.loaned.insert(id);
                    }
                }
                DownWhitelisted => {
                    if let Some(id) = pick_server(c, pick, |c, s| {
                        c.whitelist.contains(&s.id) && !c.loaned.contains(&s.id)
                    }) {
                        c.down.insert(id);
                    }
                }
                DownHostsWorkers => {
                    if let Some(id) = pick_server(c, pick, |c, s| c.down.contains(&s.id)) {
                        place_stray(c, id);
                    }
                }
                OrphanWorkers => {
                    if let Some(id) = pick_server(c, pick, |c, s| {
                        !c.whitelist.contains(&s.id) && !c.down.contains(&s.id)
                    }) {
                        place_stray(c, id);
                    }
                }
                OverCapacity => {
                    if let Some(id) = pick_server(c, pick, |_, s| !s.is_empty()) {
                        let s = c.servers.get_mut(slot(id)).expect("picked");
                        s.total_gpus = s.used_gpus() - 1;
                    }
                }
                UnknownWhitelisted => {
                    c.whitelist.insert(unknown);
                }
                UnknownLoaned => {
                    c.loaned.insert(unknown);
                }
                UnknownIdle => {
                    c.idle_loaned.insert(unknown);
                }
                MisSlotted => {
                    let n = c.servers.len();
                    c.servers.swap(pick % n, (pick + 1) % n);
                }
            }
        }
    }

    /// The `pick`-th (modulo) server that `keep` accepts.
    fn pick_server(
        c: &ClusterState,
        pick: usize,
        keep: impl Fn(&ClusterState, &Server) -> bool,
    ) -> Option<ServerId> {
        let ids: Vec<ServerId> = c
            .servers
            .iter()
            .filter(|s| keep(c, s))
            .map(|s| s.id)
            .collect();
        (!ids.is_empty()).then(|| ids[pick % ids.len()])
    }

    /// The `pick`-th (modulo) `(job, host)` entry of the footprint index.
    fn pick_host(c: &ClusterState, pick: usize) -> Option<(JobId, ServerId)> {
        let entries: Vec<(JobId, ServerId)> = c
            .occupancy
            .iter()
            .flat_map(|(&job, occ)| occ.hosts.keys().map(move |&id| (job, id)))
            .collect();
        (!entries.is_empty()).then(|| entries[pick % entries.len()])
    }

    /// Places one GPU of [`STRAY`] on `id`, footprint index included, so
    /// only the placement rules are broken.
    fn place_stray(c: &mut ClusterState, id: ServerId) {
        let s = c.servers.get_mut(slot(id)).expect("picked");
        s.allocate(STRAY, 1)
            .expect("a server off the whitelist is empty");
        c.occupancy_add(STRAY, id, 1);
    }

    /// Every kind of server: busy training servers 0 and 1, a busy loaner
    /// 2, an idle loaner 3, a down loaner 4 and the inference-owned 5.
    fn fixture() -> ClusterState {
        let mut c = ClusterState::new(ClusterConfig {
            training_servers: 2,
            inference_servers: 4,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        });
        c.loan(3).unwrap();
        c.allocate(
            JobId(1),
            &[(ServerId(0), 2), (ServerId(2), 1)],
            2,
            ServerGroup::Base,
        )
        .unwrap();
        c.allocate(JobId(2), &[(ServerId(1), 1)], 4, ServerGroup::Base)
            .unwrap();
        c.crash_server(ServerId(4)).unwrap();
        c
    }

    /// Corrupts the fixture and requires both audits to reject it, the
    /// single-pass one with a message containing `expect`, so the check
    /// meant for the corruption is the one that fires.
    fn assert_rejected(corruption: Corruption, expect: &str) {
        let mut c = fixture();
        assert_eq!((c.audit(), c.audit_reference()), (Ok(()), Ok(())));
        corruption.apply(&mut c, 0);
        match c.audit() {
            Err(ClusterError::AuditViolation(msg)) => {
                assert!(msg.contains(expect), "{corruption:?}: {msg}");
            }
            other => panic!("{corruption:?}: audit returned {other:?}"),
        }
        assert!(
            matches!(c.audit_reference(), Err(ClusterError::AuditViolation(_))),
            "{corruption:?}: the reference audit accepted it"
        );
    }

    macro_rules! corruption_matrix {
        ($($name:ident: $corruption:ident => $expect:literal,)*) => {$(
            #[test]
            fn $name() {
                assert_rejected(Corruption::$corruption, $expect);
            }
        )*};
    }

    corruption_matrix! {
        audit_rejects_dropped_host_entry: DropHost => "job-1 holds 4 GPUs on server-0, indexed None",
        audit_rejects_added_host_entry: AddHost => "4 host entries for 3 placements",
        audit_rejects_wrong_host_gpus: WrongHostGpus => "job-1 holds 4 GPUs on server-0, indexed Some(5)",
        audit_rejects_empty_footprint: EmptyHosts => "indexes 0 GPUs on {}",
        audit_rejects_footprint_total_not_host_sum: GpusNotSum => "job-1 indexes 7 GPUs",
        audit_rejects_idle_index_missing_empty_loaner: IdleMissing => "out of lockstep for server-3 (empty: true)",
        audit_rejects_idle_index_holding_busy_loaner: IdleBusy => "out of lockstep for server-2 (empty: false)",
        audit_rejects_idle_index_holding_non_loaned: IdleNotLoaned => "holds non-loaned server-0",
        audit_rejects_training_used_off_by_one: TrainingUsed => "pool GPU-usage counters",
        audit_rejects_training_total_off_by_one: TrainingTotal => "pool GPU-usage counters",
        audit_rejects_on_loan_used_off_by_one: OnLoanUsed => "pool GPU-usage counters",
        audit_rejects_on_loan_total_off_by_one: OnLoanTotal => "pool GPU-usage counters",
        audit_rejects_empty_gpus_off_by_one: EmptyGpus => "empty-server GPUs 9 vs 8",
        audit_rejects_flexible_used_off_by_one: FlexibleUsed => "Flexible GPUs used 1 vs 0",
        audit_rejects_loaned_not_whitelisted: LoanedNotWhitelisted => "loaned server-3 is not whitelisted",
        audit_rejects_loaned_v100: LoanedV100 => "loaned server-0 is a dedicated training server",
        audit_rejects_down_whitelisted: DownWhitelisted => "down server-0 is still whitelisted",
        audit_rejects_down_loaned: DownLoaned => "down server-3 is still on the loan ledger",
        audit_rejects_down_hosting_workers: DownHostsWorkers => "down server-4 still hosts workers",
        audit_rejects_orphaned_workers: OrphanWorkers => "server-5 hosts workers but is outside the whitelist",
        audit_rejects_over_capacity: OverCapacity => "server-0: 4 GPUs used of 3",
        audit_rejects_unknown_whitelisted_id: UnknownWhitelisted => "whitelisted server-4294967295 does not exist",
        audit_rejects_unknown_loaned_id: UnknownLoaned => "loaned server-4294967295 does not exist",
        audit_rejects_unknown_idle_loaned_id: UnknownIdle => "idle-loaned server-4294967295 does not exist",
        audit_rejects_mis_slotted_server: MisSlotted => "slot 0 holds server-1",
    }

    #[test]
    fn audit_if_changed_caches_only_a_pass() {
        let mut c = fixture();
        let mut passed = None;
        assert_eq!(c.audit_if_changed(&mut passed), Ok(()));
        assert_eq!(passed, Some(c.generation()));
        // A corruption behind the mutators' backs leaves the generation
        // where it was, so it waits for the next mutation.
        Corruption::EmptyGpus.apply(&mut c, 0);
        assert_eq!(c.audit_if_changed(&mut passed), Ok(()));
        c.touch();
        assert!(c.audit_if_changed(&mut passed).is_err());
        assert_eq!(passed, None, "a failed audit is not cached");
        assert!(
            c.audit_if_changed(&mut passed).is_err(),
            "the unchanged state is audited again"
        );
    }

    #[test]
    fn audit_rejects_unknown_down_id() {
        // Stricter than the reference audit, which ignores it; no mutator
        // can create one (`crash_server` refuses unknown servers).
        let mut c = fixture();
        c.down.insert(ServerId(u32::MAX));
        assert!(c.audit().is_err());
        assert_eq!(c.audit_reference(), Ok(()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        // Random legal histories; after each step a copy of the state
        // takes one random corruption (or none), and the two audits must
        // agree on whether it is consistent. They may name different
        // first violations: the engine only counts `is_err()`. An unknown
        // id in `down` is not among the corruptions, because only the
        // single-pass audit rejects it (`audit_rejects_unknown_down_id`).
        #[test]
        fn audit_verdicts_match_reference(
            steps in proptest::collection::vec(
                (
                    0u8..8,
                    0u32..8,
                    1u32..4,
                    0u64..4,
                    0usize..=Corruption::ALL.len(),
                    proptest::prelude::any::<usize>(),
                ),
                1..40,
            ),
        ) {
            let mut c = ClusterState::new(ClusterConfig {
                training_servers: 3,
                inference_servers: 4,
                gpus_per_server: 8,
                speed: SpeedFactors::default(),
            });
            for (op, server, n, job, corruption, pick) in steps {
                let (id, job) = (ServerId(server), JobId(job));
                let group = if n % 2 == 0 { ServerGroup::Flexible } else { ServerGroup::Base };
                // Server 7 does not exist; refused operations change nothing.
                let _ = match op {
                    0 => c.loan(n).map(drop),
                    1 => c.allocate(job, &[(id, n)], 2, group),
                    2 => c.release(job, &[(id, n)], 2),
                    3 => c.vacate_server(id).map(drop),
                    4 => {
                        c.evict_job(job);
                        Ok(())
                    }
                    5 => c.crash_server(id).map(drop),
                    6 => c.recover_server(id),
                    _ => c.return_servers(&[id]),
                };
                proptest::prop_assert_eq!((c.audit(), c.audit_reference()), (Ok(()), Ok(())));
                if let Some(&corruption) = Corruption::ALL.get(corruption) {
                    let mut bad = c.clone();
                    corruption.apply(&mut bad, pick);
                    proptest::prop_assert_eq!(
                        bad.audit().is_ok(),
                        bad.audit_reference().is_ok(),
                        "{:?} after op {}",
                        corruption,
                        op
                    );
                }
            }
        }
    }
}
