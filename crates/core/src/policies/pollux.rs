//! Pollux-style goodput-driven scheduling with a genetic algorithm (§7.1).
//!
//! Pollux (OSDI '21) models each job's *goodput* — system throughput times
//! statistical efficiency — co-tunes the batch size with the allocation
//! (Adascale keeps the learning rate consistent), and searches the joint
//! allocation space with a genetic algorithm. The paper's replication notes
//! that Pollux's behaviour hinges on the iteration budget ("the preset 100
//! iterations are not sufficient … we set the number of iterations to 250")
//! and that it does not explicitly maximise the number of launched jobs,
//! which costs it queuing time (§7.4).
//!
//! This implementation follows that structure: a seeded GA over worker
//! counts, fitness = sum of tuned per-job speedups (goodput relative to the
//! job's base allocation) with a small penalty per reallocation, capacity
//! repair by random decrement, elitism, tournament selection and uniform
//! crossover.

use super::{assignment_workers, scale_in_removal, JobScheduler};
use crate::gpu::GpuType;
use crate::job::JobSpec;
use crate::placement::{place_best_effort, place_gang, PlacementConfig};
use crate::snapshot::{Action, PoolKind, ServerGroup, ServerView, Snapshot};
use crate::tuning::GoodputModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pollux configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolluxConfig {
    /// Genetic-algorithm iterations per epoch (the paper uses 250 at
    /// cluster scale).
    pub iterations: u32,
    /// Population size.
    pub population: usize,
    /// Penalty subtracted from fitness per resized running job — Pollux's
    /// reallocation-cost term.
    pub realloc_penalty: f64,
    /// RNG seed (the GA is stochastic but reproducible).
    pub seed: u64,
}

impl Default for PolluxConfig {
    fn default() -> Self {
        PolluxConfig {
            iterations: 250,
            population: 24,
            realloc_penalty: 0.05,
            seed: 0xB0CC1,
        }
    }
}

/// The Pollux comparator.
#[derive(Debug, Clone)]
pub struct PolluxScheduler {
    /// Configuration.
    pub config: PolluxConfig,
    rng: StdRng,
}

impl PolluxScheduler {
    /// Creates the scheduler.
    pub fn new(config: PolluxConfig) -> Self {
        PolluxScheduler {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }
}

impl Default for PolluxScheduler {
    fn default() -> Self {
        Self::new(PolluxConfig::default())
    }
}

/// One decision variable of the GA.
struct Gene {
    /// Source: pending index or running index.
    pending_idx: Option<usize>,
    running_idx: Option<usize>,
    /// Admissible worker counts: `0` means "leave queued" (pending only).
    min: u32,
    max: u32,
    can_skip: bool,
    gpus_per_worker: u32,
    /// Current workers (running jobs) for the reallocation penalty.
    current: Option<u32>,
}

/// Tuned goodput of `spec` at `workers`, normalised by its base-allocation
/// goodput — Pollux's per-job "speedup".
fn speedup_at(spec: &JobSpec, model: &GoodputModel, workers: u32, progress: f64) -> f64 {
    if workers == 0 {
        return 0.0;
    }
    let (_, tuned) = model.best_batch(spec.curve.speedup(workers), workers, progress);
    let base = model.goodput(
        spec.curve.speedup(spec.w_min()),
        spec.w_min(),
        model.base_local_batch,
        progress,
    );
    if base <= 0.0 {
        0.0
    } else {
        tuned / base
    }
}

impl JobScheduler for PolluxScheduler {
    fn name(&self) -> &'static str {
        "pollux"
    }

    fn schedule(&mut self, snapshot: &Snapshot) -> Vec<Action> {
        // Capacity: idle GPUs plus the entire allocation of running elastic
        // jobs — their genes pay for every worker down to `w_min`, so the
        // pool must include the base GPUs they already hold.
        let capacity: u64 = u64::from(snapshot.free_gpus())
            + snapshot
                .running
                .iter()
                .filter(|r| r.spec.is_elastic())
                .map(|r| u64::from(r.workers) * u64::from(r.spec.gpus_per_worker))
                .sum::<u64>();

        // Build genes and per-gene goodput context.
        let mut genes: Vec<Gene> = Vec::new();
        let mut specs: Vec<&JobSpec> = Vec::new();
        let mut progresses: Vec<f64> = Vec::new();
        for (i, p) in snapshot.pending.iter().enumerate() {
            genes.push(Gene {
                pending_idx: Some(i),
                running_idx: None,
                min: p.spec.w_min(),
                max: p.spec.w_max(),
                can_skip: true,
                gpus_per_worker: p.spec.gpus_per_worker,
                current: None,
            });
            specs.push(&p.spec);
            let work = p.spec.work();
            progresses.push(if work > 0.0 {
                (1.0 - p.work_left / work).clamp(0.0, 1.0)
            } else {
                0.0
            });
        }
        for (i, r) in snapshot.running.iter().enumerate() {
            if !r.spec.is_elastic() {
                continue;
            }
            genes.push(Gene {
                pending_idx: None,
                running_idx: Some(i),
                min: r.spec.w_min(),
                max: r.spec.w_max(),
                can_skip: false,
                gpus_per_worker: r.spec.gpus_per_worker,
                current: Some(r.workers),
            });
            specs.push(&r.spec);
            let work = r.spec.work();
            progresses.push(if work > 0.0 {
                (1.0 - r.work_left / work).clamp(0.0, 1.0)
            } else {
                0.0
            });
        }
        if genes.is_empty() {
            return Vec::new();
        }
        let models: Vec<GoodputModel> = specs
            .iter()
            .map(|s| GoodputModel::typical(s.w_min()))
            .collect();

        let used = |ind: &[u32]| -> u64 {
            ind.iter()
                .zip(&genes)
                .map(|(&w, g)| u64::from(w) * u64::from(g.gpus_per_worker))
                .sum()
        };
        let repair = |ind: &mut [u32], rng: &mut StdRng| {
            let mut guard = 0;
            while used(ind) > capacity && guard < 100_000 {
                guard += 1;
                let i = rng.gen_range(0..ind.len());
                let g = &genes[i];
                if ind[i] == 0 {
                    continue;
                }
                if ind[i] > g.min {
                    ind[i] -= 1;
                } else if g.can_skip {
                    ind[i] = 0;
                }
                // Running jobs stuck at min cannot shrink further; try
                // another index (the guard bounds the loop when nothing
                // can shrink — then the individual stays infeasible and
                // gets a fitness of -inf below).
            }
        };
        let fitness = |ind: &[u32]| -> f64 {
            if used(ind) > capacity {
                return f64::NEG_INFINITY;
            }
            let mut f = 0.0;
            for (i, &w) in ind.iter().enumerate() {
                f += speedup_at(specs[i], &models[i], w, progresses[i]);
                if let Some(cur) = genes[i].current {
                    if w != cur {
                        f -= self.config.realloc_penalty;
                    }
                }
            }
            f
        };

        // Seed population: current state, all-min, randoms.
        let mut population: Vec<Vec<u32>> = Vec::with_capacity(self.config.population);
        let current: Vec<u32> = genes.iter().map(|g| g.current.unwrap_or(0)).collect();
        let mut all_min: Vec<u32> = genes.iter().map(|g| g.min).collect();
        repair(&mut all_min, &mut self.rng);
        population.push(current.clone());
        population.push(all_min);
        while population.len() < self.config.population {
            let mut ind: Vec<u32> = genes
                .iter()
                .map(|g| {
                    if g.can_skip && self.rng.gen_bool(0.3) {
                        0
                    } else {
                        self.rng.gen_range(g.min..=g.max)
                    }
                })
                .collect();
            repair(&mut ind, &mut self.rng);
            population.push(ind);
        }

        // Cache each individual's fitness; recompute only on replacement.
        let mut fits: Vec<f64> = population.iter().map(|ind| fitness(ind)).collect();
        let mut best_i = 0;
        for (i, &f) in fits.iter().enumerate() {
            if f > fits[best_i] {
                best_i = i;
            }
        }
        let mut best = population[best_i].clone();
        let mut best_fit = fits[best_i];

        for _ in 0..self.config.iterations {
            // Tournament selection of two parents.
            let pick = |rng: &mut StdRng| -> usize {
                let a = rng.gen_range(0..population.len());
                let b = rng.gen_range(0..population.len());
                if fits[a] >= fits[b] {
                    a
                } else {
                    b
                }
            };
            let pa = pick(&mut self.rng);
            let pb = pick(&mut self.rng);
            // Uniform crossover.
            let mut child: Vec<u32> = (0..genes.len())
                .map(|i| {
                    if self.rng.gen_bool(0.5) {
                        population[pa][i]
                    } else {
                        population[pb][i]
                    }
                })
                .collect();
            // Mutation.
            if self.rng.gen_bool(0.8) {
                let i = self.rng.gen_range(0..genes.len());
                let g = &genes[i];
                child[i] = if g.can_skip && self.rng.gen_bool(0.2) {
                    0
                } else {
                    self.rng.gen_range(g.min..=g.max)
                };
            }
            repair(&mut child, &mut self.rng);
            let cf = fitness(&child);
            // Replace the weakest individual.
            let mut wi = 0;
            for (i, &f) in fits.iter().enumerate() {
                if f < fits[wi] {
                    wi = i;
                }
            }
            if cf > fits[wi] {
                population[wi] = child.clone();
                fits[wi] = cf;
            }
            if cf > best_fit {
                best = child;
                best_fit = cf;
            }
        }

        // Translate the best individual into actions.
        let mut servers: Vec<ServerView> = snapshot.servers.clone();
        let mut scale_ins: Vec<Action> = Vec::new();
        let mut launches: Vec<Action> = Vec::new();
        let mut scale_outs: Vec<Action> = Vec::new();
        let placement_config = PlacementConfig {
            special_elastic_treatment: false,
        };

        // Scale-ins first (free capacity).
        for (gi, g) in genes.iter().enumerate() {
            let Some(ri) = g.running_idx else { continue };
            let r = &snapshot.running[ri];
            let target = best[gi].max(g.min);
            if target < r.workers {
                let removal = scale_in_removal(r, r.workers - target);
                for &(sid, w) in &removal {
                    if let Some(s) = servers.iter_mut().find(|s| s.id == sid) {
                        s.free_gpus = (s.free_gpus + w * r.spec.gpus_per_worker).min(s.total_gpus);
                    }
                }
                if !removal.is_empty() {
                    scale_ins.push(Action::ScaleIn {
                        job: r.spec.id,
                        removal,
                    });
                }
            }
        }
        // Launches.
        for (gi, g) in genes.iter().enumerate() {
            let Some(pi) = g.pending_idx else { continue };
            if best[gi] == 0 {
                continue;
            }
            let spec = &snapshot.pending[pi].spec;
            let base = spec.w_min();
            let mut placed = place_gang(
                &mut servers,
                PoolKind::Training,
                base,
                spec.gpus_per_worker,
                ServerGroup::Base,
                placement_config,
            )
            .map(|a| (base, a));
            if placed.is_none() && spec.fungible {
                let count = if spec.is_elastic() {
                    base
                } else {
                    base * GpuType::T4.worker_multiplier(spec.reference_gpu)
                };
                placed = place_gang(
                    &mut servers,
                    PoolKind::OnLoan,
                    count,
                    spec.gpus_per_worker,
                    ServerGroup::Base,
                    placement_config,
                )
                .map(|a| (count, a));
            }
            let Some((workers, placement)) = placed else {
                continue;
            };
            launches.push(Action::Launch {
                job: spec.id,
                workers,
                placement,
            });
            let extra = best[gi].saturating_sub(base);
            if extra > 0 {
                let pools = if spec.fungible {
                    vec![PoolKind::Training, PoolKind::OnLoan]
                } else {
                    vec![PoolKind::Training]
                };
                let a = place_best_effort(
                    &mut servers,
                    &pools,
                    extra,
                    spec.gpus_per_worker,
                    ServerGroup::Flexible,
                    placement_config,
                    spec.hetero_capable,
                );
                if !a.is_empty() {
                    scale_outs.push(Action::ScaleOut {
                        job: spec.id,
                        extra: assignment_workers(&a),
                        placement: a,
                    });
                }
            }
        }
        // Scale-outs for running jobs.
        for (gi, g) in genes.iter().enumerate() {
            let Some(ri) = g.running_idx else { continue };
            let r = &snapshot.running[ri];
            let target = best[gi].max(g.min);
            if target > r.workers {
                let pools = if r.spec.fungible {
                    vec![PoolKind::Training, PoolKind::OnLoan]
                } else {
                    vec![PoolKind::Training]
                };
                let a = place_best_effort(
                    &mut servers,
                    &pools,
                    target - r.workers,
                    r.spec.gpus_per_worker,
                    ServerGroup::Flexible,
                    placement_config,
                    r.spec.hetero_capable,
                );
                if !a.is_empty() {
                    scale_outs.push(Action::ScaleOut {
                        job: r.spec.id,
                        extra: assignment_workers(&a),
                        placement: a,
                    });
                }
            }
        }

        let mut actions = scale_ins;
        actions.extend(launches);
        actions.extend(scale_outs);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::snapshot::{PendingJobView, RunningJobView, ServerId};

    fn training(n: u32) -> Vec<ServerView> {
        (0..n)
            .map(|i| ServerView::idle(i, PoolKind::Training, GpuType::V100, 8))
            .collect()
    }

    fn fast_config() -> PolluxConfig {
        PolluxConfig {
            iterations: 100,
            population: 16,
            realloc_penalty: 0.05,
            seed: 7,
        }
    }

    #[test]
    fn launches_jobs_when_capacity_abounds() {
        let a = JobSpec::elastic(0, 0.0, 2, 4, 1, 50.0);
        let b = JobSpec::elastic(1, 0.0, 2, 4, 1, 30.0);
        let snap = Snapshot {
            time_s: 0.0,
            servers: training(2),
            pending: vec![PendingJobView::fresh(a), PendingJobView::fresh(b)],
            running: vec![],
        };
        let actions = PolluxScheduler::new(fast_config()).schedule(&snap);
        let launched: Vec<JobId> = actions
            .iter()
            .filter_map(|x| match x {
                Action::Launch { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(launched.len(), 2, "plenty of room: both launch");
    }

    #[test]
    fn respects_capacity() {
        // 8 GPUs; three jobs wanting [2,8] workers each: the GA must keep
        // the total within capacity.
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::elastic(i, 0.0, 2, 8, 1, 50.0))
            .collect();
        let snap = Snapshot {
            time_s: 0.0,
            servers: training(1),
            pending: specs.into_iter().map(PendingJobView::fresh).collect(),
            running: vec![],
        };
        let actions = PolluxScheduler::new(fast_config()).schedule(&snap);
        let total: u32 = actions
            .iter()
            .map(|a| match a {
                Action::Launch { workers, .. } => *workers,
                Action::ScaleOut { extra, .. } => *extra,
                Action::ScaleIn { .. } => 0,
            })
            .sum();
        assert!(total <= 8, "placed {total} workers into 8 GPUs");
    }

    #[test]
    fn is_seed_deterministic() {
        let mk = || {
            let a = JobSpec::elastic(0, 0.0, 2, 8, 1, 50.0);
            let b = JobSpec::elastic(1, 0.0, 2, 8, 1, 10.0);
            Snapshot {
                time_s: 0.0,
                servers: training(1),
                pending: vec![PendingJobView::fresh(a), PendingJobView::fresh(b)],
                running: vec![],
            }
        };
        let x = PolluxScheduler::new(fast_config()).schedule(&mk());
        let y = PolluxScheduler::new(fast_config()).schedule(&mk());
        assert_eq!(x, y);
    }

    #[test]
    fn shrinks_nearly_done_jobs_for_fresh_ones() {
        // A running job at 95 % progress holding 8 workers vs a fresh
        // pending job: goodput favours reallocating toward the fresh job.
        let running = RunningJobView {
            spec: JobSpec::elastic(0, 0.0, 2, 8, 1, 100.0),
            workers: 8,
            work_left: 40.0, // 95 % done (work = 800)
            placement: vec![(ServerId(0), 8)],
            flexible_workers: 6,
            flex_placement: vec![(ServerId(0), 6)],
        };
        let fresh = JobSpec::elastic(1, 0.0, 2, 8, 1, 100.0);
        let mut srv = training(1);
        srv[0].free_gpus = 0; // the running job occupies all 8 GPUs
        let snap = Snapshot {
            time_s: 0.0,
            servers: srv,
            pending: vec![PendingJobView::fresh(fresh)],
            running: vec![running],
        };
        let actions = PolluxScheduler::new(fast_config()).schedule(&snap);
        assert!(
            actions.iter().any(|a| matches!(a, Action::ScaleIn { .. })),
            "old job shrinks: {actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Launch { job, .. } if *job == JobId(1))),
            "fresh job launches: {actions:?}"
        );
    }

    #[test]
    fn empty_snapshot_no_actions() {
        let mut s = PolluxScheduler::default();
        assert!(s.schedule(&Snapshot::default()).is_empty());
    }
}
