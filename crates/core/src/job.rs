//! The training-job model.
//!
//! A job asks for a number of *workers* (containers), each of which occupies
//! a fixed number of GPUs. Jobs come in the flavours the paper's trace
//! analysis identifies (§7.1):
//!
//! * **Inelastic** — a fixed worker count; the job gang-waits until its full
//!   demand can be satisfied.
//! * **Elastic** — a worker count anywhere in `[w_min, w_max]`, adjustable
//!   on the fly (§2.2). The `w_min` part is the *base demand* and the rest
//!   is *flexible demand* (§5.2).
//! * **Fungible** — can run on either GPU type across runs (21 % of the
//!   trace), the prerequisite for capacity loaning.
//! * **Heterogeneous-capable** — can mix GPU types within one run, at a
//!   throughput penalty (§2.1, evaluated in §7.2).
//!
//! Progress is measured in *work units*: reference (V100) worker-seconds.
//! A job running `w` workers at aggregate speedup `s(w)` completes
//! `s(w) · capability` work units per second, so its running time is
//! inversely proportional to its allocation in the linear-scaling regime the
//! paper assumes (§5), and degrades gracefully under the non-linear curves
//! of §7.2.

use crate::gpu::GpuType;
use serde::{Deserialize, Serialize};

/// Unique identifier of a job within one trace / simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The scaling range of an elastic job (§2.2: "limited elasticity where the
/// worker number varies within a range").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Elasticity {
    /// Minimum workers the job needs to make progress (base demand).
    pub w_min: u32,
    /// Maximum workers the job can productively use.
    pub w_max: u32,
}

impl Elasticity {
    /// Creates a scaling range.
    ///
    /// # Panics
    ///
    /// Panics if `w_min` is zero or exceeds `w_max`.
    pub fn new(w_min: u32, w_max: u32) -> Self {
        assert!(w_min > 0, "base demand must be positive");
        assert!(w_min <= w_max, "scaling range must be non-empty");
        Elasticity { w_min, w_max }
    }

    /// Number of flexible (beyond-base) workers this job may take.
    pub fn flexible(self) -> u32 {
        self.w_max - self.w_min
    }
}

/// Whether a job's demand is fixed or a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobClass {
    /// Fixed demand; gang-scheduled all-or-nothing.
    Inelastic,
    /// Variable demand within [`Elasticity`]'s range.
    Elastic,
}

/// How aggregate training throughput grows with the number of workers.
///
/// The paper assumes linear scaling within the range for the models it
/// enables elasticity for (§2.2, Figure 3), and evaluates a pessimistic
/// per-worker-loss curve in §7.2 ("when one more worker is added to a job,
/// we add a 20 % loss to the throughput brought by this worker").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalingCurve {
    /// `s(w) = w`: running time inversely proportional to workers.
    Linear,
    /// `s(w) = 1 + (w − 1)·(1 − loss)`: every worker beyond the first
    /// contributes only `1 − loss` of a full worker.
    PerWorkerLoss {
        /// Fraction of an added worker's throughput that is lost.
        loss: f64,
    },
    /// Empirical speedups: `table[w − 1]` is the aggregate speedup with `w`
    /// workers. Queries beyond the table extrapolate with the last
    /// marginal gain.
    Table(Vec<f64>),
}

impl ScalingCurve {
    /// Aggregate speedup with `workers` workers relative to one worker.
    ///
    /// Returns `0.0` for zero workers. Speedup is non-decreasing in the
    /// worker count for all built-in curves with `loss ≤ 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lyra_core::ScalingCurve;
    /// assert_eq!(ScalingCurve::Linear.speedup(4), 4.0);
    /// let lossy = ScalingCurve::PerWorkerLoss { loss: 0.2 };
    /// assert!((lossy.speedup(4) - (1.0 + 3.0 * 0.8)).abs() < 1e-12);
    /// ```
    pub fn speedup(&self, workers: u32) -> f64 {
        if workers == 0 {
            return 0.0;
        }
        match self {
            ScalingCurve::Linear => f64::from(workers),
            ScalingCurve::PerWorkerLoss { loss } => 1.0 + f64::from(workers - 1) * (1.0 - loss),
            ScalingCurve::Table(table) => {
                if table.is_empty() {
                    return f64::from(workers);
                }
                let idx = (workers as usize).min(table.len());
                let base = table[idx - 1];
                if (workers as usize) <= table.len() {
                    base
                } else {
                    // Extrapolate with the last observed marginal gain.
                    let marginal = if table.len() >= 2 {
                        (table[table.len() - 1] - table[table.len() - 2]).max(0.0)
                    } else {
                        table[0]
                    };
                    base + marginal * (workers as usize - table.len()) as f64
                }
            }
        }
    }
}

/// The DNN family a job trains, used to pick throughput curves and tuning
/// behaviour. The four named families are the ones Figure 3 profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// ResNet-50 image classification.
    ResNet50,
    /// VGG-16 image classification.
    Vgg16,
    /// BERT language model.
    Bert,
    /// GNMT-16 machine translation.
    Gnmt16,
    /// Any other model; treated as inelastic-only by Lyra (§2.2).
    Generic,
}

impl ModelFamily {
    /// Whether the paper's measurements say this family scales well enough
    /// for elastic scheduling (§2.2).
    pub fn scales_well(self) -> bool {
        !matches!(self, ModelFamily::Generic)
    }
}

/// A training job as submitted to the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Submission time in seconds from trace start.
    pub submit_time_s: f64,
    /// GPUs occupied by each worker container.
    pub gpus_per_worker: u32,
    /// Requested workers: the fixed demand of an inelastic job, or the base
    /// demand (`w_min`) of an elastic one.
    pub demand: u32,
    /// Scaling range, present only for elastic jobs.
    pub elasticity: Option<Elasticity>,
    /// Running time in seconds when the job holds its *maximum* demand on
    /// training GPUs (the paper's "min. running time" for elastic jobs).
    pub min_running_time_s: f64,
    /// Whether the job can run on either GPU type (capacity-loaning
    /// candidate).
    pub fungible: bool,
    /// Whether the job can mix GPU types within one run.
    pub hetero_capable: bool,
    /// Whether the job checkpoints, so preemption preserves progress.
    pub checkpointing: bool,
    /// DNN family.
    pub model: ModelFamily,
    /// Throughput-vs-workers behaviour within the scaling range.
    pub curve: ScalingCurve,
    /// GPU type the demand was sized for (local batch size fits its memory).
    pub reference_gpu: GpuType,
    /// Seconds of stalled progress charged each time the job sheds workers
    /// (malleable-workload shrink cost; 0 means free, the paper's model).
    pub shrink_cost_s: f64,
    /// Seconds of stalled progress charged each time the job gains workers
    /// beyond the rendezvous pause (malleable-workload expand cost).
    pub expand_cost_s: f64,
    /// Completion deadline in seconds from trace start, for SLO scenarios.
    /// Deadlines never influence scheduling decisions; they only feed the
    /// deadline-miss rollup.
    pub deadline_s: Option<f64>,
}

impl JobSpec {
    /// Builds an inelastic job with the common defaults.
    pub fn inelastic(
        id: u64,
        submit_time_s: f64,
        demand: u32,
        gpus_per_worker: u32,
        running_time_s: f64,
    ) -> Self {
        JobSpec {
            id: JobId(id),
            submit_time_s,
            gpus_per_worker,
            demand,
            elasticity: None,
            min_running_time_s: running_time_s,
            fungible: false,
            hetero_capable: false,
            checkpointing: false,
            model: ModelFamily::Generic,
            curve: ScalingCurve::Linear,
            reference_gpu: GpuType::V100,
            shrink_cost_s: 0.0,
            expand_cost_s: 0.0,
            deadline_s: None,
        }
    }

    /// Builds an elastic job with the common defaults.
    ///
    /// `min_running_time_s` is the running time when the job holds `w_max`
    /// workers, matching Table 2's convention.
    pub fn elastic(
        id: u64,
        submit_time_s: f64,
        w_min: u32,
        w_max: u32,
        gpus_per_worker: u32,
        min_running_time_s: f64,
    ) -> Self {
        JobSpec {
            id: JobId(id),
            submit_time_s,
            gpus_per_worker,
            demand: w_min,
            elasticity: Some(Elasticity::new(w_min, w_max)),
            min_running_time_s,
            fungible: false,
            hetero_capable: false,
            checkpointing: false,
            model: ModelFamily::ResNet50,
            curve: ScalingCurve::Linear,
            reference_gpu: GpuType::V100,
            shrink_cost_s: 0.0,
            expand_cost_s: 0.0,
            deadline_s: None,
        }
    }

    /// Marks the job as fungible (runnable on loaned inference servers).
    pub fn with_fungible(mut self, fungible: bool) -> Self {
        self.fungible = fungible;
        self
    }

    /// Marks the job as heterogeneous-training capable.
    pub fn with_hetero(mut self, hetero: bool) -> Self {
        self.hetero_capable = hetero;
        self
    }

    /// Enables checkpointing.
    pub fn with_checkpointing(mut self, ckpt: bool) -> Self {
        self.checkpointing = ckpt;
        self
    }

    /// Sets the model family.
    pub fn with_model(mut self, model: ModelFamily) -> Self {
        self.model = model;
        self
    }

    /// Sets the scaling curve.
    pub fn with_curve(mut self, curve: ScalingCurve) -> Self {
        self.curve = curve;
        self
    }

    /// Sets a completion deadline in seconds from trace start.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Whether this job may take a variable number of workers.
    pub fn is_elastic(&self) -> bool {
        self.elasticity.is_some()
    }

    /// The job class.
    pub fn class(&self) -> JobClass {
        if self.is_elastic() {
            JobClass::Elastic
        } else {
            JobClass::Inelastic
        }
    }

    /// Minimum workers needed to run (base demand).
    pub fn w_min(&self) -> u32 {
        self.elasticity.map_or(self.demand, |e| e.w_min)
    }

    /// Maximum workers the job can use.
    pub fn w_max(&self) -> u32 {
        self.elasticity.map_or(self.demand, |e| e.w_max)
    }

    /// GPUs needed by the base demand.
    pub fn base_gpus(&self) -> u32 {
        self.w_min() * self.gpus_per_worker
    }

    /// GPUs needed by the maximum demand.
    pub fn max_gpus(&self) -> u32 {
        self.w_max() * self.gpus_per_worker
    }

    /// Total work in reference worker-seconds.
    ///
    /// Defined so that running at `w_max` on reference GPUs takes exactly
    /// [`JobSpec::min_running_time_s`].
    pub fn work(&self) -> f64 {
        self.curve.speedup(self.w_max()) * self.min_running_time_s
    }

    /// Work units completed per second with `workers` workers on GPUs with
    /// the given `capability` (1.0 for V100, 1/3 for T4).
    pub fn service_rate(&self, workers: u32, capability: f64) -> f64 {
        self.curve.speedup(workers) * capability
    }

    /// Running time in seconds with a constant allocation of `workers`
    /// workers on reference GPUs.
    ///
    /// Returns `f64::INFINITY` for zero workers.
    ///
    /// # Examples
    ///
    /// ```
    /// use lyra_core::JobSpec;
    /// // Table 2's job A: range [2, 6], 50 s at full allocation.
    /// let a = JobSpec::elastic(0, 0.0, 2, 6, 1, 50.0);
    /// assert!((a.running_time(6) - 50.0).abs() < 1e-9);
    /// assert!((a.running_time(2) - 150.0).abs() < 1e-9);
    /// ```
    pub fn running_time(&self, workers: u32) -> f64 {
        let rate = self.service_rate(workers, 1.0);
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            self.work() / rate
        }
    }

    /// Running time at base demand — the value SJF sorts on in phase 1.
    pub fn base_running_time(&self) -> f64 {
        self.running_time(self.w_min())
    }

    /// JCT reduction from holding `extra` flexible workers on top of base
    /// demand, over the job's remaining `work_left` work units.
    ///
    /// This is the item value of the phase-2 multiple-choice knapsack
    /// (§5.2, Figure 6).
    pub fn jct_reduction(&self, extra: u32, work_left: f64) -> f64 {
        let base = self.w_min();
        let r0 = self.service_rate(base, 1.0);
        let r1 = self.service_rate(base + extra, 1.0);
        if r0 <= 0.0 || r1 <= 0.0 {
            return 0.0;
        }
        (work_left / r0 - work_left / r1).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticity_rejects_bad_ranges() {
        let r = std::panic::catch_unwind(|| Elasticity::new(0, 4));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| Elasticity::new(5, 4));
        assert!(r.is_err());
        assert_eq!(Elasticity::new(2, 6).flexible(), 4);
    }

    #[test]
    fn linear_curve_is_proportional() {
        let c = ScalingCurve::Linear;
        assert_eq!(c.speedup(0), 0.0);
        assert_eq!(c.speedup(1), 1.0);
        assert_eq!(c.speedup(8), 8.0);
    }

    #[test]
    fn per_worker_loss_matches_paper_formula() {
        // §7.2: each added worker brings 80 % of a worker's throughput.
        let c = ScalingCurve::PerWorkerLoss { loss: 0.2 };
        assert_eq!(c.speedup(1), 1.0);
        assert!((c.speedup(2) - 1.8).abs() < 1e-12);
        assert!((c.speedup(5) - (1.0 + 4.0 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn table_curve_interpolates_and_extrapolates() {
        let c = ScalingCurve::Table(vec![1.0, 1.9, 2.7]);
        assert_eq!(c.speedup(2), 1.9);
        assert_eq!(c.speedup(3), 2.7);
        // Beyond the table: last marginal gain 0.8 per worker.
        assert!((c.speedup(5) - (2.7 + 2.0 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn table_curve_empty_falls_back_to_linear() {
        let c = ScalingCurve::Table(vec![]);
        assert_eq!(c.speedup(3), 3.0);
    }

    #[test]
    fn inelastic_job_has_degenerate_range() {
        let j = JobSpec::inelastic(1, 0.0, 4, 2, 100.0);
        assert_eq!(j.class(), JobClass::Inelastic);
        assert_eq!(j.w_min(), 4);
        assert_eq!(j.w_max(), 4);
        assert_eq!(j.base_gpus(), 8);
        assert!((j.work() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn elastic_running_time_is_inverse_in_workers() {
        let j = JobSpec::elastic(2, 0.0, 2, 6, 1, 20.0);
        // Table 2's job B: work = 6 × 20 = 120 worker-seconds.
        assert!((j.work() - 120.0).abs() < 1e-9);
        assert!((j.running_time(2) - 60.0).abs() < 1e-9);
        assert!((j.running_time(4) - 30.0).abs() < 1e-9);
        assert!((j.running_time(6) - 20.0).abs() < 1e-9);
        assert_eq!(j.running_time(0), f64::INFINITY);
    }

    #[test]
    fn jct_reduction_matches_figure_6() {
        // Figure 6 uses Table 4's jobs. Job B: range [2, 6], 20 s minimum
        // running time, 1 GPU per worker. Values over full work.
        let b = JobSpec::elastic(3, 0.0, 2, 6, 1, 20.0);
        let work = b.work();
        // Running time at base = 60 s; with 1 extra worker = 120/3 = 40 s
        // → reduction 20; 2 extra → 60 − 30 = 30; 3 → 36; 4 → 40.
        assert!((b.jct_reduction(1, work) - 20.0).abs() < 1e-9);
        assert!((b.jct_reduction(2, work) - 30.0).abs() < 1e-9);
        assert!((b.jct_reduction(3, work) - 36.0).abs() < 1e-9);
        assert!((b.jct_reduction(4, work) - 40.0).abs() < 1e-9);
        // Job A: range [2, 3], 100 s at max.
        let a = JobSpec::elastic(4, 0.0, 2, 3, 2, 100.0);
        assert!((a.jct_reduction(1, a.work()) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn service_rate_scales_with_capability() {
        let j = JobSpec::elastic(5, 0.0, 2, 4, 1, 30.0);
        assert!((j.service_rate(4, 1.0) - 4.0).abs() < 1e-12);
        assert!((j.service_rate(4, 1.0 / 3.0) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn builder_flags_apply() {
        let j = JobSpec::inelastic(6, 1.0, 1, 8, 10.0)
            .with_fungible(true)
            .with_hetero(true)
            .with_checkpointing(true)
            .with_model(ModelFamily::Bert)
            .with_curve(ScalingCurve::PerWorkerLoss { loss: 0.2 });
        assert!(j.fungible && j.hetero_capable && j.checkpointing);
        assert_eq!(j.model, ModelFamily::Bert);
        assert!(j.model.scales_well());
        assert!(!ModelFamily::Generic.scales_well());
    }
}
