//! The synthetic training-job trace (§7.1's 15-day production trace).
//!
//! The generator is calibrated to every scheduler-visible statistic the
//! paper reports about its trace:
//!
//! * 50,390 jobs over 15 days on a 3,544-GPU cluster at ~82 % average
//!   utilisation — the default configuration reproduces the job count to
//!   within a few percent by generating jobs until the offered load matches
//!   `target_load`;
//! * running times from minutes to days (heavy-tailed log-normal);
//! * a demand mix dominated by 1-GPU jobs with a multi-server tail, and
//!   jobs commonly demanding a whole 8-GPU server;
//! * 21 % fungible jobs (can run on either GPU type across runs);
//! * ~5 % large elastic jobs (ResNet/VGG/BERT/GNMT families) holding ≈36 %
//!   of cluster resources with ~14.2 h average running time, scaling range
//!   `[demand, 2·demand]`;
//! * diurnal, weekday-weighted arrivals (training clusters are less busy
//!   on weekends, the effect behind Figure 12's low-gain traces).

use crate::distributions::{log_normal, weighted_choice};
use lyra_core::job::{JobId, JobSpec, ModelFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the job-trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Days the trace spans.
    pub days: u32,
    /// Training-cluster GPUs the load is calibrated against.
    pub training_gpus: u32,
    /// Offered load relative to cluster capacity (paper: ~0.82 average
    /// utilisation).
    pub target_load: f64,
    /// Explicit job count; overrides load calibration when set (used for
    /// the testbed workload of §7.5).
    pub num_jobs: Option<u32>,
    /// Fraction of fungible jobs (paper: 0.21).
    pub frac_fungible: f64,
    /// Fraction of elastic jobs (paper: ~0.05).
    pub frac_elastic: f64,
    /// Fraction of heterogeneous-capable jobs (0 in Basic, 0.10 in
    /// Advanced).
    pub frac_hetero: f64,
    /// Fraction of jobs with checkpointing (0 in the default conservative
    /// setup; swept in Figure 13).
    pub frac_checkpoint: f64,
    /// Median running time of ordinary jobs, seconds.
    pub inelastic_median_s: f64,
    /// Log-space sigma of ordinary running times.
    pub inelastic_sigma: f64,
    /// Median running time of elastic jobs at requested demand, seconds
    /// (calibrated so the mean is ≈14.2 h).
    pub elastic_median_s: f64,
    /// Log-space sigma of elastic running times.
    pub elastic_sigma: f64,
    /// Largest per-job GPU demand to generate (testbed caps at 16).
    pub max_demand_gpus: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            days: 15,
            training_gpus: 3544,
            target_load: 0.82,
            num_jobs: None,
            frac_fungible: 0.21,
            frac_elastic: 0.05,
            frac_hetero: 0.0,
            frac_checkpoint: 0.0,
            inelastic_median_s: 1500.0,
            inelastic_sigma: 1.6,
            elastic_median_s: 45_000.0,
            elastic_sigma: 0.5,
            max_demand_gpus: 128,
            seed: 0x7EACE,
        }
    }
}

impl TraceConfig {
    /// A quickly-simulated scaled-down configuration for tests and CI: two
    /// days on a 16-server cluster.
    pub fn small(seed: u64) -> Self {
        TraceConfig {
            days: 2,
            training_gpus: 128,
            seed,
            ..Default::default()
        }
    }

    /// The testbed workload of §7.5: 180 jobs (10 elastic) submitted over
    /// 8 hours, running times 2 minutes – 2 hours, demands ≤ 16 GPUs.
    pub fn testbed(seed: u64) -> Self {
        TraceConfig {
            days: 1,
            training_gpus: 32,
            target_load: 0.9,
            num_jobs: Some(180),
            frac_elastic: 10.0 / 180.0,
            inelastic_median_s: 900.0,
            inelastic_sigma: 0.9,
            elastic_median_s: 4_000.0,
            elastic_sigma: 0.4,
            max_demand_gpus: 16,
            seed,
            ..Default::default()
        }
    }
}

/// A generated job trace, sorted by submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Configuration the trace was generated with.
    pub config: TraceConfig,
    /// Jobs in submission order.
    pub jobs: Vec<JobSpec>,
}

/// Trace-level statistics used to validate calibration against §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of jobs.
    pub num_jobs: usize,
    /// Fraction of fungible jobs.
    pub frac_fungible: f64,
    /// Fraction of elastic jobs.
    pub frac_elastic: f64,
    /// Share of total GPU-seconds held by elastic jobs (paper: ≈0.36).
    pub elastic_resource_share: f64,
    /// Offered load relative to cluster capacity over the span.
    pub offered_load: f64,
    /// Mean elastic running time at requested demand, hours (paper: 14.2).
    pub elastic_mean_hours: f64,
    /// Median running time across all jobs, seconds.
    pub median_running_time_s: f64,
}

/// Relative arrival intensity at an absolute trace time.
///
/// Weekdays are busier than weekends and working hours busier than night —
/// the pattern behind Figure 2's hourly queuing ratio and Figure 12's
/// weekend observation. Day 0 is a Monday.
pub fn arrival_intensity(time_s: f64) -> f64 {
    let day = (time_s / 86_400.0).floor() as i64;
    let weekday = day.rem_euclid(7) as usize;
    let hour = (time_s % 86_400.0) / 3600.0;
    // Work-hour hump peaking mid-afternoon; nights are quiet, so the
    // daily peak runs well above the mean and congests the cluster the
    // way Figure 2's 100%-queuing hours do.
    let diurnal = 0.25
        + 1.30
            * (std::f64::consts::PI * ((hour - 3.0) / 12.0))
                .sin()
                .max(0.0);
    // Weekly rhythm: light Monday, mid-week crunch, quiet weekend. The
    // crunch days push offered load past capacity for hours, which is
    // what keeps mean queuing high for *every* scheduler in the paper's
    // trace.
    const WEEK: [f64; 7] = [0.90, 1.10, 1.25, 1.30, 1.10, 0.55, 0.50];
    diurnal * WEEK[weekday]
}

/// Samples an arrival time in `[0, horizon_s)` from the intensity via
/// rejection sampling.
fn sample_arrival(rng: &mut StdRng, horizon_s: f64) -> f64 {
    loop {
        let t = rng.gen_range(0.0..horizon_s);
        let u: f64 = rng.gen();
        if u < arrival_intensity(t) {
            return t;
        }
    }
}

/// Per-worker GPU count and worker count for an ordinary job.
fn sample_inelastic_shape(rng: &mut StdRng, max_gpus: u32) -> (u32, u32) {
    loop {
        let gpw = [1u32, 2, 4, 8][weighted_choice(rng, &[0.45, 0.20, 0.17, 0.18])];
        let workers = [1u32, 2, 4, 8, 16][weighted_choice(rng, &[0.45, 0.20, 0.15, 0.12, 0.08])];
        if gpw * workers <= max_gpus {
            return (gpw, workers);
        }
    }
}

/// Per-worker GPU count and base worker count for an elastic job.
fn sample_elastic_shape(rng: &mut StdRng, max_gpus: u32) -> (u32, u32) {
    loop {
        let gpw = [4u32, 8][weighted_choice(rng, &[0.6, 0.4])];
        let w_min = [1u32, 2, 4][weighted_choice(rng, &[0.30, 0.45, 0.25])];
        // The full range must fit the cap (w_max = 2·w_min).
        if gpw * w_min * 2 <= max_gpus {
            return (gpw, w_min);
        }
    }
}

impl JobTrace {
    /// Generates a trace from the configuration.
    ///
    /// Jobs are generated until either `num_jobs` is reached or the offered
    /// load (total GPU-seconds over capacity × span) reaches
    /// `target_load`; arrival times are then drawn from the diurnal
    /// intensity and the trace is sorted by submission.
    pub fn generate(config: TraceConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let horizon_s = f64::from(config.days) * 86_400.0;
        let capacity_gpu_s = f64::from(config.training_gpus) * horizon_s;
        let target_gpu_s = config.target_load * capacity_gpu_s;

        let elastic_families = [
            ModelFamily::ResNet50,
            ModelFamily::Vgg16,
            ModelFamily::Bert,
            ModelFamily::Gnmt16,
        ];

        // Elastic jobs are always fungible (they must reach the loaned
        // servers), so the inelastic fungible probability is derated to
        // keep the *overall* fungible fraction at `frac_fungible`.
        let frac_elastic = config.frac_elastic.clamp(0.0, 1.0);
        let inelastic_fungible = if frac_elastic < 1.0 {
            ((config.frac_fungible - frac_elastic) / (1.0 - frac_elastic)).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut total_gpu_s = 0.0;
        let mut id = 0u64;
        loop {
            match config.num_jobs {
                Some(n) => {
                    if jobs.len() >= n as usize {
                        break;
                    }
                }
                None => {
                    if total_gpu_s >= target_gpu_s {
                        break;
                    }
                }
            }
            // With an explicit job count the elastic quota is exact (the
            // testbed needs exactly 10 of 180); otherwise Bernoulli.
            let elastic = match config.num_jobs {
                Some(n) => (jobs.len() as f64) < (frac_elastic * f64::from(n)).round(),
                None => rng.gen_bool(frac_elastic),
            };
            let spec = if elastic {
                let (gpw, w_min) = sample_elastic_shape(&mut rng, config.max_demand_gpus);
                let w_max = w_min * 2;
                // The sampled duration is the running time at the
                // *requested* (base) demand; `min_running_time_s` is at
                // `w_max`, i.e. half of it under linear scaling.
                let duration = log_normal(&mut rng, config.elastic_median_s, config.elastic_sigma);
                let family = elastic_families[rng.gen_range(0..elastic_families.len())];
                JobSpec::elastic(id, 0.0, w_min, w_max, gpw, duration / 2.0)
                    .with_model(family)
                    .with_fungible(true)
            } else {
                let (gpw, workers) = sample_inelastic_shape(&mut rng, config.max_demand_gpus);
                let duration =
                    log_normal(&mut rng, config.inelastic_median_s, config.inelastic_sigma)
                        // Keep ordinary jobs within "minutes to days".
                        .clamp(60.0, 3.0 * 86_400.0);
                JobSpec::inelastic(id, 0.0, workers, gpw, duration)
                    .with_fungible(rng.gen_bool(inelastic_fungible))
            };
            let spec = spec
                .with_hetero(rng.gen_bool(config.frac_hetero.clamp(0.0, 1.0)))
                .with_checkpointing(rng.gen_bool(config.frac_checkpoint.clamp(0.0, 1.0)));
            // Account resource usage at the requested demand.
            total_gpu_s += f64::from(spec.base_gpus()) * spec.running_time(spec.w_min());
            jobs.push(spec);
            id += 1;
        }

        // Arrival times from the diurnal intensity. A fraction of jobs
        // arrives in submission storms (hyperparameter sweeps submit many
        // related jobs at once), sharing a storm anchor with small jitter.
        let mut i = 0;
        while i < jobs.len() {
            let t = sample_arrival(&mut rng, horizon_s);
            if rng.gen_bool(0.08) {
                let burst = rng.gen_range(4..=48usize).min(jobs.len() - i);
                for job in jobs.iter_mut().skip(i).take(burst) {
                    job.submit_time_s = (t + rng.gen_range(0.0..120.0)).min(horizon_s - 1.0);
                }
                i += burst;
            } else {
                jobs[i].submit_time_s = t;
                i += 1;
            }
        }
        jobs.sort_by(|a, b| a.submit_time_s.total_cmp(&b.submit_time_s));
        // Re-number in submission order so ids are monotone.
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = JobId(i as u64);
        }
        JobTrace { config, jobs }
    }

    /// Computes the calibration statistics of this trace.
    pub fn stats(&self) -> TraceStats {
        let n = self.jobs.len().max(1);
        let gpu_s = |j: &JobSpec| f64::from(j.base_gpus()) * j.running_time(j.w_min());
        let total: f64 = self.jobs.iter().map(gpu_s).sum();
        let elastic_total: f64 = self.jobs.iter().filter(|j| j.is_elastic()).map(gpu_s).sum();
        let elastic: Vec<&JobSpec> = self.jobs.iter().filter(|j| j.is_elastic()).collect();
        let elastic_mean_hours = if elastic.is_empty() {
            0.0
        } else {
            elastic
                .iter()
                .map(|j| j.running_time(j.w_min()))
                .sum::<f64>()
                / elastic.len() as f64
                / 3600.0
        };
        let mut runtimes: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| j.running_time(j.w_min()))
            .collect();
        runtimes.sort_by(f64::total_cmp);
        let capacity =
            f64::from(self.config.training_gpus) * f64::from(self.config.days) * 86_400.0;
        TraceStats {
            num_jobs: self.jobs.len(),
            frac_fungible: self.jobs.iter().filter(|j| j.fungible).count() as f64 / n as f64,
            frac_elastic: elastic.len() as f64 / n as f64,
            elastic_resource_share: if total > 0.0 {
                elastic_total / total
            } else {
                0.0
            },
            offered_load: if capacity > 0.0 {
                total / capacity
            } else {
                0.0
            },
            elastic_mean_hours,
            median_running_time_s: runtimes.get(n / 2).copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_trace_matches_paper_statistics() {
        let trace = JobTrace::generate(TraceConfig::default());
        let s = trace.stats();
        // ~50 k jobs on the full configuration (the paper has 50,390).
        assert!(
            (35_000..70_000).contains(&s.num_jobs),
            "job count {}",
            s.num_jobs
        );
        assert!((s.frac_fungible - 0.21).abs() < 0.03, "{}", s.frac_fungible);
        assert!((s.frac_elastic - 0.05).abs() < 0.02, "{}", s.frac_elastic);
        assert!(
            (0.25..0.50).contains(&s.elastic_resource_share),
            "elastic share {}",
            s.elastic_resource_share
        );
        assert!(
            (s.offered_load - 0.82).abs() < 0.05,
            "load {}",
            s.offered_load
        );
        assert!(
            (10.0..18.0).contains(&s.elastic_mean_hours),
            "elastic mean hours {}",
            s.elastic_mean_hours
        );
    }

    #[test]
    fn running_times_span_minutes_to_days() {
        let trace = JobTrace::generate(TraceConfig::default());
        let max = trace
            .jobs
            .iter()
            .map(|j| j.running_time(j.w_min()))
            .fold(0.0, f64::max);
        let min = trace
            .jobs
            .iter()
            .map(|j| j.running_time(j.w_min()))
            .fold(f64::INFINITY, f64::min);
        assert!(min < 600.0, "shortest job {min}s");
        assert!(max > 86_400.0, "longest job {max}s");
    }

    #[test]
    fn jobs_sorted_with_monotone_ids() {
        let trace = JobTrace::generate(TraceConfig::small(3));
        for w in trace.jobs.windows(2) {
            assert!(w[0].submit_time_s <= w[1].submit_time_s);
            assert!(w[0].id < w[1].id);
        }
        let horizon = f64::from(trace.config.days) * 86_400.0;
        assert!(trace.jobs.iter().all(|j| j.submit_time_s < horizon));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = JobTrace::generate(TraceConfig::small(9));
        let b = JobTrace::generate(TraceConfig::small(9));
        assert_eq!(a, b);
        let c = JobTrace::generate(TraceConfig::small(10));
        assert_ne!(a, c, "different seed → different trace");
    }

    #[test]
    fn testbed_workload_shape() {
        let trace = JobTrace::generate(TraceConfig::testbed(1));
        assert_eq!(trace.jobs.len(), 180);
        let elastic = trace.jobs.iter().filter(|j| j.is_elastic()).count();
        assert!((5..=20).contains(&elastic), "{elastic} elastic jobs");
        assert!(trace
            .jobs
            .iter()
            .all(|j| j.w_max() * j.gpus_per_worker <= 16));
    }

    #[test]
    fn elastic_jobs_have_doubled_range_and_fungibility() {
        let trace = JobTrace::generate(TraceConfig::small(4));
        for j in trace.jobs.iter().filter(|j| j.is_elastic()) {
            assert_eq!(j.w_max(), 2 * j.w_min());
            assert!(j.fungible, "elastic jobs can use loaned servers");
            assert!(j.model.scales_well());
        }
    }

    #[test]
    fn weekend_arrivals_are_lighter() {
        let trace = JobTrace::generate(TraceConfig::default());
        // Days 0–4 are weekdays, 5–6 weekend (two full weeks in 15 days).
        let mut weekday = 0usize;
        let mut weekend = 0usize;
        for j in &trace.jobs {
            let day = (j.submit_time_s / 86_400.0).floor() as i64 % 7;
            if day >= 5 {
                weekend += 1;
            } else {
                weekday += 1;
            }
        }
        let weekday_rate = weekday as f64 / 5.0;
        let weekend_rate = weekend as f64 / 2.0;
        assert!(
            weekend_rate < 0.75 * weekday_rate,
            "weekend {weekend_rate:.0} vs weekday {weekday_rate:.0}"
        );
    }

    #[test]
    fn hetero_and_checkpoint_fractions_apply() {
        let config = TraceConfig {
            frac_hetero: 0.10,
            frac_checkpoint: 0.50,
            ..TraceConfig::small(5)
        };
        let trace = JobTrace::generate(config);
        let n = trace.jobs.len() as f64;
        let hetero = trace.jobs.iter().filter(|j| j.hetero_capable).count() as f64 / n;
        let ckpt = trace.jobs.iter().filter(|j| j.checkpointing).count() as f64 / n;
        assert!((hetero - 0.10).abs() < 0.05, "hetero {hetero}");
        assert!((ckpt - 0.50).abs() < 0.08, "ckpt {ckpt}");
    }
}
