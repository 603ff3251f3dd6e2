//! Bootstrap resampling of job traces (Figure 12).
//!
//! The paper validates reproducibility by composing ten 10-day traces from
//! the full 15-day trace with bootstrapping. We resample whole days with
//! replacement — preserving intra-day arrival structure and the
//! weekday/weekend signature that explains the low-gain traces the paper
//! calls out (traces that happen to draw two weekends).

use crate::jobgen::JobTrace;
use lyra_core::job::JobId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a `days`-day trace by sampling source days (with replacement)
/// from `base` and concatenating their jobs on a fresh timeline.
///
/// Jobs keep their intra-day submission offsets; ids are renumbered in the
/// new submission order. The resulting trace's `config` reflects the new
/// span but is otherwise inherited.
///
/// # Examples
///
/// ```
/// use lyra_trace::{bootstrap_trace, JobTrace, TraceConfig};
/// let base = JobTrace::generate(TraceConfig::small(1));
/// let resampled = bootstrap_trace(&base, 2, 7);
/// assert_eq!(resampled.config.days, 2);
/// ```
pub fn bootstrap_trace(base: &JobTrace, days: u32, seed: u64) -> JobTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let source_days = base.config.days.max(1);
    let mut jobs = Vec::new();
    for day in 0..days {
        let src = rng.gen_range(0..source_days);
        let lo = f64::from(src) * 86_400.0;
        let hi = lo + 86_400.0;
        for j in &base.jobs {
            if j.submit_time_s >= lo && j.submit_time_s < hi {
                let mut job = j.clone();
                job.submit_time_s = f64::from(day) * 86_400.0 + (j.submit_time_s - lo);
                jobs.push(job);
            }
        }
    }
    jobs.sort_by(|a, b| a.submit_time_s.total_cmp(&b.submit_time_s));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = JobId(i as u64);
    }
    let mut config = base.config;
    config.days = days;
    config.seed = seed;
    JobTrace { config, jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobgen::TraceConfig;

    fn base() -> JobTrace {
        JobTrace::generate(TraceConfig::small(11))
    }

    #[test]
    fn resampled_span_and_order() {
        let b = base();
        let t = bootstrap_trace(&b, 3, 5);
        assert_eq!(t.config.days, 3);
        let horizon = 3.0 * 86_400.0;
        for w in t.jobs.windows(2) {
            assert!(w[0].submit_time_s <= w[1].submit_time_s);
        }
        assert!(t.jobs.iter().all(|j| j.submit_time_s < horizon));
        assert!(t.jobs.iter().enumerate().all(|(i, j)| j.id.0 == i as u64));
    }

    #[test]
    fn deterministic_per_seed() {
        let b = base();
        assert_eq!(bootstrap_trace(&b, 2, 3), bootstrap_trace(&b, 2, 3));
        assert_ne!(bootstrap_trace(&b, 2, 3), bootstrap_trace(&b, 2, 4));
    }

    #[test]
    fn jobs_come_from_base_population() {
        let b = base();
        let t = bootstrap_trace(&b, 2, 9);
        assert!(!t.jobs.is_empty());
        // Every resampled job matches some base job up to id/submit time.
        for j in t.jobs.iter().take(50) {
            assert!(b.jobs.iter().any(|x| {
                x.gpus_per_worker == j.gpus_per_worker
                    && x.demand == j.demand
                    && (x.min_running_time_s - j.min_running_time_s).abs() < 1e-9
            }));
        }
    }

    #[test]
    fn ten_traces_differ() {
        let b = JobTrace::generate(TraceConfig::default());
        let mut sizes = Vec::new();
        for seed in 0..10 {
            let t = bootstrap_trace(&b, 10, seed);
            sizes.push(t.jobs.len());
        }
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min, "resampling varies trace volume: {sizes:?}");
    }
}
