//! The inference-cluster utilisation trace (Figure 1).
//!
//! The paper measures the fraction of inference GPUs serving at least one
//! request at 5-minute intervals over one week: a clear diurnal pattern
//! with a ~4-hour ~95 % peak at night, a 42 % trough before dawn, ~65 %
//! mean and a ~2.2 peak-to-trough ratio. Short traffic bursts within a
//! 5-minute orchestrator interval have a median size of ~2 % of cluster
//! capacity, which motivates Lyra's fixed 2 % headroom (§7.1).
//!
//! The model: a smooth diurnal base curve (trough before dawn at 5 am,
//! ramp through the day, peak plateau 8 pm–midnight) plus AR(1) noise and
//! occasional exponential bursts, clamped to `[0, 1]`.

use crate::distributions::{exponential, standard_normal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds per trace sample (the paper measures every 5 minutes).
pub const SAMPLE_INTERVAL_S: u64 = 300;

/// Configuration of the synthetic utilisation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceTraceConfig {
    /// Days of trace to generate.
    pub days: u32,
    /// Total GPUs in the inference cluster (the paper's has ~4,160).
    pub total_gpus: u32,
    /// Utilisation at the pre-dawn trough (paper: 0.42).
    pub trough: f64,
    /// Utilisation at the nightly peak (paper: 0.95).
    pub peak: f64,
    /// AR(1) noise amplitude.
    pub noise: f64,
    /// Probability of a burst starting at any sample.
    pub burst_prob: f64,
    /// Mean burst size as a fraction of capacity (median ≈ 2 %).
    pub burst_mean: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InferenceTraceConfig {
    fn default() -> Self {
        InferenceTraceConfig {
            days: 15,
            total_gpus: 4160,
            trough: 0.42,
            peak: 0.95,
            noise: 0.02,
            burst_prob: 0.05,
            burst_mean: 0.03,
            seed: 0x1F5A,
        }
    }
}

/// A generated utilisation trace: one sample per 5-minute interval.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceTrace {
    /// Configuration it was generated with.
    pub config: InferenceTraceConfig,
    /// Utilisation samples in `[0, 1]`.
    pub samples: Vec<f64>,
}

/// Smooth diurnal base shape in `[0, 1]` for an hour-of-day in `[0, 24)`:
/// 0 at the 5 am trough, 1 on the 20:00–24:00 peak plateau.
fn diurnal_shape(hour: f64) -> f64 {
    // Piecewise-smooth: cosine ramp up 5→20, plateau 20→24, cosine ramp
    // down 0→5 (continuing the previous night's peak).
    if (20.0..24.0).contains(&hour) {
        1.0
    } else if hour >= 5.0 {
        // Rise from trough (5:00) to peak (20:00).
        let x = (hour - 5.0) / 15.0;
        0.5 - 0.5 * (std::f64::consts::PI * x).cos()
    } else {
        // Fall from peak (0:00, carried over) to trough (5:00).
        let x = hour / 5.0;
        0.5 + 0.5 * (std::f64::consts::PI * x).cos()
    }
}

impl InferenceTrace {
    /// Generates a trace from the configuration.
    pub fn generate(config: InferenceTraceConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let samples_per_day = (86_400 / SAMPLE_INTERVAL_S) as usize;
        let n = samples_per_day * config.days as usize;
        let mut samples = Vec::with_capacity(n);
        let mut ar = 0.0_f64;
        let mut burst = 0.0_f64;
        for i in 0..n {
            let hour = (i % samples_per_day) as f64 * (SAMPLE_INTERVAL_S as f64 / 3600.0);
            // The squared shape widens the trough so the weekly mean
            // lands near the paper's ~65 %.
            let base = config.trough + (config.peak - config.trough) * diurnal_shape(hour).powi(2);
            // AR(1) noise with coefficient 0.8.
            ar = 0.8 * ar + config.noise * standard_normal(&mut rng);
            // Bursts decay geometrically once started.
            burst *= 0.6;
            if rng.gen_bool(config.burst_prob) {
                burst += exponential(&mut rng, 1.0 / config.burst_mean);
            }
            samples.push((base + ar + burst).clamp(0.0, 1.0));
        }
        InferenceTrace { config, samples }
    }

    /// Utilisation at an absolute time (seconds from trace start), clamped
    /// to the last sample beyond the end.
    pub fn utilization_at(&self, time_s: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = (time_s.max(0.0) as u64 / SAMPLE_INTERVAL_S) as usize;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// GPUs busy with inference at `time_s`.
    pub fn gpus_busy_at(&self, time_s: f64) -> u32 {
        (self.utilization_at(time_s) * f64::from(self.config.total_gpus)).round() as u32
    }

    /// Servers (of `gpus_per_server`) the inference scheduler needs at
    /// `time_s` to serve the load — the whole-server ceiling of busy GPUs.
    pub fn servers_needed_at(&self, time_s: f64, gpus_per_server: u32) -> u32 {
        self.gpus_busy_at(time_s).div_ceil(gpus_per_server.max(1))
    }

    /// Mean utilisation across the trace.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// `(trough, peak)` as the 1st / 99th percentiles, robust to bursts.
    pub fn trough_peak(&self) -> (f64, f64) {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let p = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
        (p(0.01), p(0.99))
    }

    /// Median positive 5-minute utilisation increase, as a fraction of
    /// capacity — the paper's burst statistic behind the 2 % headroom.
    pub fn median_burst(&self) -> f64 {
        let mut ups: Vec<f64> = self
            .samples
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|d| *d > 0.0)
            .collect();
        if ups.is_empty() {
            return 0.0;
        }
        ups.sort_by(f64::total_cmp);
        ups[ups.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn week() -> InferenceTrace {
        InferenceTrace::generate(InferenceTraceConfig {
            days: 7,
            ..Default::default()
        })
    }

    #[test]
    fn figure1_statistics() {
        let t = week();
        let mean = t.mean();
        assert!((0.60..0.72).contains(&mean), "mean utilisation {mean}");
        let (trough, peak) = t.trough_peak();
        assert!((0.35..0.50).contains(&trough), "trough {trough}");
        assert!(peak > 0.90, "peak {peak}");
        let ratio = peak / trough;
        assert!((1.8..2.8).contains(&ratio), "peak-to-trough {ratio}");
    }

    #[test]
    fn burst_median_near_two_percent() {
        let t = week();
        let burst = t.median_burst();
        assert!(
            (0.005..0.04).contains(&burst),
            "median 5-minute burst {burst}"
        );
    }

    #[test]
    fn samples_are_bounded_and_deterministic() {
        let a = week();
        let b = week();
        assert_eq!(a, b, "same seed → same trace");
        assert!(a.samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert_eq!(a.samples.len(), 7 * 288);
    }

    #[test]
    fn diurnal_shape_has_trough_and_peak() {
        assert!(diurnal_shape(5.0) < 0.01);
        assert!(diurnal_shape(22.0) > 0.99);
        // Continuous at midnight: end of plateau matches start of decline.
        assert!((diurnal_shape(0.0) - 1.0).abs() < 1e-9);
        // Monotone rise through the afternoon.
        assert!(diurnal_shape(12.0) < diurnal_shape(16.0));
    }

    #[test]
    fn lookup_helpers() {
        let t = week();
        assert_eq!(t.utilization_at(-5.0), t.samples[0]);
        assert_eq!(t.utilization_at(1e12), *t.samples.last().unwrap());
        let busy = t.gpus_busy_at(0.0);
        assert!(busy <= t.config.total_gpus);
        let servers = t.servers_needed_at(0.0, 8);
        assert_eq!(servers, busy.div_ceil(8));
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = InferenceTrace {
            config: InferenceTraceConfig::default(),
            samples: vec![],
        };
        assert_eq!(t.utilization_at(0.0), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.median_burst(), 0.0);
    }
}
