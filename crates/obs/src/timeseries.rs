//! The run's one metrics store: deterministic, bounded-memory time
//! series for scheduler health, cumulative counters and fixed-bucket
//! histograms.
//!
//! The simulator samples a fixed set of gauges once per scheduler epoch
//! (queue depth, utilization split, loaned capacity, reclaim backlog,
//! fragmentation, …) into [`RingSeries`] — fixed-capacity series with
//! *deterministic decimation*: when a series fills, every other retained
//! point is dropped and the sampling stride doubles. The retained point
//! set is a pure function of the sample sequence, so same-seed runs
//! export byte-identical series, and memory stays bounded no matter how
//! long the run is (1M-job scale included).
//!
//! Event counters (`<area>.<object>.<measure>`, e.g.
//! `sim.jobs.completed`) are cumulative and back the `rate.*` series.
//! Three [`Histogram`]s ride along — simulated epoch span and modelled
//! decision latency (log2 buckets) and job completion time (1 min …
//! 7 days) — with bucket bounds frozen at construction so golden gates
//! can pin exported bytes. Wall-clock
//! readings never enter this module (the span profiler owns wall-clock);
//! every recorded quantity is simulated or modelled.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::SchedEvent;

/// Default per-series point capacity. At one sample per 30-second epoch
/// this holds ~4 hours at full rate, a week at stride 64, and years at
/// the strides a 1M-job run decimates to — all in ≤ `cap` points.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One sample: simulated time and gauge value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Simulated time of the sample, milliseconds.
    pub t_ms: u64,
    /// Gauge value at that instant.
    pub value: f64,
}

/// A fixed-capacity time series with deterministic stride decimation.
///
/// Samples are *subsampled*, not averaged: every `stride`-th offered
/// sample is retained point-in-time, the rest are discarded. When the
/// buffer reaches capacity, every other retained point is dropped and
/// the stride doubles. Both rules depend only on the monotonic sample
/// index, never on wall-clock or allocation state, so the retained set
/// is reproducible byte-for-byte across same-seed runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingSeries {
    /// Maximum retained points; decimation halves the buffer at this
    /// threshold, so `len()` stays within `cap/2..=cap`.
    cap: usize,
    /// Current sampling stride: a sample is retained iff its index is a
    /// multiple of `stride`. Doubles at each decimation.
    stride: u64,
    /// Monotonic count of samples *offered* (retained or not).
    offered: u64,
    /// Retained points, oldest first.
    points: Vec<SeriesPoint>,
    /// Smallest and largest value over every sample offered, decimated
    /// ones included; `0.0` before the first sample.
    min: f64,
    max: f64,
    /// The most recent sample offered, retained or not.
    last: SeriesPoint,
}

impl RingSeries {
    /// Creates an empty series retaining at most `cap` points
    /// (minimum 2, so decimation always makes progress).
    pub fn new(cap: usize) -> Self {
        RingSeries {
            cap: cap.max(2),
            stride: 1,
            offered: 0,
            points: Vec::new(),
            min: 0.0,
            max: 0.0,
            last: SeriesPoint {
                t_ms: 0,
                value: 0.0,
            },
        }
    }

    /// Offers one sample. Retained iff the sample's monotonic index is a
    /// multiple of the current stride; triggers decimation when the
    /// buffer is full.
    pub fn record(&mut self, t_ms: u64, value: f64) {
        if self.offered == 0 {
            (self.min, self.max) = (value, value);
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.last = SeriesPoint { t_ms, value };
        if self.offered.is_multiple_of(self.stride) {
            if self.points.len() == self.cap {
                // Keep every other point (even offsets) and double the
                // stride: pure function of the index sequence.
                let mut i = 0;
                self.points.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
            // The surviving index grid after decimation is multiples of
            // the *new* stride; only record if this index still lands
            // on it (it may not, immediately after doubling).
            if self.offered.is_multiple_of(self.stride) {
                self.points.push(SeriesPoint { t_ms, value });
            }
        }
        self.offered += 1;
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total samples offered (retained or decimated away).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Current decimation stride.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The smallest value over every sample offered, decimated ones
    /// included (`None` before the first sample).
    pub fn min(&self) -> Option<f64> {
        (self.offered > 0).then_some(self.min)
    }

    /// The largest value over every sample offered, decimated ones
    /// included (`None` before the first sample).
    pub fn max(&self) -> Option<f64> {
        (self.offered > 0).then_some(self.max)
    }

    /// The most recent sample offered, decimated or not (`None` before
    /// the first sample).
    pub fn last(&self) -> Option<SeriesPoint> {
        (self.offered > 0).then_some(self.last)
    }
}

/// A histogram with fixed bucket bounds.
///
/// Bounds are frozen at construction, plus an implicit overflow bucket,
/// so exported bytes are pinnable by the golden gate. Observations are
/// `f64` but the intended inputs are simulated/modelled quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Counts per bucket; `bounds.len() + 1` entries, last = overflow.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Creates a histogram with power-of-two bounds
    /// `2^min_exp ..= 2^max_exp`.
    pub fn log2(min_exp: u32, max_exp: u32) -> Self {
        let bounds: Vec<f64> = (min_exp..=max_exp).map(|e| (1u64 << e) as f64).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }
}

/// The per-run metrics store: named ring series, cumulative counters
/// and the two epoch histograms.
///
/// It is `serde`-serialisable because it travels in the run report
/// (`SimReport::telemetry`) and in its `--json` archive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Per-series retained-point capacity used for new series.
    pub capacity: usize,
    /// Scheduler epochs sampled so far.
    pub epochs: u64,
    /// Named gauge series, in stable (sorted) order.
    series: BTreeMap<String, RingSeries>,
    /// Cumulative event counters (`sim.jobs.completed`, …), sorted.
    counters: BTreeMap<String, u64>,
    /// Previous cumulative counter values backing the `rate.*` series.
    prev_counters: BTreeMap<String, u64>,
    /// Simulated time of the previous epoch sample, if any.
    last_sample_ms: Option<u64>,
    /// Simulated span between consecutive epoch samples, milliseconds.
    pub epoch_span_ms: Histogram,
    /// Modelled scheduler decision latency per epoch, milliseconds.
    pub decision_latency_ms: Histogram,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl Telemetry {
    /// Creates an empty store whose series retain at most `capacity`
    /// points each.
    pub fn new(capacity: usize) -> Self {
        Telemetry {
            capacity,
            epochs: 0,
            series: BTreeMap::new(),
            counters: BTreeMap::new(),
            prev_counters: BTreeMap::new(),
            last_sample_ms: None,
            // 1 ms .. ~17.9 min covers epoch spans from sub-second
            // control loops to hourly housekeeping ticks.
            epoch_span_ms: Histogram::log2(0, 20),
            // 1 ms .. ~65 s covers modelled control-plane latencies.
            decision_latency_ms: Histogram::log2(0, 16),
        }
    }

    /// Marks the start of one epoch sample at simulated `t_ms`:
    /// advances the epoch count and records the span since the previous
    /// sample into [`Telemetry::epoch_span_ms`].
    pub fn begin_epoch(&mut self, t_ms: u64) {
        if let Some(prev) = self.last_sample_ms {
            self.epoch_span_ms.observe(t_ms.saturating_sub(prev) as f64);
        }
        self.last_sample_ms = Some(t_ms);
        self.epochs += 1;
    }

    /// Samples gauge `name` at `t_ms`, creating the series on first use
    /// (the only time the name is allocated).
    pub fn sample_gauge(&mut self, name: &str, t_ms: u64, value: f64) {
        if let Some(series) = self.series.get_mut(name) {
            series.record(t_ms, value);
        } else {
            let mut series = RingSeries::new(self.capacity);
            series.record(t_ms, value);
            self.series.insert(name.to_string(), series);
        }
    }

    /// Increments the cumulative counter `name` by one, creating it on
    /// first use.
    pub fn count(&mut self, name: &str) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += 1;
        } else {
            self.counters.insert(name.to_string(), 1);
        }
    }

    /// Counts one logged event: bumps the counter its kind maps to. A
    /// live run and a replayed log therefore count the same events the
    /// same way.
    pub fn observe(&mut self, event: &SchedEvent) {
        let name = match event {
            SchedEvent::JobAdmit { .. } => "sim.jobs.admitted",
            SchedEvent::JobStart { .. } => "sim.jobs.started",
            SchedEvent::JobScaleOut { .. } => "sim.scale.out",
            SchedEvent::JobScaleIn { .. } => "sim.scale.in",
            SchedEvent::ControllerRescale { .. } => "elastic.rendezvous.ops",
            SchedEvent::FlexRelease { .. } => "cluster.flex_release.ops",
            SchedEvent::JobPreempt { .. } => "sim.jobs.preemptions",
            SchedEvent::JobComplete { .. } => "sim.jobs.completed",
            SchedEvent::DeadlineMiss { .. } => "sim.deadline.missed",
            SchedEvent::LoanGrant { .. } => "cluster.loan.ops",
            SchedEvent::ReclaimGrant { .. } => "cluster.reclaim.ops",
            SchedEvent::ReclaimCarryover { .. } => "cluster.reclaim.carryovers",
            SchedEvent::ReclaimDeadlineMiss { .. } => "cluster.reclaim.deadline_misses",
            SchedEvent::Fault { kind, .. } if kind == "injected" => "faults.injected",
            SchedEvent::Fault { kind, .. } if kind == "job_killed" => "faults.jobs_killed",
            _ => return,
        };
        self.count(name);
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` counter pairs in stable sorted order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Samples the per-epoch `rate.*` series at `t_ms`: each records
    /// how far its counter moved since the previous call.
    pub fn sample_rates(&mut self, t_ms: u64) {
        for (rate, counter) in [
            ("rate.loans", "cluster.loan.ops"),
            ("rate.preemptions", "sim.jobs.preemptions"),
            ("rate.reclaims", "cluster.reclaim.ops"),
        ] {
            let cumulative = self.counter(counter);
            let prev = match self.prev_counters.get_mut(rate) {
                Some(prev) => std::mem::replace(prev, cumulative),
                None => {
                    self.prev_counters.insert(rate.to_string(), cumulative);
                    0
                }
            };
            let delta = cumulative.saturating_sub(prev);
            self.sample_gauge(rate, t_ms, delta as f64);
        }
    }

    /// Series names in stable sorted order.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(|s| s.as_str())
    }

    /// Looks up one series by name.
    pub fn series(&self, name: &str) -> Option<&RingSeries> {
        self.series.get(name)
    }

    /// Iterates `(name, series)` pairs in stable sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RingSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders all series as CSV in long format
    /// (`series,t_ms,value`), one row per retained point, series in
    /// sorted order — a pure function of the store's state.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,t_ms,value\n");
        for (name, series) in self.series.iter() {
            for p in series.points() {
                out.push_str(name);
                out.push(',');
                out.push_str(&p.t_ms.to_string());
                out.push(',');
                out.push_str(&format_value(p.value));
                out.push('\n');
            }
        }
        out
    }
}

/// Formats a gauge value for text export: integral values print without
/// a trailing `.0` so CSV and dashboard bytes stay compact and stable.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_series_records_until_capacity() {
        let mut s = RingSeries::new(8);
        for i in 0..8u64 {
            s.record(i * 1000, i as f64);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.points()[3], SeriesPoint { t_ms: 3000, value: 3.0 });
    }

    #[test]
    fn decimation_halves_and_doubles_stride() {
        let mut s = RingSeries::new(8);
        for i in 0..9u64 {
            s.record(i, i as f64);
        }
        // The 9th sample (index 8) triggers decimation: even-offset
        // survivors 0,2,4,6 remain, stride becomes 2, and index 8 lands
        // on the new grid so it is retained too.
        assert_eq!(s.stride(), 2);
        let kept: Vec<u64> = s.points().iter().map(|p| p.t_ms).collect();
        assert_eq!(kept, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn extremes_cover_decimated_samples() {
        let mut s = RingSeries::new(8);
        assert_eq!((s.min(), s.max()), (None, None));
        for i in 0..10u64 {
            // Index 3 is retained, then dropped by the decimation at
            // index 8; index 9 falls off the doubled stride at once.
            let value = match i {
                3 => 50.0,
                9 => -7.0,
                _ => i as f64,
            };
            s.record(i, value);
        }
        let kept: Vec<u64> = s.points().iter().map(|p| p.t_ms).collect();
        assert_eq!(kept, vec![0, 2, 4, 6, 8]);
        assert_eq!((s.min(), s.max()), (Some(-7.0), Some(50.0)));
    }

    #[test]
    fn memory_stays_bounded_under_long_runs() {
        let mut s = RingSeries::new(16);
        for i in 0..1_000_000u64 {
            s.record(i, (i % 97) as f64);
        }
        assert!(s.len() <= 16, "len {} exceeds cap", s.len());
        assert!(s.len() >= 8, "decimation over-dropped to {}", s.len());
        assert_eq!(s.offered(), 1_000_000);
        // stride is a power of two by construction.
        assert_eq!(s.stride().count_ones(), 1);
    }

    #[test]
    fn latest_is_the_sample_just_taken_after_decimation() {
        // The smoke run's epoch count into a default 512-point store:
        // the ring decimates, yet `timeline`'s `last=` must print the
        // value the final epoch sampled, not the last retained one.
        let mut t = Telemetry::default();
        let mut stale = 0;
        for i in 0..4_972u64 {
            t.begin_epoch(i * 1000);
            t.sample_gauge("queue.depth", i * 1000, i as f64);
            let last = t.series("queue.depth").and_then(RingSeries::last);
            if last.map(|p| p.value) != Some(i as f64) {
                stale += 1;
            }
        }
        let series = t.series("queue.depth").expect("sampled");
        assert!(series.stride() > 1, "the ring decimated");
        assert_eq!(stale, 0, "latest lagged the sample {stale} times");
        assert_eq!(
            series.last(),
            Some(SeriesPoint {
                t_ms: 4_971_000,
                value: 4_971.0
            })
        );
    }

    #[test]
    fn retained_set_is_pure_function_of_samples() {
        let run = || {
            let mut s = RingSeries::new(32);
            for i in 0..12_345u64 {
                s.record(i * 7, (i as f64).sin());
            }
            s
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn log2_histogram_buckets_powers_of_two() {
        let mut h = Histogram::log2(0, 3); // bounds 1,2,4,8
        assert_eq!(h.bounds, vec![1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 1, 1, 0, 1]);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn histogram_buckets_by_upper_bound_with_overflow() {
        let mut h = Histogram::with_bounds(&[60.0, 600.0]);
        for v in [30.0, 60.0, 100.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - (30.0 + 60.0 + 100.0 + 1e9)).abs() < 1e-6);
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut t = Telemetry::new(8);
        assert_eq!(t.counter("sim.jobs.completed"), 0);
        for _ in 0..3 {
            t.count("sim.jobs.completed");
        }
        t.count("cluster.loan.ops");
        assert_eq!(t.counter("sim.jobs.completed"), 3);
        let all: Vec<_> = t.counters().collect();
        assert_eq!(all, vec![("cluster.loan.ops", 1), ("sim.jobs.completed", 3)]);
    }

    #[test]
    fn rate_series_records_counter_deltas() {
        let mut t = Telemetry::new(16);
        let loan = SchedEvent::LoanGrant { servers: vec![1] };
        for (t_ms, loans) in [(0, 3), (1000, 2), (2000, 0)] {
            for _ in 0..loans {
                t.observe(&loan);
            }
            t.sample_rates(t_ms);
        }
        let pts: Vec<f64> = t
            .series("rate.loans")
            .expect("series exists")
            .points()
            .iter()
            .map(|p| p.value)
            .collect();
        assert_eq!(pts, vec![3.0, 2.0, 0.0]);
        let reclaims = t.series("rate.reclaims").and_then(RingSeries::last);
        assert_eq!(reclaims.map(|p| p.value), Some(0.0));
    }

    #[test]
    fn epoch_span_histogram_sees_sample_gaps() {
        let mut t = Telemetry::new(16);
        t.begin_epoch(0);
        t.begin_epoch(30_000);
        t.begin_epoch(60_000);
        assert_eq!(t.epochs, 3);
        assert_eq!(t.epoch_span_ms.count, 2);
        assert!((t.epoch_span_ms.sum - 60_000.0).abs() < 1e-9);
    }

    #[test]
    fn csv_export_is_deterministic_and_sorted() {
        let mut t = Telemetry::new(8);
        t.sample_gauge("z.last", 0, 1.5);
        t.sample_gauge("a.first", 0, 2.0);
        t.sample_gauge("a.first", 1000, 3.0);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "series,t_ms,value\na.first,0,2\na.first,1000,3\nz.last,0,1.5\n"
        );
        assert_eq!(csv, t.to_csv());
    }

    #[test]
    fn serde_round_trip_preserves_state() {
        let mut t = Telemetry::new(8);
        for i in 0..100u64 {
            t.begin_epoch(i * 500);
            t.sample_gauge("queue.depth", i * 500, (i % 7) as f64);
            if i % 3 == 0 {
                t.observe(&SchedEvent::LoanGrant { servers: vec![] });
            }
            t.sample_rates(i * 500);
            t.decision_latency_ms.observe(5.0);
            t.count("sim.jobs.completed");
        }
        let json = serde_json::to_string(&t).expect("serialises");
        assert_eq!(json, serde_json::to_string(&t).expect("serialises"));
        let back: Telemetry = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(t, back);
        assert_eq!(t.to_csv(), back.to_csv());
    }
}
