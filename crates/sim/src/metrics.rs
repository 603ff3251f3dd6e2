//! Metrics collection: the quantities §7 reports.
//!
//! Per-job records feed the queuing-time and JCT distributions; a
//! piecewise-constant usage integral (split across hourly buckets) feeds
//! the cluster-usage columns of Table 5 and the time series of Figures 7
//! and 9; per-reclaim records feed the preemption-ratio and
//! collateral-damage comparisons of Figure 10.

use lyra_core::job::JobId;
use serde::{Deserialize, Serialize};

/// Summary statistics of a sample (all in the sample's unit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Percentiles {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Computes [`Percentiles`] of a sample (empty sample → zeros).
///
/// Quantiles use linear interpolation between closest ranks (the
/// `numpy.percentile` default): rank `p · (n − 1)` is split into its
/// integer part and fraction, and the value is interpolated between the
/// two bracketing order statistics. Truncating to the lower rank (the
/// previous behaviour) biased every tail quantile low.
pub fn percentiles(values: &[f64]) -> Percentiles {
    if values.is_empty() {
        return Percentiles::default();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| {
        let rank = (sorted.len() - 1) as f64 * p;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    };
    Percentiles {
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: q(0.50),
        p75: q(0.75),
        p95: q(0.95),
        p99: q(0.99),
    }
}

/// Per-job outcome record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit_s: f64,
    /// First time the job started running.
    pub first_start_s: Option<f64>,
    /// Completion time.
    pub complete_s: Option<f64>,
    /// Total time spent waiting in the queue (including re-queues).
    pub queue_s: f64,
    /// Times the job was preempted.
    pub preemptions: u32,
    /// Whether any of its workers ever ran on an on-loan server.
    pub ran_on_loan: bool,
    /// Scaling operations applied to it.
    pub scaling_ops: u32,
    /// Restarts forced by injected faults (server crashes, worker
    /// failures) — distinct from scheduler-driven preemptions.
    pub fault_restarts: u32,
    /// SLO deadline in seconds from trace start, copied from the spec
    /// (`None` for jobs without a deadline).
    pub deadline_s: Option<f64>,
}

impl JobRecord {
    /// Creates the record at submission.
    pub fn new(id: JobId, submit_s: f64) -> Self {
        JobRecord {
            id,
            submit_s,
            first_start_s: None,
            complete_s: None,
            queue_s: 0.0,
            preemptions: 0,
            ran_on_loan: false,
            scaling_ops: 0,
            fault_restarts: 0,
            deadline_s: None,
        }
    }

    /// Job completion time (completion − submission), if completed.
    pub fn jct_s(&self) -> Option<f64> {
        self.complete_s.map(|c| c - self.submit_s)
    }

    /// Whether this job missed its deadline: it has one, and it either
    /// completed after it or never completed at all.
    pub fn missed_deadline(&self) -> bool {
        match (self.deadline_s, self.complete_s) {
            (Some(d), Some(c)) => c > d,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Seconds of lateness past the deadline (0 when met; `None` when the
    /// job has no deadline or never completed).
    pub fn lateness_s(&self) -> Option<f64> {
        match (self.deadline_s, self.complete_s) {
            (Some(d), Some(c)) => Some((c - d).max(0.0)),
            _ => None,
        }
    }
}

/// Deadline/SLO rollup across a run's job records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DeadlineStats {
    /// Jobs that carried a deadline.
    pub with_deadline: usize,
    /// Deadline jobs that completed on time.
    pub met: usize,
    /// Deadline jobs that completed late or never completed.
    pub missed: usize,
    /// `missed / with_deadline` (0 when no job carried a deadline).
    pub miss_rate: f64,
    /// Total lateness of late completions, seconds (jobs that never
    /// completed contribute nothing here — they have no lateness).
    pub total_late_s: f64,
}

impl DeadlineStats {
    /// Computes the rollup from per-job records.
    pub fn from_records(records: &[JobRecord]) -> Self {
        let mut s = DeadlineStats::default();
        for r in records {
            if r.deadline_s.is_none() {
                continue;
            }
            s.with_deadline += 1;
            if r.missed_deadline() {
                s.missed += 1;
                s.total_late_s += r.lateness_s().unwrap_or(0.0);
            } else {
                s.met += 1;
            }
        }
        if s.with_deadline > 0 {
            s.miss_rate = s.missed as f64 / s.with_deadline as f64;
        }
        s
    }
}

/// Fault-injection accounting: what the injected failures cost the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultStats {
    /// Fault events injected (fired, whether or not they found a target).
    pub injected: u32,
    /// Whole-server crashes that hit a live server.
    pub server_crashes: u32,
    /// Single-worker (container) failures that hit a running job.
    pub worker_failures: u32,
    /// Straggler episodes started.
    pub stragglers: u32,
    /// Orchestrator ticks dropped by the control-plane fault.
    pub dropped_ticks: u32,
    /// Jobs killed outright by a fault (restarted from checkpoint or
    /// scratch).
    pub jobs_killed: u32,
    /// Worker losses absorbed in place by elastic jobs (membership
    /// shrank; the job kept running).
    pub elastic_absorbed: u32,
    /// Fault-forced restarts (re-queues) across all jobs.
    pub restarts: u32,
    /// Restarts that successfully resumed from a checkpoint.
    pub checkpoint_restores: u32,
    /// Restarts whose checkpoint restore failed (job restarted from
    /// scratch despite checkpointing).
    pub checkpoint_restore_failures: u32,
    /// Reclaim demands that could not be met at their tick and were
    /// carried forward with a deadline.
    pub reclaim_carryovers: u32,
    /// Carried-forward reclaim demands that missed their deadline.
    pub reclaim_deadline_violations: u32,
    /// Cluster-state audit failures observed (release builds count them
    /// instead of panicking).
    pub audit_violations: u32,
    /// Work lost to fault-forced restarts, reference worker-seconds
    /// (goodput lost to failures).
    pub work_lost_s: f64,
}

/// One reclaiming operation's outcome, for Figure 10's metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReclaimRecord {
    /// When it happened.
    pub time_s: f64,
    /// Servers the inference cluster asked for.
    pub demanded: u32,
    /// Servers returned via the flexible group (elastic scale-in, no
    /// preemption).
    pub returned_flex: u32,
    /// Servers that were already idle.
    pub returned_idle: u32,
    /// Servers returned via preemption.
    pub returned_preempt: u32,
    /// Jobs preempted.
    pub preempted: u32,
    /// GPUs vacated beyond the demand.
    pub collateral_gpus: u32,
}

/// Piecewise-constant usage integral with hourly buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageIntegral {
    last_time_s: f64,
    /// Total busy GPU-seconds.
    pub busy_gpu_s: f64,
    /// Total capacity GPU-seconds.
    pub capacity_gpu_s: f64,
    /// Per-hour `(busy, capacity)` GPU-seconds.
    pub hourly: Vec<(f64, f64)>,
}

impl UsageIntegral {
    /// Creates an empty integral starting at time zero.
    pub fn new() -> Self {
        UsageIntegral {
            last_time_s: 0.0,
            busy_gpu_s: 0.0,
            capacity_gpu_s: 0.0,
            hourly: Vec::new(),
        }
    }

    /// Accrues `busy`/`capacity` GPUs as constant over
    /// `[last_time, now]`, splitting across hour boundaries.
    pub fn advance(&mut self, now_s: f64, busy: f64, capacity: f64) {
        if now_s <= self.last_time_s {
            self.last_time_s = self.last_time_s.max(now_s);
            return;
        }
        let mut t = self.last_time_s;
        while t < now_s {
            let hour = (t / 3600.0).floor() as usize;
            let hour_end = (hour as f64 + 1.0) * 3600.0;
            let seg_end = now_s.min(hour_end);
            let dt = seg_end - t;
            while self.hourly.len() <= hour {
                self.hourly.push((0.0, 0.0));
            }
            self.hourly[hour].0 += busy * dt;
            self.hourly[hour].1 += capacity * dt;
            self.busy_gpu_s += busy * dt;
            self.capacity_gpu_s += capacity * dt;
            t = seg_end;
        }
        self.last_time_s = now_s;
    }

    /// Overall utilisation (busy over capacity), 0 when empty.
    pub fn utilization(&self) -> f64 {
        if self.capacity_gpu_s > 0.0 {
            self.busy_gpu_s / self.capacity_gpu_s
        } else {
            0.0
        }
    }

    /// Hourly utilisation series (hours with zero capacity yield 0).
    pub fn hourly_utilization(&self) -> Vec<f64> {
        self.hourly
            .iter()
            .map(|(b, c)| if *c > 0.0 { b / c } else { 0.0 })
            .collect()
    }
}

impl Default for UsageIntegral {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheme/scenario label.
    pub name: String,
    /// Queuing-time distribution, seconds.
    pub queuing: Percentiles,
    /// JCT distribution, seconds.
    pub jct: Percentiles,
    /// Training-cluster GPU utilisation (dedicated servers).
    pub training_usage: f64,
    /// Combined training + inference utilisation (Table 5's "Overall").
    pub overall_usage: f64,
    /// GPU-level utilisation of on-loan servers while loaned.
    pub on_loan_usage: f64,
    /// Fraction of on-loan servers hosting at least one worker (Figure
    /// 9's metric, matching Figure 1's "serving at least one request"
    /// convention).
    pub on_loan_server_usage: f64,
    /// Hourly series of the same (Figure 9).
    pub hourly_on_loan_server_usage: Vec<f64>,
    /// Preemptions over job submissions (Table 5's "Preemption Ratio").
    pub preemption_ratio: f64,
    /// Mean collateral damage per reclaim, as a fraction of the demand in
    /// GPUs (Figure 10).
    pub collateral_damage: f64,
    /// Mean fraction of each reclaim demand satisfied by the flexible
    /// group alone (§7.2's 53.5 % statistic).
    pub flex_satisfied: f64,
    /// Jobs completed.
    pub completed: usize,
    /// Total jobs submitted.
    pub submitted: usize,
    /// Loan operations performed.
    pub loan_ops: usize,
    /// Reclaim operations performed.
    pub reclaim_ops: usize,
    /// Elastic scaling operations performed.
    pub scaling_ops: usize,
    /// Resource-manager operations issued (container launches/kills and
    /// whitelist moves, §6).
    pub rm_ops: usize,
    /// Modelled control-plane latency those operations cost, seconds.
    pub control_plane_latency_s: f64,
    /// Hourly combined-usage series (Figure 7).
    pub hourly_overall_usage: Vec<f64>,
    /// Hourly on-loan usage series (Figure 9).
    pub hourly_on_loan_usage: Vec<f64>,
    /// Queuing-time distribution of jobs that ran on on-loan servers
    /// (Table 7), seconds.
    pub on_loan_queuing: Percentiles,
    /// JCT distribution of jobs that ran on on-loan servers (Table 7).
    pub on_loan_jct: Percentiles,
    /// Fault-injection accounting (all zeros when no faults were
    /// injected).
    pub fault: FaultStats,
    /// Deadline/SLO rollup (all zeros when no job carried a deadline).
    pub deadlines: DeadlineStats,
    /// Per-job records for downstream analysis (Figure 2 etc.).
    pub records: Vec<JobRecord>,
    /// Structured event log: every event of an observed run without a
    /// file sink, in `seq` order (empty with a sink, whose file holds
    /// the lines, and when no observer was attached).
    /// [`lyra_obs::to_jsonl`] renders them as the sink's bytes.
    pub events: Vec<lyra_obs::TimedEvent>,
    /// Per-phase self-time profile of an observed run. Carries
    /// wall-clock data, so it compares equal to any other profile —
    /// same-seed reports stay `==`.
    pub profile: lyra_obs::Profile,
    /// Cluster-level delay-attribution rollup: per-cause totals and
    /// per-job-total percentiles in integer milliseconds (empty without
    /// an observer). Per-job detail is recovered from the event log via
    /// [`lyra_obs::attribute_log`].
    pub attribution: lyra_obs::AttributionSummary,
    /// Per-epoch scheduler-health time series (ring series with
    /// deterministic decimation plus the epoch-span / decision-latency
    /// histograms; empty without an observer). Fully deterministic, so
    /// it participates in report equality.
    pub telemetry: lyra_obs::Telemetry,
}

impl SimReport {
    /// Names of every non-finite (NaN or ±∞) float field in the report,
    /// recursing into percentile blocks, hourly series and per-job
    /// records. Serialisers turn non-finite floats into `null`, which
    /// silently poisons downstream analysis — the test suite asserts
    /// this list is empty for every report a simulation can produce.
    pub fn non_finite_fields(&self) -> Vec<String> {
        let mut bad = Vec::new();
        fn check(bad: &mut Vec<String>, name: &str, v: f64) {
            if !v.is_finite() {
                bad.push(format!("{name} = {v}"));
            }
        }
        fn pcts(bad: &mut Vec<String>, name: &str, p: &Percentiles) {
            for (field, v) in [
                ("mean", p.mean),
                ("p50", p.p50),
                ("p75", p.p75),
                ("p95", p.p95),
                ("p99", p.p99),
            ] {
                if !v.is_finite() {
                    bad.push(format!("{name}.{field} = {v}"));
                }
            }
        }
        pcts(&mut bad, "queuing", &self.queuing);
        pcts(&mut bad, "jct", &self.jct);
        pcts(&mut bad, "on_loan_queuing", &self.on_loan_queuing);
        pcts(&mut bad, "on_loan_jct", &self.on_loan_jct);
        check(&mut bad, "training_usage", self.training_usage);
        check(&mut bad, "overall_usage", self.overall_usage);
        check(&mut bad, "on_loan_usage", self.on_loan_usage);
        check(&mut bad, "on_loan_server_usage", self.on_loan_server_usage);
        check(&mut bad, "preemption_ratio", self.preemption_ratio);
        check(&mut bad, "collateral_damage", self.collateral_damage);
        check(&mut bad, "flex_satisfied", self.flex_satisfied);
        check(&mut bad, "control_plane_latency_s", self.control_plane_latency_s);
        check(&mut bad, "fault.work_lost_s", self.fault.work_lost_s);
        check(&mut bad, "deadlines.miss_rate", self.deadlines.miss_rate);
        check(&mut bad, "deadlines.total_late_s", self.deadlines.total_late_s);
        for (name, series) in [
            ("hourly_overall_usage", &self.hourly_overall_usage),
            ("hourly_on_loan_usage", &self.hourly_on_loan_usage),
            (
                "hourly_on_loan_server_usage",
                &self.hourly_on_loan_server_usage,
            ),
        ] {
            for (i, v) in series.iter().enumerate() {
                check(&mut bad, &format!("{name}[{i}]"), *v);
            }
        }
        for (name, series) in self.telemetry.iter() {
            for (i, p) in series.points().iter().enumerate() {
                check(&mut bad, &format!("telemetry.{name}[{i}]"), p.value);
            }
        }
        check(
            &mut bad,
            "telemetry.epoch_span_ms.sum",
            self.telemetry.epoch_span_ms.sum,
        );
        check(
            &mut bad,
            "telemetry.decision_latency_ms.sum",
            self.telemetry.decision_latency_ms.sum,
        );
        for r in &self.records {
            check(&mut bad, &format!("records[{:?}].submit_s", r.id), r.submit_s);
            check(&mut bad, &format!("records[{:?}].queue_s", r.id), r.queue_s);
            for (field, v) in [
                ("first_start_s", r.first_start_s),
                ("complete_s", r.complete_s),
                ("deadline_s", r.deadline_s),
            ] {
                if let Some(v) = v {
                    check(&mut bad, &format!("records[{:?}].{field}", r.id), v);
                }
            }
        }
        bad
    }

    /// Fraction of jobs submitted in each hour that had to queue — the
    /// Figure 2 series. A job "queues" when its first start is more than
    /// `tolerance_s` after submission.
    pub fn hourly_queuing_ratio(&self, tolerance_s: f64) -> Vec<f64> {
        let mut per_hour: Vec<(usize, usize)> = Vec::new();
        for r in &self.records {
            let hour = (r.submit_s / 3600.0).floor() as usize;
            while per_hour.len() <= hour {
                per_hour.push((0, 0));
            }
            per_hour[hour].1 += 1;
            let queued = match r.first_start_s {
                Some(t) => t - r.submit_s > tolerance_s,
                None => true,
            };
            if queued {
                per_hour[hour].0 += 1;
            }
        }
        per_hour
            .iter()
            .map(|(q, n)| if *n > 0 { *q as f64 / *n as f64 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentiles(&values);
        assert!((p.mean - 50.5).abs() < 1e-9);
        // Interpolated ranks: p·(n−1) over 1..=100.
        assert!((p.p50 - 50.5).abs() < 1e-9);
        assert!((p.p95 - 95.05).abs() < 1e-9);
        assert!((p.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn percentiles_empty_and_singleton() {
        assert_eq!(percentiles(&[]), Percentiles::default());
        let p = percentiles(&[7.0]);
        assert_eq!(p.mean, 7.0);
        assert_eq!(p.p50, 7.0);
        assert_eq!(p.p99, 7.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        // Two samples: every quantile lies on the segment between them.
        let p = percentiles(&[10.0, 20.0]);
        assert!((p.p50 - 15.0).abs() < 1e-9);
        assert!((p.p75 - 17.5).abs() < 1e-9);
        assert!((p.p95 - 19.5).abs() < 1e-9);
        assert!((p.p99 - 19.9).abs() < 1e-9);
    }

    #[test]
    fn percentiles_odd_length_median_is_exact() {
        let p = percentiles(&[3.0, 1.0, 2.0]);
        assert_eq!(p.p50, 2.0);
        assert!((p.p75 - 2.5).abs() < 1e-9);
        assert!((p.p99 - 2.98).abs() < 1e-9);
    }

    #[test]
    fn percentiles_even_length_median_interpolates() {
        let p = percentiles(&[4.0, 1.0, 3.0, 2.0]);
        assert!((p.p50 - 2.5).abs() < 1e-9);
        assert!((p.p75 - 3.25).abs() < 1e-9);
        assert!((p.p95 - 3.85).abs() < 1e-9);
    }

    #[test]
    fn usage_integral_splits_hours() {
        let mut u = UsageIntegral::new();
        // 4 GPUs busy of 8, from t=1800 to t=5400 (spans the 3600 mark).
        u.advance(1800.0, 0.0, 8.0);
        u.advance(5400.0, 4.0, 8.0);
        assert_eq!(u.hourly.len(), 2);
        assert!((u.hourly[0].0 - 4.0 * 1800.0).abs() < 1e-6);
        assert!((u.hourly[1].0 - 4.0 * 1800.0).abs() < 1e-6);
        assert!((u.utilization() - (4.0 * 3600.0) / (8.0 * 5400.0)).abs() < 1e-9);
    }

    #[test]
    fn usage_integral_ignores_time_travel() {
        let mut u = UsageIntegral::new();
        u.advance(100.0, 1.0, 2.0);
        u.advance(50.0, 5.0, 5.0); // no-op
        assert!((u.busy_gpu_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn usage_integral_empty_is_all_zeros() {
        let u = UsageIntegral::new();
        assert_eq!(u.utilization(), 0.0);
        assert!(u.hourly_utilization().is_empty());
        assert_eq!(u.busy_gpu_s, 0.0);
        assert_eq!(u.capacity_gpu_s, 0.0);
    }

    #[test]
    fn usage_integral_single_sample() {
        let mut u = UsageIntegral::new();
        u.advance(600.0, 2.0, 8.0);
        assert_eq!(u.hourly.len(), 1);
        assert!((u.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(u.hourly_utilization(), vec![0.25]);
    }

    #[test]
    fn usage_integral_zero_capacity_hour_yields_zero_not_nan() {
        let mut u = UsageIntegral::new();
        u.advance(3600.0, 0.0, 0.0); // hour 0: no capacity at all
        u.advance(7200.0, 4.0, 8.0);
        let hourly = u.hourly_utilization();
        assert_eq!(hourly.len(), 2);
        assert_eq!(hourly[0], 0.0);
        assert!(hourly.iter().all(|v| v.is_finite()));
        assert!(u.utilization().is_finite());
    }

    #[test]
    fn hourly_queuing_ratio_empty_records() {
        let report = blank_report(vec![]);
        assert!(report.hourly_queuing_ratio(60.0).is_empty());
    }

    #[test]
    fn hourly_queuing_ratio_single_record() {
        let mut r = JobRecord::new(JobId(0), 30.0);
        r.first_start_s = Some(35.0);
        let report = blank_report(vec![r]);
        assert_eq!(report.hourly_queuing_ratio(60.0), vec![0.0]);
    }

    #[test]
    fn non_finite_audit_is_clean_on_a_blank_report() {
        assert!(blank_report(vec![]).non_finite_fields().is_empty());
    }

    #[test]
    fn non_finite_audit_names_the_poisoned_fields() {
        let mut report = blank_report(vec![JobRecord::new(JobId(3), 10.0)]);
        report.jct.p99 = f64::NAN;
        report.hourly_overall_usage = vec![1.0, f64::INFINITY];
        report.records[0].queue_s = f64::NAN;
        let bad = report.non_finite_fields();
        assert_eq!(bad.len(), 3);
        assert!(bad.iter().any(|b| b.starts_with("jct.p99")));
        assert!(bad.iter().any(|b| b.starts_with("hourly_overall_usage[1]")));
        assert!(bad.iter().any(|b| b.contains("queue_s")));
        // This is exactly what the audit protects against: serialisers
        // turn non-finite floats into `null`, silently breaking every
        // downstream consumer of the JSON.
        let json = serde_json::to_string(&report.jct).unwrap();
        assert!(json.contains("null"));
    }

    #[test]
    fn job_record_jct() {
        let mut r = JobRecord::new(JobId(1), 100.0);
        assert_eq!(r.jct_s(), None);
        r.complete_s = Some(350.0);
        assert_eq!(r.jct_s(), Some(250.0));
    }

    #[test]
    fn deadline_accounting_on_records() {
        let mut met = JobRecord::new(JobId(0), 0.0);
        met.deadline_s = Some(100.0);
        met.complete_s = Some(90.0);
        assert!(!met.missed_deadline());
        assert_eq!(met.lateness_s(), Some(0.0));

        let mut late = JobRecord::new(JobId(1), 0.0);
        late.deadline_s = Some(100.0);
        late.complete_s = Some(160.0);
        assert!(late.missed_deadline());
        assert_eq!(late.lateness_s(), Some(60.0));

        let mut never = JobRecord::new(JobId(2), 0.0);
        never.deadline_s = Some(100.0);
        assert!(never.missed_deadline());
        assert_eq!(never.lateness_s(), None);

        let free = JobRecord::new(JobId(3), 0.0);
        assert!(!free.missed_deadline());

        let stats = DeadlineStats::from_records(&[met, late, never, free]);
        assert_eq!(stats.with_deadline, 3);
        assert_eq!(stats.met, 1);
        assert_eq!(stats.missed, 2);
        assert!((stats.miss_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.total_late_s - 60.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_stats_empty_is_all_zeros() {
        let stats = DeadlineStats::from_records(&[JobRecord::new(JobId(0), 0.0)]);
        assert_eq!(stats, DeadlineStats::default());
        assert_eq!(stats.miss_rate, 0.0);
    }

    #[test]
    fn hourly_queuing_ratio_counts_waits() {
        let mut records = vec![JobRecord::new(JobId(0), 100.0)];
        records[0].first_start_s = Some(110.0); // fast start
        let mut late = JobRecord::new(JobId(1), 200.0);
        late.first_start_s = Some(800.0); // queued
        records.push(late);
        let mut never = JobRecord::new(JobId(2), 4000.0); // hour 1, never ran
        never.first_start_s = None;
        records.push(never);
        let report = blank_report(records);
        let ratio = report.hourly_queuing_ratio(60.0);
        assert_eq!(ratio.len(), 2);
        assert!((ratio[0] - 0.5).abs() < 1e-9);
        assert_eq!(ratio[1], 1.0);
    }

    /// An all-zeros report around the given records.
    fn blank_report(records: Vec<JobRecord>) -> SimReport {
        SimReport {
            name: "t".into(),
            queuing: Percentiles::default(),
            jct: Percentiles::default(),
            training_usage: 0.0,
            overall_usage: 0.0,
            on_loan_usage: 0.0,
            on_loan_server_usage: 0.0,
            hourly_on_loan_server_usage: vec![],
            preemption_ratio: 0.0,
            collateral_damage: 0.0,
            flex_satisfied: 0.0,
            completed: 0,
            submitted: records.len(),
            loan_ops: 0,
            reclaim_ops: 0,
            scaling_ops: 0,
            rm_ops: 0,
            control_plane_latency_s: 0.0,
            hourly_overall_usage: vec![],
            hourly_on_loan_usage: vec![],
            on_loan_queuing: Percentiles::default(),
            on_loan_jct: Percentiles::default(),
            fault: FaultStats::default(),
            deadlines: DeadlineStats::default(),
            records,
            events: vec![],
            profile: lyra_obs::Profile::default(),
            attribution: lyra_obs::AttributionSummary::default(),
            telemetry: lyra_obs::Telemetry::default(),
        }
    }
}
