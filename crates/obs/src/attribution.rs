//! Delay-cause taxonomy and exact JCT decomposition.
//!
//! Every millisecond between a job's arrival and its completion is
//! attributed to exactly one [`DelayCause`]: the intervals produced by
//! [`LifecycleTracker`](crate::lifecycle::LifecycleTracker) partition
//! `[arrival, completion)` with no gaps, no overlaps and no
//! unattributed remainder — [`JobAttribution::reconcile`] checks the
//! invariant and the simulation engine enforces it at the end of every
//! run. All arithmetic is integer milliseconds, so attribution tables
//! are byte-identical across same-seed runs.

use serde::{Deserialize, Serialize};

/// Why a span of a job's lifetime elapsed the way it did.
///
/// The first seven variants are the causal taxonomy from the paper's
/// mechanisms; the last three account for the remaining wall-clock so
/// the decomposition is exact rather than best-effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DelayCause {
    /// Queued because phase-1 had no free GPUs for the base demand.
    GpuScarcity,
    /// Phase-2 MCKP denied or withdrew flexible workers (scale-in
    /// rendezvous stall after losing a knapsack round).
    MckpDenial,
    /// Preempted (or restoring) because the inference side reclaimed
    /// loaned capacity.
    ReclaimPreemption,
    /// Killed by a fault and restarted from scratch.
    FaultRestart,
    /// Re-loading a checkpoint after a preemption or fault.
    CheckpointRestore,
    /// Scale-in rendezvous stall from returning loaned capacity
    /// (flexible workers vacated under reclaim pressure).
    LoanScaleIn,
    /// Running slower than nominal because a worker sits on a
    /// straggling server.
    StragglerSlowdown,
    /// Scheduler-to-running launch delay (image pull, gang setup).
    LaunchOverhead,
    /// Elastic rendezvous stall from a voluntary scale-out.
    Rendezvous,
    /// Training at full speed.
    Productive,
}

impl DelayCause {
    /// Every cause, in canonical table order.
    pub const ALL: [DelayCause; 10] = [
        DelayCause::GpuScarcity,
        DelayCause::MckpDenial,
        DelayCause::ReclaimPreemption,
        DelayCause::FaultRestart,
        DelayCause::CheckpointRestore,
        DelayCause::LoanScaleIn,
        DelayCause::StragglerSlowdown,
        DelayCause::LaunchOverhead,
        DelayCause::Rendezvous,
        DelayCause::Productive,
    ];

    /// Stable kebab-case label used in tables and Chrome traces.
    pub fn label(self) -> &'static str {
        match self {
            DelayCause::GpuScarcity => "gpu-scarcity",
            DelayCause::MckpDenial => "mckp-denial",
            DelayCause::ReclaimPreemption => "reclaim-preemption",
            DelayCause::FaultRestart => "fault-restart",
            DelayCause::CheckpointRestore => "checkpoint-restore",
            DelayCause::LoanScaleIn => "loan-scale-in",
            DelayCause::StragglerSlowdown => "straggler-slowdown",
            DelayCause::LaunchOverhead => "launch-overhead",
            DelayCause::Rendezvous => "rendezvous",
            DelayCause::Productive => "productive",
        }
    }

    /// Parses a kebab-case label back into its cause — the inverse of
    /// [`label`](Self::label). `None` for unknown labels, so CLI filters
    /// can reject typos with the full alternatives list.
    pub fn from_label(label: &str) -> Option<DelayCause> {
        DelayCause::ALL.iter().copied().find(|c| c.label() == label)
    }

    fn rank(self) -> usize {
        DelayCause::ALL.iter().position(|c| *c == self).unwrap_or(0)
    }
}

/// One half-open span `[start_ms, end_ms)` of a job's lifetime with its
/// attributed cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributedInterval {
    /// Span start, simulated milliseconds.
    pub start_ms: u64,
    /// Span end (exclusive), simulated milliseconds.
    pub end_ms: u64,
    /// The single cause this span is charged to.
    pub cause: DelayCause,
}

impl AttributedInterval {
    /// Span length in milliseconds.
    pub fn len_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// The full JCT decomposition for one job: a gapless, ordered partition
/// of `[arrival, completion)` into cause-attributed intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAttribution {
    /// Job id.
    pub job: u64,
    /// Arrival (queue admission) time, milliseconds.
    pub arrival_ms: u64,
    /// Completion time, milliseconds; `None` when the run ended with the
    /// job still pending or running (intervals then extend to the end of
    /// observation).
    pub completion_ms: Option<u64>,
    /// The attributed intervals, in time order.
    pub intervals: Vec<AttributedInterval>,
}

impl JobAttribution {
    /// Total attributed time: the sum of all interval lengths.
    pub fn attributed_ms(&self) -> u64 {
        self.intervals.iter().map(AttributedInterval::len_ms).sum()
    }

    /// Per-cause totals in canonical order, zero-total causes omitted.
    pub fn cause_totals_ms(&self) -> Vec<(DelayCause, u64)> {
        let mut totals = [0u64; DelayCause::ALL.len()];
        for iv in &self.intervals {
            totals[iv.cause.rank()] += iv.len_ms();
        }
        DelayCause::ALL
            .iter()
            .zip(totals)
            .filter(|(_, t)| *t > 0)
            .map(|(c, t)| (*c, t))
            .collect()
    }

    /// Time lost to anything other than productive training.
    pub fn lost_ms(&self) -> u64 {
        self.intervals
            .iter()
            .filter(|iv| iv.cause != DelayCause::Productive)
            .map(AttributedInterval::len_ms)
            .sum()
    }

    /// Checks the decomposition invariant: intervals are ordered,
    /// disjoint and contiguous, the first starts at arrival, and — for
    /// completed jobs — the last ends at completion so the sum of
    /// lengths equals `completion − arrival` exactly.
    pub fn reconcile(&self) -> Result<(), String> {
        let mut cursor = self.arrival_ms;
        for (i, iv) in self.intervals.iter().enumerate() {
            if iv.start_ms != cursor {
                return Err(format!(
                    "job {}: interval {} starts at {} but previous coverage ends at {} \
                     (gap or overlap)",
                    self.job, i, iv.start_ms, cursor
                ));
            }
            if iv.end_ms < iv.start_ms {
                return Err(format!(
                    "job {}: interval {} is negative ([{}, {}))",
                    self.job, i, iv.start_ms, iv.end_ms
                ));
            }
            cursor = iv.end_ms;
        }
        if let Some(done) = self.completion_ms {
            if cursor != done {
                return Err(format!(
                    "job {}: attributed coverage ends at {} but completion is {} \
                     ({} ms unattributed)",
                    self.job,
                    cursor,
                    done,
                    done.abs_diff(cursor)
                ));
            }
            let span = done - self.arrival_ms;
            let sum = self.attributed_ms();
            if sum != span {
                return Err(format!(
                    "job {}: Σ intervals = {} ms but completion − arrival = {} ms",
                    self.job, sum, span
                ));
            }
        }
        Ok(())
    }
}

/// Per-cause cluster rollup: totals and per-job-total percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CauseStat {
    /// The cause.
    pub cause: DelayCause,
    /// Jobs with any time attributed to this cause.
    pub jobs: usize,
    /// Total milliseconds across all jobs.
    pub total_ms: u64,
    /// Median per-job total among affected jobs, milliseconds.
    pub p50_ms: u64,
    /// 95th-percentile per-job total, milliseconds.
    pub p95_ms: u64,
    /// 99th-percentile per-job total, milliseconds.
    pub p99_ms: u64,
}

/// Cluster-level attribution rollup stored in `SimReport`.
///
/// Integer milliseconds only, so the summary participates in report
/// equality checks and same-seed byte-identity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionSummary {
    /// Jobs tracked.
    pub jobs: usize,
    /// Jobs that completed inside the observed window.
    pub completed: usize,
    /// Total attributed milliseconds across all jobs.
    pub total_ms: u64,
    /// Per-cause rollups in canonical order (zero-total causes omitted).
    pub causes: Vec<CauseStat>,
}

/// Nearest-rank percentile over a sorted slice (integer arithmetic, no
/// interpolation — deterministic across platforms).
fn percentile_ms(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Rolls per-job attributions up into a cluster summary.
pub fn summarize(attrs: &[JobAttribution]) -> AttributionSummary {
    let mut per_cause: Vec<Vec<u64>> = vec![Vec::new(); DelayCause::ALL.len()];
    let mut total_ms = 0u64;
    let mut completed = 0usize;
    for a in attrs {
        if a.completion_ms.is_some() {
            completed += 1;
        }
        for (cause, ms) in a.cause_totals_ms() {
            per_cause[cause.rank()].push(ms);
            total_ms += ms;
        }
    }
    let causes = DelayCause::ALL
        .iter()
        .zip(per_cause.iter_mut())
        .filter(|(_, totals)| !totals.is_empty())
        .map(|(cause, totals)| {
            totals.sort_unstable();
            CauseStat {
                cause: *cause,
                jobs: totals.len(),
                total_ms: totals.iter().sum(),
                p50_ms: percentile_ms(totals, 50),
                p95_ms: percentile_ms(totals, 95),
                p99_ms: percentile_ms(totals, 99),
            }
        })
        .collect();
    AttributionSummary {
        jobs: attrs.len(),
        completed,
        total_ms,
        causes,
    }
}

pub(crate) fn fmt_s(ms: u64) -> String {
    format!("{}.{:03}", ms / 1000, ms % 1000)
}

impl AttributionSummary {
    /// Renders the fixed-width attribution table (deterministic; the
    /// golden gate pins it byte-for-byte).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>6} {:>14} {:>12} {:>12} {:>12}\n",
            "cause", "jobs", "total_s", "p50_s", "p95_s", "p99_s"
        ));
        for c in &self.causes {
            out.push_str(&format!(
                "{:<20} {:>6} {:>14} {:>12} {:>12} {:>12}\n",
                c.cause.label(),
                c.jobs,
                fmt_s(c.total_ms),
                fmt_s(c.p50_ms),
                fmt_s(c.p95_ms),
                fmt_s(c.p99_ms),
            ));
        }
        out.push_str(&format!(
            "jobs: {} ({} completed), attributed: {} s\n",
            self.jobs,
            self.completed,
            fmt_s(self.total_ms)
        ));
        out
    }
}

/// Renders one job's arrival, completion and ranked delay causes: the
/// first section of `why <job-id>`.
pub fn render_job(attr: &JobAttribution) -> String {
    let mut out = format!("delay attribution for job {}\n", attr.job);
    match attr.completion_ms {
        Some(done) => out.push_str(&format!(
            "  arrival {} s, completion {} s, JCT {} s\n",
            fmt_s(attr.arrival_ms),
            fmt_s(done),
            fmt_s(done - attr.arrival_ms)
        )),
        None => out.push_str(&format!(
            "  arrival {} s, still incomplete at end of observation\n",
            fmt_s(attr.arrival_ms)
        )),
    }
    let mut ranked = attr.cause_totals_ms();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.rank().cmp(&b.0.rank())));
    let total = attr.attributed_ms().max(1);
    out.push_str("  ranked causes:\n");
    for (cause, ms) in &ranked {
        out.push_str(&format!(
            "    {:<20} {:>12} s  ({:>3}%)\n",
            cause.label(),
            fmt_s(*ms),
            ms * 100 / total
        ));
    }
    out
}

/// Renders the `blame --top N` job ranking: jobs ranked by time lost to
/// non-productive causes (descending; job id breaks ties).
pub fn render_top(attrs: &[JobAttribution], n: usize) -> String {
    let mut ranked: Vec<&JobAttribution> = attrs.iter().collect();
    ranked.sort_by(|a, b| b.lost_ms().cmp(&a.lost_ms()).then(a.job.cmp(&b.job)));
    let mut out = format!(
        "top {} jobs by attributed delay (of {} jobs)\n",
        n.min(ranked.len()),
        ranked.len()
    );
    out.push_str(&format!(
        "{:>8} {:>12} {:>12}  {}\n",
        "job", "jct_s", "lost_s", "dominant cause"
    ));
    for a in ranked.iter().take(n) {
        let jct = a
            .completion_ms
            .map(|d| fmt_s(d - a.arrival_ms))
            .unwrap_or_else(|| "-".to_string());
        let dominant = a
            .cause_totals_ms()
            .into_iter()
            .filter(|(c, _)| *c != DelayCause::Productive)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.rank().cmp(&a.0.rank())))
            .map(|(c, ms)| format!("{} ({} s)", c.label(), fmt_s(ms)))
            .unwrap_or_else(|| "none".to_string());
        out.push_str(&format!(
            "{:>8} {:>12} {:>12}  {}\n",
            a.job,
            jct,
            fmt_s(a.lost_ms()),
            dominant
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ms: u64, end_ms: u64, cause: DelayCause) -> AttributedInterval {
        AttributedInterval {
            start_ms,
            end_ms,
            cause,
        }
    }

    #[test]
    fn reconcile_accepts_exact_partitions_and_rejects_gaps() {
        let good = JobAttribution {
            job: 1,
            arrival_ms: 100,
            completion_ms: Some(400),
            intervals: vec![
                iv(100, 200, DelayCause::GpuScarcity),
                iv(200, 250, DelayCause::LaunchOverhead),
                iv(250, 400, DelayCause::Productive),
            ],
        };
        good.reconcile().expect("exact partition reconciles");
        assert_eq!(good.attributed_ms(), 300);
        assert_eq!(good.lost_ms(), 150);

        let gap = JobAttribution {
            intervals: vec![
                iv(100, 200, DelayCause::GpuScarcity),
                iv(210, 400, DelayCause::Productive),
            ],
            ..good.clone()
        };
        assert!(gap.reconcile().is_err(), "gap must fail");

        let short = JobAttribution {
            intervals: vec![iv(100, 300, DelayCause::Productive)],
            ..good
        };
        assert!(short.reconcile().is_err(), "unattributed tail must fail");
    }

    #[test]
    fn summary_rolls_up_per_cause_percentiles() {
        let attrs: Vec<JobAttribution> = (0..4u64)
            .map(|j| JobAttribution {
                job: j,
                arrival_ms: 0,
                completion_ms: Some(1000 * (j + 1)),
                intervals: vec![
                    iv(0, 500, DelayCause::GpuScarcity),
                    iv(500, 1000 * (j + 1), DelayCause::Productive),
                ],
            })
            .collect();
        let s = summarize(&attrs);
        assert_eq!(s.jobs, 4);
        assert_eq!(s.completed, 4);
        assert_eq!(s.total_ms, 1000 + 2000 + 3000 + 4000);
        let scarcity = s
            .causes
            .iter()
            .find(|c| c.cause == DelayCause::GpuScarcity)
            .expect("cause present");
        assert_eq!(scarcity.jobs, 4);
        assert_eq!(scarcity.total_ms, 2000);
        assert_eq!(scarcity.p50_ms, 500);
        // Rendering is pure text over integers: stable across runs.
        let a = s.render_table();
        let b = summarize(&attrs).render_table();
        assert_eq!(a, b);
        assert!(a.contains("gpu-scarcity"));
    }

    #[test]
    fn render_job_ranks_causes() {
        let mut intervals = Vec::new();
        for i in 0..20u64 {
            let cause = if i % 2 == 0 {
                DelayCause::Productive
            } else {
                DelayCause::Rendezvous
            };
            intervals.push(iv(i * 10, (i + 1) * 10, cause));
        }
        let attr = JobAttribution {
            job: 9,
            arrival_ms: 0,
            completion_ms: Some(200),
            intervals,
        };
        let text = render_job(&attr);
        assert!(text.contains("ranked causes"));
        assert!(text.contains("rendezvous") && text.contains("( 50%)"));
        let top = render_top(std::slice::from_ref(&attr), 5);
        assert!(top.contains("rendezvous"));
    }
}
