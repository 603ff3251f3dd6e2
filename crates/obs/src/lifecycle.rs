//! Per-job lifecycle tracking: the event stream → attributed intervals.
//!
//! [`LifecycleTracker`] replays [`SchedEvent`]s — online inside the
//! simulation observer (before each line is written, wherever it goes),
//! or offline over a parsed JSONL log — and drives a small per-job state
//! machine:
//!
//! ```text
//! pending ──start──▶ running ──preempt/fault──▶ pending ──start──▶ …
//!                       │
//!                    complete
//! ```
//!
//! Pending time is charged to the cause that put the job in the queue
//! (phase-1 GPU scarcity on arrival, reclaim preemption, fault
//! restart). Running time is split by the stall windows the engine
//! announces via `JobStall` events (launch overhead, rendezvous,
//! checkpoint restore, …), replaying the engine's own stall arithmetic
//! `stall_until = max(stall_until, now) + pause` in integer
//! milliseconds; whatever remains is `Productive`, or
//! `StragglerSlowdown` while a `JobStraggle` episode is active. The
//! result is an exact partition of each job's lifetime — see
//! [`JobAttribution::reconcile`].

use std::collections::BTreeMap;


use crate::attribution::{AttributedInterval, DelayCause, JobAttribution};
use crate::event::{SchedEvent, TimedEvent};

/// A pending stall window `[start_ms, end_ms)` with its cause, not yet
/// folded into a closed segment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StallWindow {
    start_ms: u64,
    end_ms: u64,
    cause: DelayCause,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LifeState {
    Pending(DelayCause),
    Running,
    Done,
}

#[derive(Debug, Clone, PartialEq)]
struct JobLife {
    arrival_ms: u64,
    completion_ms: Option<u64>,
    state: LifeState,
    /// Start of the segment currently being accumulated.
    segment_start_ms: u64,
    /// Whether a straggler episode is active (running state only).
    straggling: bool,
    /// Mirror of the engine's `stall_until` cursor for this run period.
    stall_until_ms: u64,
    /// Stall windows not yet consumed by a closed segment (time order).
    stalls: Vec<StallWindow>,
    intervals: Vec<AttributedInterval>,
}

impl JobLife {
    fn new(arrival_ms: u64) -> Self {
        JobLife {
            arrival_ms,
            completion_ms: None,
            state: LifeState::Pending(DelayCause::GpuScarcity),
            segment_start_ms: arrival_ms,
            straggling: false,
            stall_until_ms: arrival_ms,
            stalls: Vec::new(),
            intervals: Vec::new(),
        }
    }

    fn push(&mut self, start_ms: u64, end_ms: u64, cause: DelayCause) {
        if end_ms <= start_ms {
            return;
        }
        // Merge adjacent same-cause spans so tables stay compact.
        if let Some(last) = self.intervals.last_mut() {
            if last.end_ms == start_ms && last.cause == cause {
                last.end_ms = end_ms;
                return;
            }
        }
        self.intervals.push(AttributedInterval {
            start_ms,
            end_ms,
            cause,
        });
    }

    /// Closes the current segment at `t`, splitting a running segment by
    /// its stall windows and labelling the remainder productive (or
    /// straggling).
    fn close_segment(&mut self, t: u64) {
        let start = self.segment_start_ms;
        let t = t.max(start);
        match self.state {
            LifeState::Pending(cause) => self.push(start, t, cause),
            LifeState::Running => {
                let base = if self.straggling {
                    DelayCause::StragglerSlowdown
                } else {
                    DelayCause::Productive
                };
                let mut cursor = start;
                let mut remaining = Vec::new();
                let stalls = std::mem::take(&mut self.stalls);
                for w in &stalls {
                    let clip_start = w.start_ms.max(cursor).min(t);
                    let clip_end = w.end_ms.min(t);
                    if clip_end > clip_start {
                        self.push(cursor, clip_start, base);
                        self.push(clip_start, clip_end, w.cause);
                        cursor = clip_end;
                    }
                    if w.end_ms > t {
                        // Keep the unconsumed remainder for the next
                        // segment of this run period.
                        remaining.push(StallWindow {
                            start_ms: w.start_ms.max(t),
                            end_ms: w.end_ms,
                            cause: w.cause,
                        });
                    }
                }
                self.push(cursor, t, base);
                self.stalls = remaining;
            }
            LifeState::Done => {}
        }
        self.segment_start_ms = t;
    }
}

/// Assembles per-job [`JobAttribution`]s from a [`SchedEvent`] stream.
///
/// Feed events in emission order via [`observe`](Self::observe), then
/// call [`finish`](Self::finish) once with the end-of-observation time;
/// [`into_attributions`](Self::into_attributions) yields the
/// decompositions sorted by job id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifecycleTracker {
    jobs: BTreeMap<u64, JobLife>,
    finished: bool,
}

impl LifecycleTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event. Events must arrive in non-decreasing time
    /// order (the engine's emission order satisfies this).
    pub fn observe(&mut self, time_ms: u64, event: &SchedEvent) {
        match event {
            SchedEvent::JobAdmit { job } => {
                self.jobs.entry(*job).or_insert_with(|| JobLife::new(time_ms));
            }
            SchedEvent::JobStart { job, .. } => {
                let life = self
                    .jobs
                    .entry(*job)
                    .or_insert_with(|| JobLife::new(time_ms));
                life.close_segment(time_ms);
                life.state = LifeState::Running;
                life.straggling = false;
                life.stall_until_ms = time_ms;
                life.stalls.clear();
            }
            SchedEvent::JobStall {
                job,
                cause,
                pause_ms,
            } => {
                if let Some(life) = self.jobs.get_mut(job) {
                    if life.state == LifeState::Running && *pause_ms > 0 {
                        let start = life.stall_until_ms.max(time_ms);
                        life.stall_until_ms = start + pause_ms;
                        life.stalls.push(StallWindow {
                            start_ms: start,
                            end_ms: start + pause_ms,
                            cause: *cause,
                        });
                    }
                }
            }
            SchedEvent::JobStraggle { job, factor } => {
                if let Some(life) = self.jobs.get_mut(job) {
                    if life.state == LifeState::Running {
                        let active = *factor < 1.0;
                        if active != life.straggling {
                            life.close_segment(time_ms);
                            life.straggling = active;
                        }
                    }
                }
            }
            SchedEvent::JobPreempt { job, .. } => {
                if let Some(life) = self.jobs.get_mut(job) {
                    if life.state == LifeState::Running {
                        life.close_segment(time_ms);
                        life.state = LifeState::Pending(DelayCause::ReclaimPreemption);
                    }
                }
            }
            SchedEvent::Fault { kind, target } if kind == "job_killed" => {
                if let Some(life) = self.jobs.get_mut(target) {
                    if life.state == LifeState::Running {
                        life.close_segment(time_ms);
                        life.state = LifeState::Pending(DelayCause::FaultRestart);
                    }
                }
            }
            SchedEvent::JobComplete { job, .. } => {
                if let Some(life) = self.jobs.get_mut(job) {
                    life.close_segment(time_ms);
                    life.completion_ms = Some(time_ms);
                    life.state = LifeState::Done;
                }
            }
            _ => {}
        }
    }

    /// Closes every still-open job at `end_ms` (jobs that never
    /// completed keep `completion_ms = None`).
    pub fn finish(&mut self, end_ms: u64) {
        if self.finished {
            return;
        }
        for life in self.jobs.values_mut() {
            if life.state != LifeState::Done {
                life.close_segment(end_ms);
                life.state = LifeState::Done;
            }
        }
        self.finished = true;
    }

    /// Consumes the tracker, yielding per-job attributions sorted by id.
    /// Call [`finish`](Self::finish) first.
    pub fn into_attributions(self) -> Vec<JobAttribution> {
        self.jobs
            .into_iter()
            .map(|(job, life)| JobAttribution {
                job,
                arrival_ms: life.arrival_ms,
                completion_ms: life.completion_ms,
                intervals: life.intervals,
            })
            .collect()
    }
}

/// Convenience: replays a parsed log end-to-end and returns the per-job
/// attributions (end of observation = last event timestamp).
pub fn attribute_log(events: &[TimedEvent]) -> Vec<JobAttribution> {
    let mut tracker = LifecycleTracker::new();
    let mut last_ms = 0;
    for ev in events {
        tracker.observe(ev.time_ms, &ev.event);
        last_ms = last_ms.max(ev.time_ms);
    }
    tracker.finish(last_ms);
    tracker.into_attributions()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(events: &[(u64, SchedEvent)]) -> Vec<JobAttribution> {
        let timed: Vec<TimedEvent> = events
            .iter()
            .enumerate()
            .map(|(i, (t, e))| TimedEvent {
                time_ms: *t,
                seq: i as u64,
                event: e.clone(),
            })
            .collect();
        attribute_log(&timed)
    }

    fn start(job: u64) -> SchedEvent {
        SchedEvent::JobStart {
            job,
            workers: 1,
            on_loan: false,
            servers: vec![0],
        }
    }

    #[test]
    fn queue_launch_and_stalls_partition_exactly() {
        let attrs = run(&[
            (0, SchedEvent::JobAdmit { job: 7 }),
            (1_000, start(7)),
            (
                1_000,
                SchedEvent::JobStall {
                    job: 7,
                    cause: DelayCause::LaunchOverhead,
                    pause_ms: 500,
                },
            ),
            (
                4_000,
                SchedEvent::JobStall {
                    job: 7,
                    cause: DelayCause::Rendezvous,
                    pause_ms: 250,
                },
            ),
            (10_000, SchedEvent::JobComplete { job: 7, jct_s: 10.0 }),
        ]);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        a.reconcile().expect("partition is exact");
        assert_eq!(a.completion_ms, Some(10_000));
        assert_eq!(a.attributed_ms(), 10_000);
        let totals = a.cause_totals_ms();
        assert!(totals.contains(&(DelayCause::GpuScarcity, 1_000)));
        assert!(totals.contains(&(DelayCause::LaunchOverhead, 500)));
        assert!(totals.contains(&(DelayCause::Rendezvous, 250)));
        assert!(totals.contains(&(DelayCause::Productive, 8_250)));
    }

    #[test]
    fn preemption_requeues_with_reclaim_cause() {
        let attrs = run(&[
            (0, SchedEvent::JobAdmit { job: 1 }),
            (100, start(1)),
            (
                5_000,
                SchedEvent::JobPreempt {
                    job: 1,
                    checkpointed: true,
                    decision: None,
                },
            ),
            (8_000, start(1)),
            (
                8_000,
                SchedEvent::JobStall {
                    job: 1,
                    cause: DelayCause::CheckpointRestore,
                    pause_ms: 1_000,
                },
            ),
            (12_000, SchedEvent::JobComplete { job: 1, jct_s: 12.0 }),
        ]);
        let a = &attrs[0];
        a.reconcile().expect("exact");
        let totals = a.cause_totals_ms();
        assert!(totals.contains(&(DelayCause::ReclaimPreemption, 3_000)));
        assert!(totals.contains(&(DelayCause::CheckpointRestore, 1_000)));
    }

    #[test]
    fn fault_kill_requeues_with_fault_cause_and_straggle_splits() {
        let attrs = run(&[
            (0, SchedEvent::JobAdmit { job: 2 }),
            (0, start(2)),
            (
                2_000,
                SchedEvent::JobStraggle {
                    job: 2,
                    factor: 0.5,
                },
            ),
            (
                4_000,
                SchedEvent::JobStraggle {
                    job: 2,
                    factor: 1.0,
                },
            ),
            (
                6_000,
                SchedEvent::Fault {
                    kind: "job_killed".to_string(),
                    target: 2,
                },
            ),
            (9_000, start(2)),
            (10_000, SchedEvent::JobComplete { job: 2, jct_s: 10.0 }),
        ]);
        let a = &attrs[0];
        a.reconcile().expect("exact");
        let totals = a.cause_totals_ms();
        assert!(totals.contains(&(DelayCause::StragglerSlowdown, 2_000)));
        assert!(totals.contains(&(DelayCause::FaultRestart, 3_000)));
        assert!(totals.contains(&(DelayCause::Productive, 5_000)));
    }

    #[test]
    fn overlapping_stalls_replay_engine_arithmetic() {
        // Two stalls announced at the same instant queue back-to-back,
        // exactly like the engine's stall_until = max(stall_until, now)
        // + pause.
        let attrs = run(&[
            (0, SchedEvent::JobAdmit { job: 3 }),
            (0, start(3)),
            (
                1_000,
                SchedEvent::JobStall {
                    job: 3,
                    cause: DelayCause::Rendezvous,
                    pause_ms: 2_000,
                },
            ),
            (
                1_000,
                SchedEvent::JobStall {
                    job: 3,
                    cause: DelayCause::LoanScaleIn,
                    pause_ms: 1_000,
                },
            ),
            (10_000, SchedEvent::JobComplete { job: 3, jct_s: 10.0 }),
        ]);
        let a = &attrs[0];
        a.reconcile().expect("exact");
        let totals = a.cause_totals_ms();
        assert!(totals.contains(&(DelayCause::Rendezvous, 2_000)));
        assert!(totals.contains(&(DelayCause::LoanScaleIn, 1_000)));
        assert!(totals.contains(&(DelayCause::Productive, 7_000)));
    }

    #[test]
    fn incomplete_jobs_close_at_end_of_observation() {
        let attrs = run(&[
            (0, SchedEvent::JobAdmit { job: 4 }),
            (500, start(4)),
            (9_000, SchedEvent::JobAdmit { job: 5 }),
        ]);
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].completion_ms, None);
        attrs[0].reconcile().expect("contiguous");
        assert_eq!(attrs[0].attributed_ms(), 9_000);
        // Job 5 never started: its whole life is queue wait.
        assert_eq!(
            attrs[1].cause_totals_ms(),
            vec![] // admitted at the last event: zero-length life
        );

        // A stall outlives a straggle boundary: the window spans two
        // segments but the partition stays exact.
        let attrs = run(&[
            (0, SchedEvent::JobAdmit { job: 6 }),
            (0, start(6)),
            (
                1_000,
                SchedEvent::JobStall {
                    job: 6,
                    cause: DelayCause::Rendezvous,
                    pause_ms: 4_000,
                },
            ),
            (
                3_000,
                SchedEvent::JobStraggle {
                    job: 6,
                    factor: 0.5,
                },
            ),
            (10_000, SchedEvent::JobComplete { job: 6, jct_s: 10.0 }),
        ]);
        let a = &attrs[0];
        a.reconcile().expect("exact across the boundary");
        let totals = a.cause_totals_ms();
        assert!(totals.contains(&(DelayCause::Rendezvous, 4_000)));
        assert!(totals.contains(&(DelayCause::StragglerSlowdown, 5_000)));
        assert!(totals.contains(&(DelayCause::Productive, 1_000)));
    }
}
