//! The run's one observer: every logged event goes through
//! [`Observer::observe`], which feeds the delay-attribution tracker,
//! the telemetry counters and the event log. Decision provenance is not
//! tracked here: `build_provenance` derives it from the logged events.

use std::path::PathBuf;

use crate::attribution::{summarize, AttributionSummary};
use crate::event::{SchedEvent, TimedEvent};
use crate::lifecycle::LifecycleTracker;
use crate::log::EventLog;
use crate::timeseries::Telemetry;

/// What to attach to a run: where its event log goes.
#[derive(Debug, Clone, Default)]
pub struct ObserverConfig {
    /// JSONL file sink receiving every event line. Without one, the
    /// typed events stay in memory and land in the report's `events`.
    pub sink_path: Option<PathBuf>,
}

/// Everything the observer keeps besides the log.
#[derive(Debug)]
struct Trackers {
    lifecycle: LifecycleTracker,
    telemetry: Telemetry,
    /// Last logged `SchedulerEpoch` shape: quiet epochs are not logged.
    last_epoch: Option<(u32, u32, u32)>,
    /// Cumulative control-plane latency already in the histogram.
    rm_latency_seen_s: f64,
    /// When the open reclaim debt was first sampled; `None` without one.
    carry_since_ms: Option<u64>,
}

/// The attached observability of one run (see the module docs).
#[derive(Debug)]
pub struct Observer {
    log: EventLog,
    trackers: Trackers,
}

impl Observer {
    /// Creates an observer, opening the sink file if `cfg` names one.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file sink cannot be created.
    pub fn new(cfg: &ObserverConfig) -> std::io::Result<Self> {
        let mut log = EventLog::new();
        if let Some(path) = &cfg.sink_path {
            log = log.with_sink(path)?;
        }
        Ok(Observer {
            log,
            trackers: Trackers {
                lifecycle: LifecycleTracker::new(),
                telemetry: Telemetry::default(),
                last_epoch: None,
                rm_latency_seen_s: 0.0,
                carry_since_ms: None,
            },
        })
    }

    /// Records one event at simulated `time_ms`: attribution, counters,
    /// then the log. Returns the event's sequence number — its stable
    /// `DecisionId`.
    pub fn observe(&mut self, time_ms: u64, event: SchedEvent) -> u64 {
        let t = &mut self.trackers;
        t.lifecycle.observe(time_ms, &event);
        t.telemetry.observe(&event);
        self.log.emit(time_ms, event)
    }

    /// Closes one scheduler epoch at `t_ms`: logs a `SchedulerEpoch`
    /// when its `(launches, queued, running)` shape changed, samples the
    /// engine's named `gauges`, the reclaim backlog age (how long
    /// `carry_servers` of debt have been open) and the `rate.*` series,
    /// and folds the control-plane latency added since the last epoch
    /// (`rm_latency_s` is cumulative) into its histogram.
    pub fn epoch(
        &mut self,
        t_ms: u64,
        shape: (u32, u32, u32),
        gauges: &[(&str, f64)],
        carry_servers: u32,
        rm_latency_s: f64,
    ) {
        if self.trackers.last_epoch != Some(shape) {
            self.trackers.last_epoch = Some(shape);
            let (launches, queued, running) = shape;
            self.observe(
                t_ms,
                SchedEvent::SchedulerEpoch {
                    launches,
                    queued,
                    running,
                },
            );
        }
        let t = &mut self.trackers;
        t.telemetry.begin_epoch(t_ms);
        let latency_ms = (rm_latency_s - t.rm_latency_seen_s).max(0.0) * 1000.0;
        t.rm_latency_seen_s = rm_latency_s;
        t.telemetry.decision_latency_ms.observe(latency_ms);
        let backlog_age_s = if carry_servers > 0 {
            let since = *t.carry_since_ms.get_or_insert(t_ms);
            t_ms.saturating_sub(since) as f64 / 1000.0
        } else {
            t.carry_since_ms = None;
            0.0
        };
        for &(name, value) in gauges {
            t.telemetry.sample_gauge(name, t_ms, value);
        }
        t.telemetry
            .sample_gauge("reclaim.backlog_age_s", t_ms, backlog_age_s);
        t.telemetry.sample_rates(t_ms);
    }

    /// Ends observation at `end_ms`: closes every open job, checks that
    /// each job's attributed intervals partition its lifetime exactly,
    /// flushes the sink and returns the cluster-level summary.
    ///
    /// # Errors
    ///
    /// Returns a message when an attribution does not reconcile (an
    /// engine bug) or when the sink failed at any point of the run.
    pub fn finish(&mut self, end_ms: u64) -> Result<AttributionSummary, String> {
        let mut lifecycle = std::mem::take(&mut self.trackers.lifecycle);
        lifecycle.finish(end_ms);
        let attrs = lifecycle.into_attributions();
        for a in &attrs {
            a.reconcile()
                .map_err(|e| format!("delay attribution does not reconcile: {e}"))?;
        }
        self.log.flush()?;
        Ok(summarize(&attrs))
    }

    /// The run's products for its report: the in-memory events (empty
    /// with a sink) and the telemetry store.
    pub fn into_products(mut self) -> (Vec<TimedEvent>, Telemetry) {
        (self.log.take_events(), self.trackers.telemetry)
    }
}
