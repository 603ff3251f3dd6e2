//! `lyra-bench timeline`: a terminal dashboard of the scheduler's
//! telemetry series as Unicode sparklines.
//!
//! Renders from a live observed run's [`Telemetry`], or — with `--log`
//! — from a recorded JSONL event log replayed into a derived telemetry
//! through the live run's own event counting and `rate.*` sampling (a
//! strict subset of the live series: the log carries no
//! GPU-utilisation gauges). A run logs a `SchedulerEpoch` only when the
//! epoch's `(launches, queued, running)` shape changes, so the log view
//! samples once per *change point*, not once per epoch: its header
//! counts epoch changes, and its sparklines space the change points
//! evenly, whatever the simulated time between them.
//! Everything here is a pure function of its inputs, so the rendered
//! dashboard is as deterministic as the series behind it.

use lyra_obs::timeseries::format_value;
use lyra_obs::{SchedEvent, Telemetry, TimedEvent};

/// Eight-level block characters, lowest to highest.
const TICKS: [char; 8] = ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];

/// Default chart width, columns.
pub const DEFAULT_WIDTH: usize = 60;

/// Renders `values` as a sparkline at most `width` characters wide.
/// Values fold into `width` buckets keeping each bucket's maximum (so
/// short spikes stay visible) and scale against the global min/max. A
/// flat series renders as a run of the lowest tick; an empty series as
/// the empty string.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let n = width.min(values.len());
    let mut buckets: Vec<Option<f64>> = vec![None; n];
    for (i, v) in values.iter().enumerate() {
        let b = (i * n) / values.len();
        buckets[b] = Some(buckets[b].map_or(*v, |m| m.max(*v)));
    }
    let folded: Vec<f64> = buckets.into_iter().flatten().collect();
    let lo = folded.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = folded.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    folded
        .iter()
        .map(|v| {
            let idx = if span > 0.0 {
                (((v - lo) / span) * 7.0).round() as usize
            } else {
                0
            };
            TICKS[idx.min(7)]
        })
        .collect()
}

/// Replays an event log into a derived [`Telemetry`]: every event is
/// counted through [`Telemetry::observe`], as in the live run, and each
/// `SchedulerEpoch` event (one per change of the epoch's shape) takes
/// one sample — queue depth and running jobs off the epoch summary, the
/// `rate.*` series off the counters. Its `epochs` therefore counts
/// epoch changes.
pub fn telemetry_from_log(events: &[TimedEvent]) -> Telemetry {
    let mut t = Telemetry::default();
    let mut carry = 0u32;
    for e in events {
        t.observe(&e.event);
        match &e.event {
            SchedEvent::ReclaimCarryover { servers, .. } => carry = *servers,
            SchedEvent::SchedulerEpoch {
                launches,
                queued,
                running,
            } => {
                t.begin_epoch(e.time_ms);
                t.sample_gauge("queue.depth", e.time_ms, f64::from(*queued));
                t.sample_gauge("jobs.running", e.time_ms, f64::from(*running));
                t.sample_gauge("epoch.launches", e.time_ms, f64::from(*launches));
                t.sample_gauge("reclaim.carry_servers", e.time_ms, f64::from(carry));
                t.sample_rates(e.time_ms);
                carry = 0;
            }
            _ => {}
        }
    }
    t
}

/// Renders the full dashboard: a header (counting epochs, or epoch
/// changes when `from_log`), one sparkline row per series
/// (name, chart, min/last/max; these cover every sample, not only the
/// retained points the chart draws) and the two epoch histograms as
/// single-line summaries.
pub fn render_dashboard(t: &Telemetry, width: usize, from_log: bool) -> String {
    let mut out = String::new();
    let series: Vec<_> = t.iter().collect();
    let counted = if from_log {
        "epoch changes (from log)"
    } else {
        "epochs"
    };
    out.push_str(&format!(
        "timeline: {} {counted}, {} series\n\n",
        t.epochs,
        series.len()
    ));
    if series.is_empty() {
        out.push_str("(no telemetry series: run had no scheduler epochs)\n");
    }
    for (name, s) in &series {
        let values: Vec<f64> = s.points().iter().map(|p| p.value).collect();
        out.push_str(&format!(
            "{:<24} {:<width$}  min={} last={} max={}\n",
            name,
            sparkline(&values, width),
            format_value(s.min().unwrap_or(0.0)),
            format_value(s.last().map_or(0.0, |p| p.value)),
            format_value(s.max().unwrap_or(0.0)),
            width = width
        ));
    }
    out.push_str(&format!(
        "\nepoch span:       {}\ndecision latency: {}\n",
        histogram_line(&t.epoch_span_ms.counts, &t.epoch_span_ms.bounds, t.epoch_span_ms.count),
        histogram_line(
            &t.decision_latency_ms.counts,
            &t.decision_latency_ms.bounds,
            t.decision_latency_ms.count
        ),
    ));
    out
}

/// One-line log2-histogram summary: a sparkline over the bucket counts
/// plus the observation count and the busiest bucket's upper bound.
fn histogram_line(counts: &[u64], bounds: &[f64], total: u64) -> String {
    if total == 0 {
        return "(no observations)".to_string();
    }
    let values: Vec<f64> = counts.iter().map(|c| *c as f64).collect();
    let mode = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mode_label = bounds
        .get(mode)
        .map(|b| format!("<= {}ms", format_value(*b)))
        .unwrap_or_else(|| "overflow".to_string());
    format!(
        "{} ({total} obs, mode {mode_label})",
        sparkline(&values, values.len())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_range_and_width() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(s, TICKS.iter().collect::<String>());
        // Folding keeps bucket maxima, so the spike survives.
        let folded = sparkline(&[0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0], 4);
        assert_eq!(folded.chars().count(), 4);
        assert!(folded.contains(TICKS[7]));
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0], 3), TICKS[0].to_string().repeat(3));
    }

    #[test]
    fn log_replay_derives_series() {
        let mk = |time_ms, seq, event| TimedEvent {
            time_ms,
            seq,
            event,
        };
        let events = vec![
            mk(0, 0, SchedEvent::LoanGrant { servers: vec![1, 2] }),
            mk(
                1000,
                1,
                SchedEvent::SchedulerEpoch {
                    launches: 2,
                    queued: 5,
                    running: 3,
                },
            ),
            mk(
                1500,
                2,
                SchedEvent::JobPreempt {
                    job: 9,
                    checkpointed: true,
                    decision: None,
                },
            ),
            mk(
                2000,
                3,
                SchedEvent::SchedulerEpoch {
                    launches: 0,
                    queued: 6,
                    running: 2,
                },
            ),
        ];
        let t = telemetry_from_log(&events);
        assert_eq!(t.epochs, 2);
        let last = |name| t.series(name).and_then(|s| s.last()).map(|p| p.value);
        assert_eq!(last("queue.depth"), Some(6.0));
        assert_eq!(last("rate.loans"), Some(0.0)); // both loans landed before epoch 1
        assert_eq!(last("rate.preemptions"), Some(1.0));
        let dash = render_dashboard(&t, 40, true);
        assert!(dash.contains("queue.depth"));
        assert!(dash.contains("2 epoch changes (from log)"));
        // Same inputs, same bytes.
        assert_eq!(dash, render_dashboard(&t, 40, true));
    }

    #[test]
    fn log_view_counts_epoch_changes_not_epochs() {
        // Two live epochs of one shape: the observer logs the shape
        // once, so the log view sees one change where the run had two
        // epochs.
        let mut obs = lyra_obs::Observer::new(&lyra_obs::ObserverConfig::default())
            .expect("an in-memory observer");
        for t_ms in [0, 60_000] {
            obs.epoch(t_ms, (0, 3, 1), &[], 0, 0.0);
        }
        let (events, live) = obs.into_products();
        assert_eq!(live.epochs, 2);
        let live_dash = render_dashboard(&live, 40, false);
        assert!(live_dash.starts_with("timeline: 2 epochs, "), "{live_dash}");
        let replayed = telemetry_from_log(&events);
        assert_eq!(replayed.epochs, 1);
        let log_dash = render_dashboard(&replayed, 40, true);
        assert!(
            log_dash.starts_with("timeline: 1 epoch changes (from log), "),
            "{log_dash}"
        );
    }

    #[test]
    fn empty_dashboard_renders_cleanly() {
        let dash = render_dashboard(&Telemetry::default(), 40, false);
        assert!(dash.contains("no telemetry series"));
        assert!(dash.contains("(no observations)"));
    }
}
