//! Prometheus text exposition (version 0.0.4) for the telemetry store.
//!
//! This is the scrape surface a future `serve` daemon will expose; for
//! now `lyra-bench prom` renders one exposition snapshot at end of run.
//! Rendering is a pure function of the inputs — names in sorted order,
//! values through the same deterministic formatter as the CSV export —
//! so same-seed runs produce byte-identical expositions and the golden
//! gate can pin them.
//!
//! Metric-name mapping: Lyra's dotted names (`queue.depth`) become
//! Prometheus-safe underscored names under the `lyra_` namespace
//! (`lyra_queue_depth`).

use crate::timeseries::{format_value, Histogram, Telemetry};

/// Maps a dotted Lyra metric name to a Prometheus metric name.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("lyra_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_metric(out: &mut String, name: &str, kind: &str, value: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(name);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn push_histogram(out: &mut String, name: &str, h: &Histogram) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push_str(" histogram\n");
    let mut cumulative = 0u64;
    for (b, c) in h.bounds.iter().zip(&h.counts) {
        cumulative += c;
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&format_value(*b));
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    cumulative += h.counts.last().copied().unwrap_or(0);
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&cumulative.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&format_value(h.sum));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count.to_string());
    out.push('\n');
}

/// Renders a full Prometheus text exposition from the telemetry store:
/// the latest value of every series, the epoch count, the epoch
/// histograms, the cumulative counters and the job-duration histograms.
pub fn render_prometheus(telemetry: &Telemetry) -> String {
    let mut out = String::new();

    // Telemetry gauge series: the last sample of each.
    for (name, series) in telemetry.iter() {
        if let Some(p) = series.last() {
            push_metric(&mut out, &prom_name(name), "gauge", &format_value(p.value));
        }
    }
    push_metric(
        &mut out,
        "lyra_telemetry_epochs_total",
        "counter",
        &telemetry.epochs.to_string(),
    );
    push_histogram(&mut out, "lyra_epoch_span_ms", &telemetry.epoch_span_ms);
    push_histogram(
        &mut out,
        "lyra_decision_latency_ms",
        &telemetry.decision_latency_ms,
    );
    for (name, value) in telemetry.counters() {
        push_metric(
            &mut out,
            &format!("{}_total", prom_name(name)),
            "counter",
            &value.to_string(),
        );
    }
    push_histogram(&mut out, "lyra_sim_jct_s", &telemetry.jct_s);
    push_histogram(&mut out, "lyra_sim_queue_s", &telemetry.queue_s);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_prometheus_safe() {
        assert_eq!(prom_name("queue.depth"), "lyra_queue_depth");
        assert_eq!(prom_name("util.on-loan"), "lyra_util_on_loan");
    }

    #[test]
    fn exposition_renders_gauges_and_histograms() {
        let mut t = Telemetry::new(8);
        t.begin_epoch(0);
        t.sample_gauge("queue.depth", 0, 3.0);
        t.begin_epoch(30_000);
        t.sample_gauge("queue.depth", 30_000, 5.0);
        let text = render_prometheus(&t);
        assert!(text.contains("# TYPE lyra_queue_depth gauge\nlyra_queue_depth 5\n"));
        assert!(text.contains("lyra_telemetry_epochs_total 2"));
        assert!(text.contains("lyra_epoch_span_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lyra_epoch_span_ms_sum 30000"));
        assert!(text.contains("lyra_epoch_span_ms_count 1"));
    }

    #[test]
    fn counters_and_duration_histograms_are_appended() {
        let mut t = Telemetry::new(8);
        for _ in 0..7 {
            t.count("sim.jobs.completed");
        }
        t.jct_s.observe(120.0);
        let text = render_prometheus(&t);
        assert!(text.contains(
            "# TYPE lyra_sim_jobs_completed_total counter\nlyra_sim_jobs_completed_total 7\n"
        ));
        assert!(text.contains("lyra_sim_jct_s_bucket{le=\"60\"} 0\n"));
        assert!(text.contains("lyra_sim_jct_s_bucket{le=\"300\"} 1\n"));
        assert!(text.contains("lyra_sim_queue_s_count 0\n"));
        // Counters precede the duration histograms, jct before queue.
        let at = |needle: &str| text.find(needle).expect(needle);
        let jct = at("# TYPE lyra_sim_jct_s");
        assert!(at("# TYPE lyra_sim_jobs_completed_total") < jct);
        assert!(jct < at("# TYPE lyra_sim_queue_s"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut t = Telemetry::new(8);
        t.begin_epoch(0);
        t.begin_epoch(1); // span 1 → first bucket (le=1)
        t.begin_epoch(3); // span 2 → second bucket (le=2)
        let text = render_prometheus(&t);
        assert!(text.contains("lyra_epoch_span_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lyra_epoch_span_ms_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("lyra_epoch_span_ms_bucket{le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut t = Telemetry::new(8);
        t.sample_gauge("b.two", 0, 2.0);
        t.sample_gauge("a.one", 0, 1.0);
        let a = render_prometheus(&t);
        let b = render_prometheus(&t);
        assert_eq!(a, b);
        // Sorted order: a.one before b.two.
        let ia = a.find("lyra_a_one").expect("a.one present");
        let ib = a.find("lyra_b_two").expect("b.two present");
        assert!(ia < ib);
    }
}
