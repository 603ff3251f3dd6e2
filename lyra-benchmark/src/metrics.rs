//! The metric catalogue: every name the benchmark reports, its unit and
//! which direction is better. `BENCHMARK.json` lists the same names (a
//! unit test keeps the two in step); the README maps each per-layer
//! metric to the end-to-end metric and workload it should move.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// Reported with `--trace 0`, measured on untraced repetitions only:
/// the median over the run's repetitions.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("run_s", "s"),
    lower("observed_run_s", "s"),
    lower("replay_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Reported with `--trace 1`: the median over the run's repetitions of
/// untraced and span-traced children.
pub const PER_LAYER: &[Metric] = &[
    // lyra-trace and scenario construction.
    lower("trace.jobgen_s", "s"),
    lower("trace.inference_s", "s"),
    higher("trace.jobs", "count"),
    lower("sim.build_s", "s"),
    // Engine loop, from the span-traced run.
    lower("sim.epochs", "count"),
    lower("sim.epoch_mean_ms", "ms"),
    lower("sim.loop_other_s", "s"),
    higher("sim.span_coverage", "ratio"),
    lower("profiler.overhead_s", "s"),
    // Scheduler epoch.
    lower("sim.scheduler_tick.total_s", "s"),
    lower("sim.scheduler_tick.self_s", "s"),
    lower("sim.snapshot_refresh.self_s", "s"),
    lower("core.allocation.self_s", "s"),
    lower("core.mckp.self_s", "s"),
    lower("core.placement.gang.self_s", "s"),
    lower("core.placement.gang.calls", "count"),
    lower("core.placement.flex.self_s", "s"),
    // Orchestrator: loan / reclaim / elastic rendezvous.
    lower("sim.orchestrator_tick.total_s", "s"),
    lower("sim.orchestrator_tick.calls", "count"),
    lower("cluster.loan.self_s", "s"),
    lower("cluster.loan.calls", "count"),
    lower("cluster.reclaim.self_s", "s"),
    lower("core.reclaim.self_s", "s"),
    lower("core.reclaim.calls", "count"),
    lower("elastic.rendezvous.self_s", "s"),
    // Report counts: deterministic per seed, they explain shifts.
    higher("report.completed", "count"),
    lower("report.loan_ops", "count"),
    lower("report.reclaim_ops", "count"),
    lower("report.scaling_ops", "count"),
    lower("report.jct_mean_s", "sim_s"),
    // lyra-obs, write side.
    lower("obs.overhead_s", "s"),
    lower("obs.overhead_x", "ratio"),
    lower("obs.events", "count"),
    lower("obs.log_bytes", "bytes"),
    lower("obs.ns_per_event", "ns"),
    lower("rss.run_mb", "MB"),
    lower("rss.observed_mb", "MB"),
    // lyra-obs, read side.
    lower("replay.read_s", "s"),
    lower("replay.parse_s", "s"),
    lower("replay.attribute_s", "s"),
    lower("replay.provenance_s", "s"),
    lower("replay.export_s", "s"),
];

/// Splits a per-layer metric read from the program's span profile
/// (`lyra_obs::span`) into its span and field: `<span>.calls`,
/// `<span>.total_s` or `<span>.self_s`.
pub fn span_field(metric: &str) -> Option<(&str, &str)> {
    ["calls", "total_s", "self_s"]
        .into_iter()
        .find_map(|field| {
            let span = metric.strip_suffix(field)?.strip_suffix('.')?;
            Some((span, field))
        })
}

/// The outermost program spans of an unobserved run: everything else in
/// the run's wall time is uncovered event-loop time.
pub const TOP_LEVEL_SPANS: &[&str] = &["sim.scheduler_tick", "sim.orchestrator_tick"];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn span_metrics_split_into_span_and_field() {
        assert_eq!(
            span_field("core.placement.gang.calls"),
            Some(("core.placement.gang", "calls"))
        );
        assert_eq!(
            span_field("sim.scheduler_tick.total_s"),
            Some(("sim.scheduler_tick", "total_s"))
        );
        for outside in ["sim.loop_other_s", "replay.parse_s", "obs.overhead_s"] {
            assert_eq!(span_field(outside), None, "{outside}");
        }
    }
}
