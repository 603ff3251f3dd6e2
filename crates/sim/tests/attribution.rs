//! Delay-attribution properties over randomly faulted scenarios.
//!
//! The engine's online lifecycle tracker must produce, for every job, an
//! ordered, disjoint, gapless partition of `[arrival, completion)` —
//! the engine itself enforces this at the end of every observed run
//! (release builds included), and these tests check the same invariant
//! on the *log-derived* decomposition plus the differential between the
//! two paths and same-seed byte-identity of the rendered artifacts.

use lyra_cluster::state::ClusterConfig;
use lyra_obs::{attribute_log, export_provenance_trace, summarize, validate_chrome_trace};
use lyra_sim::{
    run_scenario_observed, transform, FaultConfig, FaultPlan, ObserverConfig, Scenario,
};
use lyra_trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};
use proptest::prelude::*;

fn traces(seed: u64) -> (JobTrace, InferenceTrace) {
    let jobs = JobTrace::generate(TraceConfig {
        days: 1,
        training_gpus: 32,
        target_load: 0.6,
        max_demand_gpus: 16,
        seed,
        ..TraceConfig::default()
    });
    let inference = InferenceTrace::generate(InferenceTraceConfig {
        days: 3,
        total_gpus: 32,
        seed: seed ^ 0xFACE,
        ..InferenceTraceConfig::default()
    });
    (jobs, inference)
}

fn cluster() -> ClusterConfig {
    ClusterConfig {
        training_servers: 4,
        inference_servers: 4,
        gpus_per_server: 8,
        speed: lyra_core::gpu::SpeedFactors::default(),
    }
}

fn faulty_scenario(
    seed: u64,
    fault_seed: u64,
    crash_rate: f64,
    worker_rate: f64,
    straggler_rate: f64,
) -> (Scenario, JobTrace, InferenceTrace) {
    let (mut jobs, inference) = traces(seed);
    transform::set_elastic_fraction(&mut jobs, 0.6, seed);
    transform::set_checkpoint_fraction(&mut jobs, 0.5, seed ^ 1);
    let mut s = Scenario::basic();
    s.cluster = cluster();
    s.seed = seed;
    s.faults = Some(FaultPlan::generate(
        &FaultConfig {
            server_crash_rate_per_day: crash_rate,
            worker_failure_rate_per_day: worker_rate,
            straggler_rate_per_day: straggler_rate,
            checkpoint_restore_failure_prob: 0.2,
            dropped_tick_prob: 0.05,
            horizon_s: 86_400.0,
            ..FaultConfig::default()
        },
        s.cluster.training_servers + s.cluster.inference_servers,
        fault_seed,
    ));
    (s, jobs, inference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every job's attributed intervals are ordered, disjoint and sum
    /// exactly to `completion − arrival`, whatever faults fired — and
    /// the log-derived decomposition agrees with the engine's online
    /// tracker.
    #[test]
    fn attribution_partitions_every_job_exactly(
        seed in 0u64..500,
        fault_seed in 0u64..500,
        crash_rate in 0.0f64..2.0,
        worker_rate in 0.0f64..10.0,
        straggler_rate in 0.0f64..2.0,
    ) {
        let (s, jobs, inference) =
            faulty_scenario(seed, fault_seed, crash_rate, worker_rate, straggler_rate);
        // The run itself reconciles every job (release-mode audit in
        // `finish_observation`); an error here means a partition broke.
        let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default())
            .expect("attribution reconciles inside the engine");
        let events = &r.events;
        let admits = events
            .iter()
            .filter(|e| matches!(e.event, lyra_obs::SchedEvent::JobAdmit { .. }))
            .count();
        let attrs = attribute_log(events);
        prop_assert_eq!(attrs.len(), admits, "one attribution per admitted job");
        for a in &attrs {
            if let Err(e) = a.reconcile() {
                return Err(TestCaseError::fail(e));
            }
            for w in a.intervals.windows(2) {
                prop_assert!(
                    w[0].end_ms <= w[1].start_ms,
                    "job {}: intervals out of order or overlapping",
                    a.job
                );
            }
            if let Some(done) = a.completion_ms {
                prop_assert_eq!(
                    a.attributed_ms(),
                    done - a.arrival_ms,
                    "job {}: Σ intervals ≠ completion − arrival",
                    a.job
                );
            }
        }
        // Differential: when every job was admitted and
        // completed, the offline replay must roll up to exactly the
        // summary the engine computed online.
        if r.completed == r.submitted && admits == r.submitted {
            prop_assert_eq!(summarize(&attrs), r.attribution);
        }
    }
}

#[test]
fn same_seed_runs_yield_identical_tables_and_traces() {
    let (s, jobs, inference) = faulty_scenario(17, 23, 1.0, 8.0, 0.5);
    let a = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    let b = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    assert_eq!(a.attribution, b.attribution, "summaries match");
    assert_eq!(
        a.attribution.render_table(),
        b.attribution.render_table(),
        "attribution tables are byte-identical"
    );
    let trace_a = export_provenance_trace(&a.events);
    let trace_b = export_provenance_trace(&b.events);
    assert_eq!(trace_a, trace_b, "Chrome traces are byte-identical");
    let stats = validate_chrome_trace(&trace_a).expect("trace is well-formed");
    assert!(stats.events > 0 && stats.span_pairs > 0, "trace has content");
}

#[test]
fn fault_causes_show_up_in_the_summary() {
    let (s, jobs, inference) = faulty_scenario(41, 7, 2.0, 10.0, 1.0);
    let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    assert!(r.fault.injected > 0, "plan fired");
    let productive = r
        .attribution
        .causes
        .iter()
        .find(|c| c.cause == lyra_obs::DelayCause::Productive)
        .expect("productive time exists");
    assert!(productive.total_ms > 0);
    assert_eq!(
        r.attribution.jobs,
        r.submitted,
        "every submitted job is tracked"
    );
    if r.fault.jobs_killed > 0 {
        assert!(
            r.attribution
                .causes
                .iter()
                .any(|c| c.cause == lyra_obs::DelayCause::FaultRestart),
            "killed jobs charge fault-restart time: {:?}",
            r.attribution.causes
        );
    }
}
