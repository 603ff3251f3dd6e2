//! Decision-provenance properties over randomly faulted scenarios.
//!
//! [`build_provenance`] over a run's events must give a graph that
//! keeps its structural promises for any faulted run: acyclicity
//! (causes strictly precede effects), every preemption edge backed by
//! exactly one `ReclaimChoice` audit record naming the victim, and no
//! orphan blame (every reclaim-preemption delay interval reachable from
//! a victim-ranking decision). The renderers must give the same bytes
//! from a run's in-memory events and from its JSONL sink read back, and
//! from two runs of the same seed.

use lyra_cluster::state::ClusterConfig;
use lyra_obs::{
    attribute_log, blame_from_log, build_provenance, export_provenance_trace, parse_log,
    validate_chrome_trace, why_from_log, AuditRecord, DelayCause, EdgeKind, NodeKind, SchedEvent,
};
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
            straggler_rate_per_day: 0.5,
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

    /// For any faulted run, the graph built from its events is acyclic,
    /// every preemption edge is backed by exactly one `ReclaimChoice`
    /// audit record naming the victim, and every reclaim-preemption
    /// delay interval anchors to a preemption node with an incoming
    /// victim-ranking edge (no orphan blame).
    #[test]
    fn provenance_graph_is_sound_under_faults(
        seed in 0u64..500,
        fault_seed in 0u64..500,
        crash_rate in 0.0f64..2.0,
        worker_rate in 0.0f64..10.0,
    ) {
        let (s, jobs, inference) = faulty_scenario(seed, fault_seed, crash_rate, worker_rate);
        let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default())
            .expect("faulted run completes");
        let events = &r.events;
        let graph = build_provenance(events);

        // Causes strictly precede effects.
        prop_assert!(graph.is_acyclic(), "provenance graph has a cycle or dangling edge");

        // Every preemption edge matches exactly one ReclaimChoice audit
        // record: the edge's source decision is the log event at that
        // seq, and its `preempted` list names the victim.
        for e in graph.edges() {
            if e.kind != EdgeKind::Preemption {
                continue;
            }
            let from = graph.node(e.from).expect("edge source exists");
            let to = graph.node(e.to).expect("edge target exists");
            prop_assert_eq!(from.kind, NodeKind::ReclaimChoice);
            prop_assert_eq!(to.kind, NodeKind::Preempt);
            let victim = to.job.expect("preempt node names its victim");
            let matching: Vec<_> = events
                .iter()
                .filter(|ev| ev.seq == e.from)
                .filter_map(|ev| match &ev.event {
                    SchedEvent::Audit(AuditRecord::ReclaimChoice { preempted, .. }) => {
                        Some(preempted.clone())
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(
                matching.len(),
                1,
                "preemption edge #{} -> #{} must match exactly one ReclaimChoice record",
                e.from,
                e.to
            );
            prop_assert!(
                matching[0].contains(&victim),
                "ReclaimChoice #{} does not name victim job {}",
                e.from,
                victim
            );
        }

        // No orphan blame: every reclaim-preemption interval anchors to
        // a Preempt node carrying an incoming victim-ranking edge.
        for a in attribute_log(events) {
            for iv in &a.intervals {
                if iv.cause != DelayCause::ReclaimPreemption {
                    continue;
                }
                let anchor = graph
                    .latest_for_job(a.job, NodeKind::Preempt, iv.start_ms)
                    .unwrap_or_else(|| {
                        panic!("job {}: reclaim-preemption interval at {}ms has no Preempt node",
                               a.job, iv.start_ms)
                    });
                prop_assert!(
                    graph
                        .incoming(anchor.id)
                        .any(|e| e.kind == EdgeKind::Preemption),
                    "job {}: Preempt #{} has no incoming victim-ranking edge (orphan blame)",
                    a.job,
                    anchor.id
                );
            }
        }
    }
}

#[test]
fn why_is_byte_identical_live_vs_log_replay() {
    // High fault pressure so reclaim preemptions actually occur.
    let (s, jobs, inference) = faulty_scenario(17, 23, 1.0, 8.0);
    let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    // The same seed again, its events written to a JSONL sink and read
    // back: the renderer sees the encode/decode path instead of the
    // typed in-memory events. Same bytes, for every job.
    let dir = std::env::temp_dir().join(format!("lyra-provenance-sink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sink = dir.join("run.jsonl");
    let cfg = ObserverConfig {
        sink_path: Some(sink.clone()),
    };
    let filed = run_scenario_observed(&s, &jobs, &inference, cfg).expect("sink run");
    assert!(filed.events.is_empty(), "a sink run keeps no events in memory");
    let replayed = parse_log(&std::fs::read_to_string(&sink).expect("sink written"))
        .expect("sink parses");
    std::fs::remove_dir_all(&dir).ok();
    let attrs = attribute_log(&r.events);
    for a in &attrs {
        let memory = why_from_log(&r.events, a.job).expect("job is in the run");
        let replay = why_from_log(&replayed, a.job).expect("job is in the log");
        assert_eq!(memory, replay, "job {}: in-memory vs sink `why` diverged", a.job);
    }
    assert!(!attrs.is_empty(), "run admitted jobs");
}

#[test]
fn victims_trace_back_to_demand_and_ranking() {
    let (s, jobs, inference) = faulty_scenario(17, 23, 1.0, 8.0);
    let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    let events = &r.events;
    let victims: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.event {
            SchedEvent::JobPreempt { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    assert!(
        !victims.is_empty(),
        "scenario must produce at least one reclaim preemption for this test to bite"
    );
    for victim in victims {
        let why = why_from_log(events, victim).expect("victim is in the log");
        assert!(
            why.contains("caused by preempt #"),
            "victim {victim}: `why` does not anchor the preemption:\n{why}"
        );
        assert!(
            why.contains("<- preempted by victim-ranking #"),
            "victim {victim}: `why` does not name the victim-ranking decision:\n{why}"
        );
        assert!(
            why.contains("<- reclaim-ranking by loan-demand #"),
            "victim {victim}: `why` does not name the loan-demand decision:\n{why}"
        );
    }
}

#[test]
fn same_seed_runs_pin_blame_and_provenance_export() {
    let (s, jobs, inference) = faulty_scenario(17, 23, 1.0, 8.0);
    let a = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    let b = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    assert_eq!(
        build_provenance(&a.events),
        build_provenance(&b.events),
        "provenance graphs match"
    );
    assert_eq!(
        blame_from_log(&a.events, 10),
        blame_from_log(&b.events, 10),
        "blame tables are byte-identical"
    );
    let trace_a = export_provenance_trace(&a.events);
    let trace_b = export_provenance_trace(&b.events);
    assert_eq!(trace_a, trace_b, "provenance traces are byte-identical");
    let stats = validate_chrome_trace(&trace_a).expect("provenance trace is well-formed");
    assert!(
        stats.flow_events > 0,
        "provenance trace carries flow arrows"
    );
}
