//! The golden-trace gate as a test: every pinned case must match its
//! committed log byte-for-byte (each case is run twice, so run-to-run
//! nondeterminism also fails here). `lyra-bench golden --bless`
//! regenerates the logs after an intended behavioural change.

use lyra_obs::SchedEvent;
use lyra_oracle::golden;
use lyra_sim::{run_scenario_observed, ObserverConfig};

#[test]
fn faulted_case_skips_audits_of_an_unchanged_cluster() {
    // The engine audits the cluster after each orchestrator tick and
    // fault and once at the end, unless nothing has changed since the
    // last passing audit. The faulted case has quiet stretches, so some
    // audits must be skipped, and none of those run may fail.
    let case = golden::cases()
        .into_iter()
        .find(|c| c.name == "tiny-faulty")
        .expect("the faulted golden case exists");
    let report = case.observed_report().expect("faulted case runs");
    let calls = |name: &str| {
        report
            .profile
            .0
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.calls)
    };
    let (audits, ticks) = (calls("cluster.audit"), calls("sim.orchestrator_tick"));
    let faults = u64::from(report.fault.injected);
    assert!(
        audits > 0 && audits < ticks + faults + 1,
        "{audits} audits for {ticks} orchestrator ticks and {faults} faults"
    );
    assert_eq!(report.fault.audit_violations, 0);
}

#[test]
fn checkpointed_case_pins_the_rollback() {
    // The checkpoint rollback has two callers (reclaim preemption and
    // fault kill) and two restore outcomes; the checkpointed case must
    // log each of them, or the golden gate would not pin it.
    let case = golden::cases()
        .into_iter()
        .find(|c| c.name == "tiny-checkpointed")
        .expect("the checkpointed golden case exists");
    let events = case
        .observed_report()
        .expect("checkpointed case runs")
        .events;
    let fault = |kind: &str| {
        events
            .iter()
            .any(|e| matches!(&e.event, SchedEvent::Fault { kind: k, .. } if k == kind))
    };
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            SchedEvent::JobPreempt {
                checkpointed: true,
                ..
            }
        )),
        "no checkpointed preemption in the checkpointed golden log"
    );
    for kind in ["checkpoint_restore", "checkpoint_restore_failure"] {
        assert!(
            fault(kind),
            "no `{kind}` fault in the checkpointed golden log"
        );
    }
}

#[test]
fn committed_golden_logs_match() {
    let diffs = golden::compare(&golden::default_dir());
    assert!(
        diffs.is_empty(),
        "golden gate fired:\n{}",
        diffs
            .iter()
            .map(|d| format!("  {}: {}", d.name, d.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sink_and_replay_agree_with_the_in_memory_run() {
    // A sink run must write exactly the JSONL of the in-memory run's
    // events, which must parse back to those events, and the live
    // counters (counted off the observer's event stream) must be what a
    // replay of the sink file counts.
    let dir = std::env::temp_dir().join(format!("lyra-golden-sink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for case in golden::cases() {
        let memory = case.observed_report().expect("case runs");
        let sink = dir.join(format!("{}.jsonl", case.name));
        let cfg = ObserverConfig {
            sink_path: Some(sink.clone()),
        };
        let filed = run_scenario_observed(&case.scenario, &case.jobs, &case.inference, cfg)
            .expect("sink run");
        assert!(filed.events.is_empty(), "{}", case.name);
        let written = std::fs::read_to_string(&sink).expect("sink written");
        assert!(
            written == lyra_obs::to_jsonl(&memory.events),
            "{}: sink differs",
            case.name
        );
        let parsed = lyra_obs::parse_log(&written).expect("log parses");
        assert!(
            parsed == memory.events,
            "{}: sink parses to other events",
            case.name
        );
        assert_eq!(filed.telemetry, memory.telemetry, "{}", case.name);

        let mut replayed = lyra_obs::Telemetry::default();
        for e in &parsed {
            replayed.observe(&e.event);
        }
        let live = &memory.telemetry;
        assert!(replayed.counters().eq(live.counters()), "{}", case.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
