//! The golden-trace gate as a test: every pinned case must match its
//! committed log byte-for-byte (each case is run twice, so run-to-run
//! nondeterminism also fails here). `lyra-bench golden --bless`
//! regenerates the logs after an intended behavioural change.

use lyra_oracle::golden;

#[test]
fn faulted_case_fires_at_least_one_alert() {
    // The telemetry alert rules must actually trip on the pinned
    // faulted scenario — otherwise "alerts are golden-pinned" would be
    // vacuously true. Resolves are not required (a debt can stay open
    // to the end of the run), but at least one fire must appear.
    let case = golden::cases()
        .into_iter()
        .find(|c| c.scenario.faults.is_some())
        .expect("a faulted golden case exists");
    let log = case.event_log().expect("faulted case runs");
    let fired = log
        .iter()
        .filter(|l| l.contains("\"Alert\"") && l.contains("\"fired\":true"))
        .count();
    assert!(
        fired >= 1,
        "no Alert events in the faulted golden log ({} lines)",
        log.len()
    );
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
    let log = case.event_log().expect("checkpointed case runs");
    for needle in [
        "\"checkpointed\":true",
        "\"kind\":\"checkpoint_restore\"",
        "\"kind\":\"checkpoint_restore_failure\"",
    ] {
        assert!(
            log.iter().any(|l| l.contains(needle)),
            "no `{needle}` line in the checkpointed golden log ({} lines)",
            log.len()
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
