//! `lyra-bench checkpoint` / `resume` / `crash-storm`: the kill-and-
//! resume CLI.
//!
//! * `checkpoint --at <seconds> --out <file.ckpt>` — run the small
//!   observed Basic scenario with a scheduler crash injected at the
//!   given simulated time and save the crash-point state through the
//!   durable checkpoint format.
//! * `resume --ckpt <file.ckpt>` — load a checkpoint (refusing
//!   corrupted, truncated or version-mismatched files with a typed
//!   error) and drive the run to completion, printing its summary.
//! * `crash-storm [--kills <n>] [--seed <s>] [--dir <path>]` — the CI
//!   gate: kill the faulted golden scenario at `n` seeded epochs,
//!   checkpoint, restore, and require the resumed run's JSONL sink,
//!   the attribution table derived from it and its report to be
//!   byte-identical to the uninterrupted run's. The storm logic lives in
//!   `lyra_oracle::crash` so tests and CI share one implementation.

use crate::Scale;
use lyra_sim::{
    build_scenario, FaultEvent, FaultKind, FaultPlan, ObserverConfig, RunOutcome, Scenario,
    SimCheckpoint,
};
use std::path::Path;

/// Builds the small observed Basic scenario (the same shape `smoke`
/// runs) with a scheduler crash scheduled at `at_s`.
fn crash_scenario(at_s: f64) -> Scenario {
    let mut scenario = Scenario::basic();
    scenario.cluster = Scale::Small.cluster_config();
    let mut plan = FaultPlan::none();
    plan.events.push(FaultEvent {
        time_s: at_s,
        kind: FaultKind::SchedulerCrash,
    });
    scenario.faults = Some(plan);
    scenario
}

/// `checkpoint --at <seconds> --out <file.ckpt>`: returns the process
/// exit code.
pub fn checkpoint_cmd(at_s: f64, out: &Path, log: Option<&Path>) -> i32 {
    if !(at_s.is_finite() && at_s > 0.0) {
        eprintln!("checkpoint: --at must be a positive number of seconds, got {at_s}");
        return 2;
    }
    let scenario = crash_scenario(at_s);
    let (jobs, inference) = Scale::Small.traces(5);
    let sim = match build_scenario(&scenario, &jobs, &inference) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("checkpoint: building the run: {e}");
            return 1;
        }
    };
    let sim = match sim.with_observer(ObserverConfig {
        sink_path: log.map(Path::to_path_buf),
    }) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("checkpoint: opening the event-log sink: {e}");
            return 1;
        }
    };
    match sim.run_to_outcome(&scenario.name) {
        Ok(RunOutcome::Crashed(state)) => {
            let ckpt = SimCheckpoint::new(scenario, jobs, inference, *state);
            match ckpt.save(out) {
                Ok(()) => {
                    println!(
                        "checkpoint: killed the scheduler at {at_s}s, state saved to {}",
                        out.display()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("checkpoint: saving {}: {e}", out.display());
                    1
                }
            }
        }
        Ok(RunOutcome::Completed(report)) => {
            eprintln!(
                "checkpoint: the run finished ({} jobs) before {at_s}s — nothing to kill; \
                 pick an earlier --at",
                report.completed
            );
            1
        }
        Err(e) => {
            eprintln!("checkpoint: run failed: {e}");
            1
        }
    }
}

/// `resume --ckpt <file.ckpt>`: returns the process exit code.
pub fn resume_cmd(ckpt: &Path) -> i32 {
    let loaded = match SimCheckpoint::load(ckpt) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("resume: refusing {}: {e}", ckpt.display());
            return 1;
        }
    };
    let name = loaded.scenario.name.clone();
    let sim = match loaded.into_simulation() {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("resume: rebuilding the run: {e}");
            return 1;
        }
    };
    match sim.run_to_outcome(&name) {
        Ok(RunOutcome::Completed(report)) => {
            println!(
                "resume: `{name}` ran to completion — {} of {} jobs, mean JCT {:.0}s, \
                 overall usage {:.3}",
                report.completed, report.submitted, report.jct.mean, report.overall_usage
            );
            0
        }
        Ok(RunOutcome::Crashed(_)) => {
            eprintln!(
                "resume: the run crashed again (a later SchedulerCrash event remains in \
                 its fault plan); checkpoint it again to continue"
            );
            1
        }
        Err(e) => {
            eprintln!("resume: run failed: {e}");
            1
        }
    }
}

/// `crash-storm`: runs the kill-and-resume gate and returns the
/// process exit code (0 = every kill point byte-identical).
pub fn storm_cmd(kills: usize, seed: u64, dir: &Path) -> i32 {
    if kills == 0 {
        eprintln!("crash-storm: --kills must be at least 1");
        return 2;
    }
    match lyra_oracle::crash::crash_storm(kills, seed, dir) {
        Ok(report) => {
            println!("{}", report.render());
            i32::from(!report.passed())
        }
        Err(e) => {
            eprintln!("crash-storm: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_then_resume_round_trips_via_cli_paths() {
        let dir = std::env::temp_dir().join(format!("lyra-bench-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("cli.ckpt");
        assert_eq!(checkpoint_cmd(3_600.0, &ckpt, None), 0);
        assert_eq!(resume_cmd(&ckpt), 0);
        // A corrupted copy is refused, not partially loaded.
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = dir.join("cli-bad.ckpt");
        std::fs::write(&bad, &bytes).unwrap();
        assert_eq!(resume_cmd(&bad), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rejects_bad_kill_times() {
        let out = Path::new("unused.ckpt");
        assert_eq!(checkpoint_cmd(-1.0, out, None), 2);
        assert_eq!(checkpoint_cmd(f64::NAN, out, None), 2);
    }

    #[test]
    fn resume_requires_checkpoint_to_exist() {
        assert_eq!(resume_cmd(Path::new("/nonexistent/never.ckpt")), 1);
    }
}

// `checkpoint::resume` is the library-level one-shot path; the CLI
// splits load and run to report each failure precisely, but keep the
// one-shot path covered too.
#[cfg(test)]
mod one_shot {
    use super::*;
    use lyra_sim::checkpoint;

    #[test]
    fn library_resume_matches_cli_resume() {
        let dir = std::env::temp_dir().join(format!("lyra-bench-oneshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("one.ckpt");
        assert_eq!(checkpoint_cmd(7_200.0, &ckpt, None), 0);
        match checkpoint::resume(&ckpt, "basic") {
            Ok(RunOutcome::Completed(report)) => assert!(report.completed > 0),
            other => panic!("one-shot resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
