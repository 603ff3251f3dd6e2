//! The golden-trace regression gate.
//!
//! A handful of pinned tiny scenarios run under full observation; their
//! complete JSONL event logs are committed under `tests/golden/` and
//! compared byte-for-byte. Any behavioural change to the scheduler —
//! intended or not — shows up as a diff; intended changes are blessed
//! with `lyra-bench golden --bless`.
//!
//! The faulted case additionally pins four artifacts — the
//! delay-attribution table (`.attribution.txt`), the rendered decision
//! provenance for one preemption victim (`.provenance.txt`) and the
//! flow-annotated Chrome `trace_event` export (`.provenance.json`), all
//! *derived* from its log, plus the telemetry series export (`.series.csv`)
//! from the run's report — so a change to the attribution, export,
//! provenance or telemetry pipeline is caught even when the
//! underlying event stream is unchanged.
//!
//! The gate also proves its own teeth: [`mutation_smoke`] flips one
//! scheduler constant (the phase-2 solver, MCKP DP → greedy ablation)
//! and asserts both the gate and a differential oracle actually fail,
//! and flips the reclaim policy to assert the pinned provenance
//! artifacts move with the victim-ranking decisions they record.

use lyra_obs::{to_jsonl, TimedEvent};
use lyra_sim::scenario::generators;
use lyra_sim::{
    run_scenario_observed, transform, zoo, FaultConfig, FaultPlan, ObserverConfig, Scenario,
    SimReport,
};
use lyra_trace::{InferenceTrace, JobTrace};
use std::fs;
use std::path::{Path, PathBuf};

/// The committed golden-log directory (`tests/golden/` at the repo
/// root).
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// One pinned golden scenario: a name (the file stem under
/// `tests/golden/`) plus everything needed to rerun it exactly.
pub struct GoldenCase {
    /// File stem of the committed log.
    pub name: &'static str,
    /// The pinned scenario.
    pub scenario: Scenario,
    /// The pinned job trace.
    pub jobs: JobTrace,
    /// The pinned inference trace.
    pub inference: InferenceTrace,
    /// Also pin the derived artifacts (attribution table, `why`
    /// rendering, Chrome trace, telemetry series) for this case.
    pub pin_artifacts: bool,
}

impl GoldenCase {
    /// Runs the scenario under full observation and returns the whole
    /// report (event log, telemetry, attribution, …).
    pub fn observed_report(&self) -> Result<SimReport, String> {
        run_scenario_observed(
            &self.scenario,
            &self.jobs,
            &self.inference,
            ObserverConfig::default(),
        )
        .map_err(|e| format!("{}: {e}", self.name))
    }

    /// Runs the scenario under full observation and returns its event
    /// log as JSONL, the bytes its committed file holds.
    pub fn event_log(&self) -> Result<String, String> {
        Ok(to_jsonl(&self.observed_report()?.events))
    }

    /// The on-disk path of this case's committed log inside `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.jsonl", self.name))
    }

    /// Path of the pinned attribution table inside `dir`.
    pub fn attribution_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.attribution.txt", self.name))
    }

    /// Path of the pinned telemetry series export inside `dir`.
    pub fn series_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.series.csv", self.name))
    }

    /// Path of the pinned `why` rendering (decision provenance for one
    /// preemption victim) inside `dir`.
    pub fn provenance_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.provenance.txt", self.name))
    }

    /// Path of the pinned (flow-annotated) Chrome trace inside `dir`.
    pub fn provenance_trace_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.provenance.json", self.name))
    }

    /// Derives the pinned artifacts from a run's events: the rendered
    /// delay-attribution table, the `why` rendering for the log's first
    /// preemption victim, and the flow-annotated Chrome `trace_event`
    /// export (schema-validated before it is returned).
    pub fn artifacts(&self, events: &[TimedEvent]) -> Result<PinnedArtifacts, String> {
        let attrs = lyra_obs::attribute_log(events);
        let table = lyra_obs::summarize(&attrs).render_table();
        // The provenance artifacts anchor on the first preemption
        // victim in the log; a pinned case without any preemption
        // would leave the reclaim blame chain untested, so fail loud.
        let victim = events
            .iter()
            .find_map(|e| match &e.event {
                lyra_obs::SchedEvent::JobPreempt { job, .. } => Some(*job),
                _ => None,
            })
            .ok_or_else(|| {
                format!("{}: log has no JobPreempt event to anchor provenance on", self.name)
            })?;
        let why = lyra_obs::why_from_log(events, victim)
            .map_err(|e| format!("{}: {e}", self.name))?;
        let prov_trace = lyra_obs::export_provenance_trace(events);
        lyra_obs::validate_chrome_trace(&prov_trace)
            .map_err(|e| format!("{}: provenance trace is malformed: {e}", self.name))?;
        Ok(PinnedArtifacts {
            table,
            why,
            provenance_trace: prov_trace,
        })
    }
}

/// The derived artifacts pinned alongside a golden log.
pub struct PinnedArtifacts {
    /// Rendered delay-attribution table.
    pub table: String,
    /// `why` rendering for the log's first preemption victim.
    pub why: String,
    /// Flow-annotated Chrome `trace_event` export.
    pub provenance_trace: String,
}

/// The pinned cases. Deliberately small (a day of 64-GPU trace on an
/// 8+8 cluster, seconds to run) but chosen to cover the paths a
/// scheduler change can plausibly move: the plain Lyra configuration,
/// an elastic-heavy workload where phase 2 does real work, a faulted
/// run exercising crash/restart, preemption and straggler paths, and a
/// checkpointed faulted run exercising the checkpoint rollback.
pub fn cases() -> Vec<GoldenCase> {
    let (jobs_basic, inf_basic) = generators::tiny_traces(7);
    let (mut jobs_elastic, inf_elastic) = generators::tiny_traces(11);
    transform::set_elastic_fraction(&mut jobs_elastic, 0.9, 11);
    let (jobs_faulty, inf_faulty) = generators::tiny_traces(13);
    let mut faulty = generators::tiny_basic(13);
    faulty.faults = Some(FaultPlan::generate(
        &FaultConfig::moderate(2.0 * 86_400.0),
        16,
        13,
    ));
    let (mut jobs_ckpt, inf_ckpt) = generators::tiny_traces(23);
    transform::set_checkpoint_fraction(&mut jobs_ckpt, 1.0, 23);
    let mut checkpointed = generators::tiny_basic(23);
    checkpointed.faults = Some(FaultPlan::generate(
        &FaultConfig {
            checkpoint_restore_failure_prob: 0.3,
            ..FaultConfig::moderate(2.0 * 86_400.0)
        },
        16,
        23,
    ));
    let zoo_case = |name: &str| {
        zoo::cases()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("zoo case {name} exists"))
            .build()
    };
    let (hetero, jobs_hetero, inf_hetero) = zoo_case("hetero");
    let (malleable, jobs_malleable, inf_malleable) = zoo_case("malleable");
    let (deadline, jobs_deadline, inf_deadline) = zoo_case("deadline");
    vec![
        GoldenCase {
            name: "tiny-basic",
            scenario: generators::tiny_basic(7),
            jobs: jobs_basic,
            inference: inf_basic,
            pin_artifacts: false,
        },
        GoldenCase {
            name: "tiny-elastic",
            scenario: generators::tiny_basic(11),
            jobs: jobs_elastic,
            inference: inf_elastic,
            pin_artifacts: false,
        },
        // The faulted case covers the widest cause taxonomy (restarts,
        // preemptions, stragglers), so it also pins the
        // derived attribution table, `why` rendering and Chrome trace.
        GoldenCase {
            name: "tiny-faulty",
            scenario: faulty,
            jobs: jobs_faulty,
            inference: inf_faulty,
            pin_artifacts: true,
        },
        // Every job checkpoints and 30 % of the restores fail, so
        // both rollback paths (reclaim preemption and fault kill) and
        // both restore outcomes are pinned.
        GoldenCase {
            name: "tiny-checkpointed",
            scenario: checkpointed,
            jobs: jobs_ckpt,
            inference: inf_ckpt,
            pin_artifacts: false,
        },
        // The zoo cells: mixed GPU generations, explicit resize costs,
        // and SLO deadlines. Pinned so a change to the speed-scaled
        // progress model, the resize-cost stalls or the deadline-miss
        // events is caught byte-for-byte.
        GoldenCase {
            name: "tiny-hetero",
            scenario: hetero,
            jobs: jobs_hetero,
            inference: inf_hetero,
            pin_artifacts: false,
        },
        GoldenCase {
            name: "tiny-malleable",
            scenario: malleable,
            jobs: jobs_malleable,
            inference: inf_malleable,
            pin_artifacts: false,
        },
        GoldenCase {
            name: "tiny-deadline",
            scenario: deadline,
            jobs: jobs_deadline,
            inference: inf_deadline,
            pin_artifacts: false,
        },
    ]
}

/// The mutation-smoke perturbation: flips the phase-2 solver constant
/// from the exact MCKP DP to the greedy ablation
/// (`"lyra"` → `"lyra-greedy-phase2"`).
pub fn mutate(scenario: &mut Scenario) {
    scenario.policy = "lyra-greedy-phase2".to_string();
}

/// A mismatch between a fresh run and its committed golden log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDiff {
    /// Case name.
    pub name: String,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

fn first_divergence(expected: &str, got: &str) -> String {
    for (i, (e, g)) in expected.lines().zip(got.lines()).enumerate() {
        if e != g {
            return format!("first diff at line {}: committed `{e}` vs fresh `{g}`", i + 1);
        }
    }
    format!(
        "line counts differ: committed {} vs fresh {}",
        expected.lines().count(),
        got.lines().count()
    )
}

/// Compares every case against the committed logs in `dir`, byte for
/// byte. Each case is run **twice** so run-to-run nondeterminism is
/// reported as its own diff rather than slipping through as flaky
/// passes. Returns the (possibly empty) list of mismatches; I/O
/// problems (including a missing file) are reported as diffs too, so a
/// half-blessed directory fails closed.
pub fn compare(dir: &Path) -> Vec<GoldenDiff> {
    let mut diffs = Vec::new();
    for case in cases() {
        let (events, fresh, series_csv) = match (case.observed_report(), case.observed_report()) {
            (Ok(a), Ok(b)) => {
                let fresh = to_jsonl(&a.events);
                if fresh != to_jsonl(&b.events) || a.telemetry != b.telemetry {
                    diffs.push(GoldenDiff {
                        name: case.name.to_string(),
                        detail: "two consecutive runs diverged (nondeterminism)".into(),
                    });
                    continue;
                }
                (a.events, fresh, a.telemetry.to_csv())
            }
            (Err(e), _) | (_, Err(e)) => {
                diffs.push(GoldenDiff {
                    name: case.name.to_string(),
                    detail: format!("run failed: {e}"),
                });
                continue;
            }
        };
        match fs::read_to_string(case.path(dir)) {
            Ok(committed) => {
                if committed != fresh {
                    diffs.push(GoldenDiff {
                        name: case.name.to_string(),
                        detail: first_divergence(&committed, &fresh),
                    });
                }
            }
            Err(e) => diffs.push(GoldenDiff {
                name: case.name.to_string(),
                detail: format!(
                    "cannot read {} ({e}); run `lyra-bench golden --bless`",
                    case.path(dir).display()
                ),
            }),
        }
        if !case.pin_artifacts {
            continue;
        }
        let arts = match case.artifacts(&events) {
            Ok(a) => a,
            Err(e) => {
                diffs.push(GoldenDiff {
                    name: case.name.to_string(),
                    detail: e,
                });
                continue;
            }
        };
        for (label, path, got) in [
            ("attribution table", case.attribution_path(dir), arts.table),
            ("series export", case.series_path(dir), series_csv),
            ("provenance rendering", case.provenance_path(dir), arts.why),
            (
                "provenance trace",
                case.provenance_trace_path(dir),
                arts.provenance_trace,
            ),
        ] {
            match fs::read_to_string(&path) {
                Ok(committed) => {
                    if committed != got {
                        diffs.push(GoldenDiff {
                            name: case.name.to_string(),
                            detail: format!(
                                "{label} diverged: {}",
                                first_divergence(&committed, &got)
                            ),
                        });
                    }
                }
                Err(e) => diffs.push(GoldenDiff {
                    name: case.name.to_string(),
                    detail: format!(
                        "cannot read {} ({e}); run `lyra-bench golden --bless`",
                        path.display()
                    ),
                }),
            }
        }
    }
    diffs
}

/// Regenerates every committed log in `dir` (creating it if needed).
/// Returns the written file names.
pub fn bless(dir: &Path) -> Result<Vec<String>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for case in cases() {
        let report = case.observed_report()?;
        let path = case.path(dir);
        fs::write(&path, to_jsonl(&report.events))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        written.push(format!(
            "{} ({} events)",
            path.display(),
            report.events.len()
        ));
        if case.pin_artifacts {
            let arts = case.artifacts(&report.events)?;
            let spath = case.series_path(dir);
            fs::write(&spath, report.telemetry.to_csv())
                .map_err(|e| format!("{}: {e}", spath.display()))?;
            for (path, content) in [
                (case.attribution_path(dir), arts.table),
                (case.provenance_path(dir), arts.why),
                (case.provenance_trace_path(dir), arts.provenance_trace),
            ] {
                fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
                written.push(format!("{}", path.display()));
            }
            written.push(format!("{}", spath.display()));
        }
    }
    Ok(written)
}

/// The full mutation smoke: under the flipped scheduler constant the
/// golden gate must fire on at least one case AND the phase-2
/// exactness oracle must fail on its trap instance. Returns `Err`
/// naming whatever did *not* fire — a passing mutation smoke is the
/// proof that the gate has teeth.
pub fn mutation_smoke(dir: &Path) -> Result<(), String> {
    let mut fired = Vec::new();
    for mut case in cases() {
        mutate(&mut case.scenario);
        let log = case.event_log()?;
        let committed = fs::read_to_string(case.path(dir))
            .map_err(|e| format!("{} ({e}); bless first", case.path(dir).display()))?;
        if committed != log {
            fired.push(case.name);
        }
    }
    if fired.is_empty() {
        return Err(
            "golden gate did not fire on any case under the mutated phase-2 solver".into(),
        );
    }
    let (groups, capacity) = crate::mckp::greedy_trap();
    if crate::mckp::check_phase2_solver_exact(
        &lyra_core::allocation::greedy_phase2_for_oracles,
        &groups,
        capacity,
    )
    .is_ok()
    {
        return Err("phase-2 exactness oracle did not fail under the greedy mutation".into());
    }
    provenance_mutation_smoke(dir)?;
    zoo_mutation_smoke(dir)
}

/// The provenance arm of the mutation smoke: flipping the reclaim
/// policy (cost-guided Lyra → random victim choice) must move the
/// pinned provenance artifacts of the faulted case — the `why`
/// rendering blames specific victim-ranking decisions, so a different
/// ranking must produce different bytes. Returns `Err` if neither
/// pinned provenance artifact moved.
pub fn provenance_mutation_smoke(dir: &Path) -> Result<(), String> {
    use lyra_cluster::orchestrator::ReclaimPolicy;

    let mut case = cases()
        .into_iter()
        .find(|c| c.name == "tiny-faulty")
        .expect("tiny-faulty golden case exists");
    case.scenario.loaning = Some(ReclaimPolicy::Random);
    let arts = case.artifacts(&case.observed_report()?.events)?;
    let committed_why = fs::read_to_string(case.provenance_path(dir))
        .map_err(|e| format!("{} ({e}); bless first", case.provenance_path(dir).display()))?;
    let committed_trace = fs::read_to_string(case.provenance_trace_path(dir)).map_err(|e| {
        format!(
            "{} ({e}); bless first",
            case.provenance_trace_path(dir).display()
        )
    })?;
    if committed_why == arts.why && committed_trace == arts.provenance_trace {
        return Err(
            "provenance artifacts did not move under the flipped reclaim policy".into(),
        );
    }
    Ok(())
}

/// The zoo arm of the mutation smoke: flipping the hetero cell's speed
/// factors and tightening the deadline cell's slack must each move the
/// corresponding committed golden log, AND the matching metamorphic
/// oracle must fail when handed the reversed claim. Returns `Err`
/// naming whatever did not fire.
pub fn zoo_mutation_smoke(dir: &Path) -> Result<(), String> {
    use lyra_core::SpeedFactors;

    let case = |name: &str| {
        cases()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("golden case {name} exists"))
    };

    // Flipping the speed factors (swap the generations' multipliers)
    // must move the pinned hetero log.
    let mut hetero = case("tiny-hetero");
    hetero.scenario.cluster.speed = SpeedFactors { v100: 0.8, t4: 1.25 };
    let log = hetero.event_log()?;
    let committed = fs::read_to_string(hetero.path(dir))
        .map_err(|e| format!("{} ({e}); bless first", hetero.path(dir).display()))?;
    if committed == log {
        return Err("golden gate did not fire on tiny-hetero under flipped speed factors".into());
    }

    // …and the speed-factor monotonicity oracle must reject the
    // reversed claim (a half-speed fleet passed off as the fast one).
    let (scenario, jobs, inference) = zoo::cases()
        .into_iter()
        .find(|c| c.name == "basic")
        .expect("zoo has a basic cell")
        .build();
    if crate::props::check_speed_factor_monotonicity(
        &scenario,
        &jobs,
        &inference,
        SpeedFactors { v100: 2.0, t4: 2.0 },
        SpeedFactors { v100: 0.5, t4: 0.5 },
    )
    .is_ok()
    {
        return Err("speed-factor monotonicity oracle accepted a half-speed fleet as faster".into());
    }

    // Tightening every deadline must move the pinned deadline log (new
    // DeadlineMiss events appear).
    let mut tight = case("tiny-deadline");
    transform::set_deadlines(&mut tight.jobs, 0.2, tight.scenario.seed ^ 1);
    let log = tight.event_log()?;
    let committed = fs::read_to_string(tight.path(dir))
        .map_err(|e| format!("{} ({e}); bless first", tight.path(dir).display()))?;
    if committed == log {
        return Err("golden gate did not fire on tiny-deadline under tightened deadlines".into());
    }

    // …and the deadline-slack monotonicity oracle must reject the
    // reversed claim (tight slack passed off as the slacker one).
    if crate::props::check_deadline_slack_monotonicity(&scenario, &jobs, &inference, 4.0, 0.2, 77)
        .is_ok()
    {
        return Err(
            "deadline-slack monotonicity oracle accepted tighter deadlines as slacker".into(),
        );
    }
    Ok(())
}
