//! `lyra-bench perf`: the observation and reclaim cost gates.
//!
//! Three gates run at Small (CI) scale: full observation must stay
//! within a generous multiple of the bare run, the decision-provenance
//! tracker may cost at most 5 % over plain observation, and a
//! reclaim-heavy probe fails if `core.reclaim` burns too large a share
//! of span self time. Every run *appends* its overhead probes to the
//! `history` array inside `BENCH_scheduler.json`, so regressions show as
//! a trend across runs; the file's other fields are the frozen
//! scheduler-epoch baseline and are never rewritten. Wall-time timing of
//! the simulator, end to end and layer by layer, is `lyra-benchmark`'s
//! job.

use crate::Scale;
use lyra_obs::Profile;
use lyra_sim::{run_scenario, run_scenario_observed, ObserverConfig, Scenario, SimReport};
use lyra_trace::{InferenceTrace, JobTrace};
use serde::{Serialize, Value};

/// Wall time of the telemetry/observer overhead probe: the same
/// scenario run bare and under full observation (event log, metrics,
/// audit, telemetry sampling — everything `ObserverConfig::default()`
/// turns on).
#[derive(Debug, Serialize)]
pub struct ObserverOverhead {
    /// Wall time of the unobserved run, seconds.
    pub unobserved_s: f64,
    /// Wall time of the fully observed run, seconds.
    pub observed_s: f64,
    /// `observed_s / unobserved_s` (0 when the bare run is too fast to
    /// measure).
    pub ratio: f64,
}

/// Wall time of the provenance overhead probe: the same scenario run
/// observed with the decision-provenance tracker off and on. The
/// tracker rides the existing emission path (one graph update per
/// event), so its cost must stay marginal next to observation itself.
#[derive(Debug, Serialize)]
pub struct ProvenanceOverhead {
    /// Wall time of the observed run with provenance tracking off,
    /// seconds.
    pub observed_s: f64,
    /// Wall time of the observed run with provenance tracking on,
    /// seconds.
    pub provenance_s: f64,
    /// `provenance_s / observed_s` (0 when the base run is too fast to
    /// measure).
    pub ratio: f64,
}

/// The provenance-tracking run may take at most 5 % over the plain
/// observed run…
pub const PROVENANCE_BUDGET_RATIO: f64 = 1.05;
/// …plus this much absolute slack: Small-scale CI runs finish in well
/// under a second, where a 5 % relative budget alone would be pure
/// timer noise.
pub const PROVENANCE_BUDGET_SLACK_S: f64 = 0.5;

/// The observed run may take at most `OVERHEAD_BUDGET_RATIO` × the
/// bare run plus `OVERHEAD_BUDGET_SLACK_S` of absolute slack. The
/// ratio is deliberately generous — CI machines are noisy and the
/// Small-scale runs are short — but it still catches an accidental
/// O(jobs × epochs) regression in the telemetry sampling hot path.
pub const OVERHEAD_BUDGET_RATIO: f64 = 4.0;
/// Absolute slack for the overhead budget, seconds.
pub const OVERHEAD_BUDGET_SLACK_S: f64 = 2.0;

/// Budget for `core.reclaim`'s share of total span self time in the
/// reclaim-heavy smoke probe. Before the incremental preemption-cost
/// engine, server selection alone burned ~57 % of a trace-scale run;
/// with it the share sits in the low single digits even under violent
/// loan/reclaim churn. The budget is generous (CI machines are noisy
/// and Small runs are short) but still far below the from-scratch
/// regime, so an accidental O(servers × reclaims) regression trips it.
pub const RECLAIM_SHARE_BUDGET: f64 = 0.25;
/// Minimum total self time before the reclaim share gate applies: on a
/// fast machine the whole probe is a handful of milliseconds and the
/// share estimate is pure noise.
pub const RECLAIM_SHARE_MIN_TOTAL_S: f64 = 0.05;

/// Times the scenario bare vs fully observed and returns the probe.
fn observer_overhead(
    scenario: &Scenario,
    jobs: &JobTrace,
    inference: &InferenceTrace,
) -> ObserverOverhead {
    let t0 = std::time::Instant::now();
    run_scenario(scenario, jobs, inference).unwrap_or_else(|e| panic!("bare run failed: {e}"));
    let unobserved_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    observed(scenario, jobs, inference);
    let observed_s = t1.elapsed().as_secs_f64();
    ObserverOverhead {
        unobserved_s,
        observed_s,
        ratio: if unobserved_s > 0.0 {
            observed_s / unobserved_s
        } else {
            0.0
        },
    }
}

/// Times the scenario observed with provenance off vs on.
fn provenance_overhead(
    scenario: &Scenario,
    jobs: &JobTrace,
    inference: &InferenceTrace,
) -> ProvenanceOverhead {
    let off = ObserverConfig {
        provenance: false,
        ..ObserverConfig::default()
    };
    let t0 = std::time::Instant::now();
    run_scenario_observed(scenario, jobs, inference, off)
        .unwrap_or_else(|e| panic!("observed run failed: {e}"));
    let observed_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    observed(scenario, jobs, inference);
    let provenance_s = t1.elapsed().as_secs_f64();
    ProvenanceOverhead {
        observed_s,
        provenance_s,
        ratio: if observed_s > 0.0 {
            provenance_s / observed_s
        } else {
            0.0
        },
    }
}

/// One `history` entry in `BENCH_scheduler.json`: the overhead probes
/// of a single `perf` invocation.
#[derive(Debug, Serialize)]
pub struct HistoryEntry {
    /// Trace/cluster scale the probes ran at.
    pub scale: String,
    /// Bare vs observed wall time.
    pub observer: ObserverOverhead,
    /// Observed vs provenance-tracking wall time.
    pub provenance: ProvenanceOverhead,
}

/// Appends `entry` to the `history` array of `BENCH_scheduler.json`,
/// creating the file or the array as needed and leaving every other
/// field intact.
fn record_run(entry: &HistoryEntry) -> Result<(), String> {
    let path = "BENCH_scheduler.json";
    let prior = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok());
    let mut history = match prior.as_ref().and_then(|v| v.get("history")) {
        Some(Value::Array(items)) => items.clone(),
        _ => Vec::new(),
    };
    history.push(entry.to_value());
    let mut root = prior.unwrap_or(Value::Object(Vec::new()));
    let Value::Object(pairs) = &mut root else {
        return Err(format!("{path}: top level is not an object"));
    };
    pairs.retain(|(k, _)| k != "history");
    pairs.push(("history".to_string(), Value::Array(history)));
    let json =
        serde_json::to_string_pretty(&root).map_err(|e| format!("serialise {path}: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

/// Runs the scenario with span profiling on (no observer: the event log
/// and audit trail stay off, exactly like a production run) and returns
/// the collected profile.
fn timed_run(scenario: &Scenario, jobs: &JobTrace, inference: &InferenceTrace) -> Profile {
    lyra_obs::span::set_enabled(true);
    let _ = lyra_obs::span::take_profile(); // drop any residue
    run_scenario(scenario, jobs, inference).unwrap_or_else(|e| panic!("timed run failed: {e}"));
    let profile = lyra_obs::span::take_profile();
    lyra_obs::span::set_enabled(false);
    profile
}

fn observed(scenario: &Scenario, jobs: &JobTrace, inference: &InferenceTrace) -> SimReport {
    run_scenario_observed(scenario, jobs, inference, ObserverConfig::default())
        .unwrap_or_else(|e| panic!("observed run failed: {e}"))
}

/// Reclaim-heavy probe: a Small-scale scenario tuned for loan/reclaim
/// churn (saturated training queue + violently bursty inference trace),
/// timed once, gated on `core.reclaim`'s share of total self time.
/// Returns the process exit code.
fn reclaim_probe() -> i32 {
    let scale = Scale::Small;
    let seed = 7;
    let mut trace_config = scale.trace_config(seed);
    // Saturate training over eight days: with the queue always deep,
    // every loaned server is wanted and every inference spike forces a
    // reclaim. Eight days keep the total self time well above
    // `RECLAIM_SHARE_MIN_TOTAL_S`, so the gate applies on fast hosts too.
    trace_config.days = 8;
    trace_config.target_load = 1.4;
    let jobs = JobTrace::generate(trace_config);
    let mut inf_config = scale.inference_config(seed ^ 0xA5A5);
    // Frequent ~10 %-of-capacity bursts on top of the diurnal wave keep
    // the orchestrator flip-flopping between loaning and reclaiming.
    inf_config.days = trace_config.days + 30;
    inf_config.burst_prob = 0.25;
    inf_config.burst_mean = 0.10;
    inf_config.noise = 0.05;
    let inference = InferenceTrace::generate(inf_config);
    let mut scenario = Scenario::basic();
    scenario.cluster = scale.cluster_config();
    // A 60 s orchestrator tick (vs the paper's 300 s) multiplies the
    // loan/reclaim decision rate without growing the cluster.
    scenario.sim.orchestrator_interval_s = 60.0;
    let profile = timed_run(&scenario, &jobs, &inference);
    let total_self: f64 = profile.0.iter().map(|p| p.self_s).sum();
    let (reclaim_calls, reclaim_self) = profile
        .0
        .iter()
        .find(|p| p.name == "core.reclaim")
        .map_or((0, 0.0), |p| (p.calls, p.self_s));
    let share = if total_self > 0.0 {
        reclaim_self / total_self
    } else {
        0.0
    };
    println!(
        "reclaim probe: core.reclaim {reclaim_self:.4}s self over {reclaim_calls} calls \
         = {:.1}% of {total_self:.4}s total self time (budget {:.0}%)",
        100.0 * share,
        100.0 * RECLAIM_SHARE_BUDGET
    );
    if total_self < RECLAIM_SHARE_MIN_TOTAL_S {
        println!(
            "reclaim share gate skipped (total self {total_self:.4}s < floor \
             {RECLAIM_SHARE_MIN_TOTAL_S}s)"
        );
        return 0;
    }
    if share > RECLAIM_SHARE_BUDGET {
        eprintln!(
            "perf: reclaim share budget EXCEEDED: core.reclaim burned {:.1}% of \
             self time under reclaim churn (budget {:.0}%)",
            100.0 * share,
            100.0 * RECLAIM_SHARE_BUDGET
        );
        return 1;
    }
    0
}

/// Runs the three gates and appends their probes to the history in
/// `BENCH_scheduler.json`; returns the process exit code.
pub fn run() -> i32 {
    let scale = Scale::Small;
    let (jobs, inference) = scale.traces(5);
    let mut scenario = Scenario::basic();
    scenario.cluster = scale.cluster_config();

    // Telemetry overhead budget: full observation (event log + metrics
    // + audit + telemetry sampling) must stay within a generous
    // multiple of the bare run.
    let overhead = observer_overhead(&scenario, &jobs, &inference);
    println!(
        "observer overhead: {:.3}s bare vs {:.3}s observed ({:.2}x, budget {}x + {}s)",
        overhead.unobserved_s,
        overhead.observed_s,
        overhead.ratio,
        OVERHEAD_BUDGET_RATIO,
        OVERHEAD_BUDGET_SLACK_S
    );
    if overhead.observed_s > OVERHEAD_BUDGET_RATIO * overhead.unobserved_s + OVERHEAD_BUDGET_SLACK_S
    {
        eprintln!(
            "perf: telemetry overhead budget EXCEEDED \
             ({:.3}s observed vs {:.3}s bare)",
            overhead.observed_s, overhead.unobserved_s
        );
        return 1;
    }
    // Provenance overhead budget: the decision-provenance tracker may
    // cost at most 5 % (plus slack) over plain observation.
    let prov_overhead = provenance_overhead(&scenario, &jobs, &inference);
    println!(
        "provenance overhead: {:.3}s observed vs {:.3}s with provenance \
         ({:.2}x, budget {}x + {}s)",
        prov_overhead.observed_s,
        prov_overhead.provenance_s,
        prov_overhead.ratio,
        PROVENANCE_BUDGET_RATIO,
        PROVENANCE_BUDGET_SLACK_S
    );
    if prov_overhead.provenance_s
        > PROVENANCE_BUDGET_RATIO * prov_overhead.observed_s + PROVENANCE_BUDGET_SLACK_S
    {
        eprintln!(
            "perf: provenance overhead budget EXCEEDED \
             ({:.3}s with provenance vs {:.3}s observed)",
            prov_overhead.provenance_s, prov_overhead.observed_s
        );
        return 1;
    }
    let rc = reclaim_probe();
    if rc != 0 {
        return rc;
    }
    let entry = HistoryEntry {
        scale: format!("{scale:?}").to_lowercase(),
        observer: overhead,
        provenance: prov_overhead,
    };
    if let Err(e) = record_run(&entry) {
        eprintln!("perf: {e}");
        return 1;
    }
    println!(
        "perf: telemetry, provenance and reclaim overheads within budget; \
         probes appended to BENCH_scheduler.json history"
    );
    0
}
