//! `lyra-bench perf`: the observation and reclaim cost gates.
//!
//! Two gates run at Small (CI) scale: full observation must stay
//! within a generous multiple of the bare run, and a reclaim-heavy
//! probe fails if `core.reclaim` burns too large a share of span self
//! time. The gates print their probes and write nothing;
//! `BENCH_scheduler.json` is a frozen scheduler-epoch measurement.
//! Wall-time timing of the simulator, end to end and layer by layer, is
//! `lyra-benchmark`'s job.

use crate::Scale;
use lyra_obs::Profile;
use lyra_sim::{run_scenario, run_scenario_observed, ObserverConfig, Scenario};
use lyra_trace::{InferenceTrace, JobTrace};
use std::time::Instant;

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

/// Wall time of `run`, seconds.
fn timed(run: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    run();
    t0.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when `den` is too small to measure.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
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

/// Runs the two gates; returns the process exit code.
pub fn run() -> i32 {
    let scale = Scale::Small;
    let (jobs, inference) = scale.traces(5);
    let mut scenario = Scenario::basic();
    scenario.cluster = scale.cluster_config();

    // Two runs of one scenario: bare, and fully observed (event log,
    // telemetry sampling, decision audits and span timing, everything
    // `ObserverConfig::default()` turns on).
    let bare_s = timed(|| {
        run_scenario(&scenario, &jobs, &inference)
            .unwrap_or_else(|e| panic!("bare run failed: {e}"));
    });
    let observed_s = timed(|| {
        run_scenario_observed(&scenario, &jobs, &inference, ObserverConfig::default())
            .unwrap_or_else(|e| panic!("observed run failed: {e}"));
    });

    // Telemetry overhead budget: full observation must stay within a
    // generous multiple of the bare run.
    println!(
        "observer overhead: {bare_s:.3}s bare vs {observed_s:.3}s observed \
         ({:.2}x, budget {}x + {}s)",
        ratio(observed_s, bare_s),
        OVERHEAD_BUDGET_RATIO,
        OVERHEAD_BUDGET_SLACK_S
    );
    if observed_s > OVERHEAD_BUDGET_RATIO * bare_s + OVERHEAD_BUDGET_SLACK_S {
        eprintln!(
            "perf: telemetry overhead budget EXCEEDED \
             ({observed_s:.3}s observed vs {bare_s:.3}s bare)"
        );
        return 1;
    }
    let rc = reclaim_probe();
    if rc != 0 {
        return rc;
    }
    println!("perf: telemetry and reclaim overheads within budget");
    0
}
