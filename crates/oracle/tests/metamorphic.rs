//! Metamorphic properties over full simulations.
//!
//! Each property states a relation two *related* runs must satisfy —
//! no oracle for the absolute answer is needed. The scenarios are the
//! pinned tiny generators (`lyra_sim::generators`), so each test runs
//! a handful of day-long 64-GPU simulations in well under a second.
//!
//! The seeds are pinned: metamorphic relations over a full
//! discrete-event scheduler are monotone in expectation, not pointwise
//! for every seed (e.g. extra capacity can reshuffle placement enough
//! to delay one specific job). Pinning seeds makes each property a
//! deterministic regression check over several independent workloads
//! rather than a flaky universal claim.

use lyra_core::SpeedFactors;
use lyra_oracle::props;
use lyra_sim::scenario::generators::{tiny_basic, tiny_cluster, tiny_traces};
use lyra_sim::{run_scenario, transform, FaultConfig, FaultPlan, SimReport};

const SEEDS: [u64; 4] = [1, 2, 3, 5];

fn run(seed: u64, extra_training_servers: u32) -> SimReport {
    let mut scenario = tiny_basic(seed);
    scenario.cluster.training_servers = tiny_cluster().training_servers + extra_training_servers;
    let (jobs, inference) = tiny_traces(seed);
    run_scenario(&scenario, &jobs, &inference).expect("run")
}

/// Adding an idle training server never increases mean queuing delay
/// under Lyra (more capacity can only absorb demand sooner).
#[test]
fn extra_idle_server_never_increases_mean_queuing() {
    for seed in SEEDS {
        let base = run(seed, 0);
        let bigger = run(seed, 1);
        assert!(
            bigger.queuing.mean <= base.queuing.mean + 1e-9,
            "seed {seed}: queuing mean rose from {:.3}s to {:.3}s with an extra idle server",
            base.queuing.mean,
            bigger.queuing.mean
        );
        assert!(
            bigger.completed >= base.completed,
            "seed {seed}: completions dropped with an extra idle server"
        );
    }
}

/// Raising one elastic job's `w_max` never worsens that job's own JCT:
/// the scheduler may scale it out further, never less.
#[test]
fn raising_w_max_never_worsens_own_jct() {
    for seed in SEEDS {
        let scenario = tiny_basic(seed);
        let (mut jobs, inference) = tiny_traces(seed);
        transform::set_elastic_fraction(&mut jobs, 0.9, seed);
        let base = run_scenario(&scenario, &jobs, &inference).expect("run");

        // Raise the scaling headroom of the first elastic job.
        let (idx, id) = jobs
            .jobs
            .iter()
            .enumerate()
            .find_map(|(i, j)| j.is_elastic().then_some((i, j.id)))
            .expect("the 90%-elastic trace has an elastic job");
        let job = &mut jobs.jobs[idx];
        let el = job.elasticity.as_mut().expect("elastic");
        el.w_max += 2;
        let scaled = run_scenario(&scenario, &jobs, &inference).expect("run");

        let jct = |r: &SimReport| {
            r.records
                .iter()
                .find(|rec| rec.id == id)
                .and_then(|rec| rec.jct_s())
                .expect("pinned job completes")
        };
        assert!(
            jct(&scaled) <= jct(&base) + 1e-9,
            "seed {seed}: job {id:?} JCT worsened from {:.1}s to {:.1}s after raising w_max",
            jct(&base),
            jct(&scaled)
        );
    }
}

/// A fault-free run dominates the same seed with faults injected: at
/// least as many completions, and no worse mean JCT or queuing.
#[test]
fn fault_free_run_dominates_faulted_twin() {
    for seed in SEEDS {
        let clean = run(seed, 0);
        let mut scenario = tiny_basic(seed);
        scenario.faults = Some(FaultPlan::generate(
            &FaultConfig::moderate(2.0 * 86_400.0),
            tiny_cluster().training_servers + tiny_cluster().inference_servers,
            seed,
        ));
        let (jobs, inference) = tiny_traces(seed);
        let faulted = run_scenario(&scenario, &jobs, &inference).expect("run");

        assert!(
            faulted.fault.injected > 0,
            "seed {seed}: the fault plan must actually inject faults"
        );
        assert!(
            clean.completed >= faulted.completed,
            "seed {seed}: the faulted run completed more jobs than the fault-free one"
        );
        assert!(
            clean.jct.mean <= faulted.jct.mean + 1e-9,
            "seed {seed}: mean JCT improved under faults ({:.1}s clean vs {:.1}s faulted)",
            clean.jct.mean,
            faulted.jct.mean
        );
        assert!(
            clean.queuing.mean <= faulted.queuing.mean + 1e-9,
            "seed {seed}: mean queuing improved under faults ({:.1}s clean vs {:.1}s faulted)",
            clean.queuing.mean,
            faulted.queuing.mean
        );
    }
}

/// A uniformly faster fleet never lengthens mean JCT or completes
/// fewer jobs (speed-factor monotonicity over the scenario zoo's
/// heterogeneous dimension).
#[test]
fn faster_fleet_never_worsens_mean_jct() {
    for seed in SEEDS {
        let scenario = tiny_basic(seed);
        let (jobs, inference) = tiny_traces(seed);
        props::check_speed_factor_monotonicity(
            &scenario,
            &jobs,
            &inference,
            SpeedFactors { v100: 0.8, t4: 0.8 },
            SpeedFactors {
                v100: 1.25,
                t4: 1.25,
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Costlier shrink/expand never shortens mean JCT on the same
/// malleable trace (resize-cost monotonicity).
#[test]
fn costlier_resizes_never_shorten_mean_jct() {
    for seed in SEEDS {
        let scenario = tiny_basic(seed);
        let (mut jobs, inference) = tiny_traces(seed);
        transform::set_elastic_fraction(&mut jobs, 0.7, seed ^ 1);
        props::check_shrink_cost_monotonicity(
            &scenario,
            &jobs,
            &inference,
            (0.0, 0.0),
            (120.0, 180.0),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Stretching every deadline never creates new misses, and — because
/// deadlines never influence scheduling — leaves the schedule itself
/// bit-identical (deadline-slack monotonicity, exact).
#[test]
fn slacker_deadlines_never_miss_more() {
    for seed in SEEDS {
        let scenario = tiny_basic(seed);
        let (jobs, inference) = tiny_traces(seed);
        props::check_deadline_slack_monotonicity(&scenario, &jobs, &inference, 0.5, 3.0, seed ^ 1)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Permuting the submission order of jobs that arrive at the same tick
/// leaves the report invariant: the scheduler's behaviour depends on
/// (time, id), never on trace-vector position.
#[test]
fn same_tick_arrival_order_is_irrelevant() {
    for seed in SEEDS {
        let scenario = tiny_basic(seed);
        let (mut jobs, inference) = tiny_traces(seed);
        // Quantise submissions onto 10-minute ticks so ties exist.
        for j in &mut jobs.jobs {
            j.submit_time_s = (j.submit_time_s / 600.0).floor() * 600.0;
        }
        let base = run_scenario(&scenario, &jobs, &inference).expect("run");

        // Reverse every maximal run of equal submit times.
        let mut permuted = jobs.clone();
        let mut i = 0;
        let mut ties = 0usize;
        while i < permuted.jobs.len() {
            let mut k = i + 1;
            while k < permuted.jobs.len()
                && permuted.jobs[k].submit_time_s == permuted.jobs[i].submit_time_s
            {
                k += 1;
            }
            if k - i > 1 {
                permuted.jobs[i..k].reverse();
                ties += 1;
            }
            i = k;
        }
        assert!(ties > 0, "seed {seed}: quantisation produced no ties");
        let perm = run_scenario(&scenario, &permuted, &inference).expect("run");

        let sorted = |r: &SimReport| {
            let mut recs = r.records.clone();
            recs.sort_by_key(|rec| rec.id);
            recs
        };
        assert_eq!(
            sorted(&base),
            sorted(&perm),
            "seed {seed}: per-job records changed under a same-tick permutation"
        );
        assert_eq!(base.queuing, perm.queuing, "seed {seed}: queuing stats moved");
        assert_eq!(base.jct, perm.jct, "seed {seed}: JCT stats moved");
        assert_eq!(
            (base.completed, base.loan_ops, base.reclaim_ops, base.scaling_ops),
            (perm.completed, perm.loan_ops, perm.reclaim_ops, perm.scaling_ops),
            "seed {seed}: operation counts moved"
        );
    }
}
