//! The testbed experiments of §7.5 (Table 10 and Figure 17): the same
//! engine at the prototype's scale — 4 training + 4 inference 8-GPU
//! servers, 180 jobs (10 elastic) submitted over 8 hours.

use crate::tables::{render, table5_header, table5_row};
use crate::{reduction, ExperimentResult};
use lyra_cluster::orchestrator::ReclaimPolicy;
use lyra_cluster::state::ClusterConfig;
use lyra_sim::{run_scenario, Scenario, SimReport};
use lyra_trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};

fn testbed_traces(seed: u64) -> (JobTrace, InferenceTrace) {
    let jobs = JobTrace::generate(TraceConfig::testbed(seed));
    // The paper scales the inference trace down to testbed capacity; a
    // deeper trough lets the 4-server inference side lend up to 3 servers
    // (§7.5 observes at most three on loan).
    let inference = InferenceTrace::generate(InferenceTraceConfig {
        days: 3,
        total_gpus: 32,
        trough: 0.12,
        peak: 0.85,
        noise: 0.06,
        burst_prob: 0.10,
        burst_mean: 0.08,
        seed: seed ^ 0xBEEF,
    });
    (jobs, inference)
}

fn run(mut scenario: Scenario, jobs: &JobTrace, inf: &InferenceTrace) -> SimReport {
    scenario.cluster = ClusterConfig::testbed();
    run_scenario(&scenario, jobs, inf).expect("testbed scenario completes")
}

/// Table 10: testbed results — Overall (Baseline vs Lyra), capacity
/// loaning (Random/SCF/Lyra) and elastic scaling
/// (Gandiva/AFS/Pollux/Lyra).
pub fn tab10() -> ExperimentResult {
    let (jobs, inference) = testbed_traces(0x7B);
    let mut res = ExperimentResult::new("tab10", "Testbed");
    let mut rows = vec![table5_header()];

    let baseline = run(Scenario::baseline(), &jobs, &inference);
    let lyra = run(Scenario::basic(), &jobs, &inference);
    rows.push(table5_row("Baseline", &baseline, true));
    rows.push(table5_row("Lyra", &lyra, true));
    lyra_obs::emitln!(
        "Overall: queuing {:.2}x, JCT mean {:.2}x over Baseline",
        reduction(baseline.queuing.mean, lyra.queuing.mean),
        reduction(baseline.jct.mean, lyra.jct.mean),
    );
    lyra_obs::emitln!(
        "loan ops {}, reclaim ops {}, scaling ops {}",
        lyra.loan_ops, lyra.reclaim_ops, lyra.scaling_ops
    );
    res.reports.push(baseline);
    res.reports.push(lyra);

    for policy in [
        ReclaimPolicy::Random,
        ReclaimPolicy::Scf,
        ReclaimPolicy::Lyra,
    ] {
        let r = run(
            Scenario::loaning_only(policy, &format!("testbed-{policy:?}")),
            &jobs,
            &inference,
        );
        rows.push(table5_row(&format!("{policy:?} (loaning)"), &r, true));
        res.reports.push(r);
    }
    for (label, kind) in [
        ("Gandiva", "gandiva"),
        ("AFS", "afs"),
        ("Pollux", "pollux"),
        ("Lyra (scaling)", "lyra"),
    ] {
        let r = run(
            Scenario::elastic_only(kind, &format!("testbed-{label}")),
            &jobs,
            &inference,
        );
        rows.push(table5_row(label, &r, false));
        res.reports.push(r);
    }
    lyra_obs::emitln!("Table 10: testbed results (Basic scenario)");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

/// Figure 17: testbed preemption count and collateral damage per
/// reclaiming scheme, with and without scaling.
pub fn fig17() -> ExperimentResult {
    let (jobs, inference) = testbed_traces(0x17);
    let mut res = ExperimentResult::new("fig17", "Testbed");
    let mut rows = vec![vec![
        "Scheme".to_string(),
        "Scaling".to_string(),
        "Preemption ratio".to_string(),
        "Collateral damage".to_string(),
    ]];
    for (scaling, label) in [(false, "disabled"), (true, "enabled")] {
        for policy in [
            ReclaimPolicy::Random,
            ReclaimPolicy::Scf,
            ReclaimPolicy::Lyra,
        ] {
            let scenario = if scaling {
                let mut s = Scenario::basic();
                s.loaning = Some(policy);
                s.name = format!("fig17-{policy:?}-scaled");
                s
            } else {
                Scenario::loaning_only(policy, &format!("fig17-{policy:?}"))
            };
            let r = run(scenario, &jobs, &inference);
            rows.push(vec![
                format!("{policy:?}"),
                label.to_string(),
                format!("{:.2}%", r.preemption_ratio * 100.0),
                format!("{:.1}%", r.collateral_damage * 100.0),
            ]);
            res.series.push((
                format!("{policy:?}-{label}"),
                vec![r.preemption_ratio, r.collateral_damage],
            ));
            res.reports.push(r);
        }
    }
    lyra_obs::emitln!("Figure 17: testbed preemption and collateral damage");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_traces_match_paper_shape() {
        let (jobs, inf) = testbed_traces(1);
        assert_eq!(jobs.jobs.len(), 180);
        assert_eq!(inf.config.total_gpus, 32);
    }
}
