//! Extension experiments beyond the paper's evaluation, covering its §8
//! discussion points and the future work named in §10:
//!
//! * `ext-las` — information-agnostic scheduling: Lyra with Tiresias-style
//!   least-attained-service phase-1 ordering (no running-time estimates)
//!   against SJF with perfect and badly wrong estimates.
//! * `ext-phase2` — the knapsack vs a greedy marginal-gain phase 2 (the
//!   design choice §2.3 argues for).
//! * `ext-predictor` — the §6 LSTM predictor's effect: reclaiming in
//!   advance of predicted traffic vs purely reactive reclaiming.
//! * `ext-costmodel` — end-to-end impact of the three preemption-cost
//!   definitions of Table 1.
//! * `ext-granularity` — §8's fine-grained sharing: the same GPU capacity
//!   loaned in 8-, 4- and 2-GPU units.

use crate::tables::render;
use crate::{reduction, run_at, ExperimentResult, Scale};
use lyra_cluster::orchestrator::ReclaimPolicy;
use lyra_cluster::state::ClusterConfig;
use lyra_sim::{run_scenario, Scenario};

/// Information-agnostic scheduling (§10's future work): LAS ordering needs
/// no estimates at all; compare against SJF with perfect and 60 %-wrong
/// estimates.
pub fn ext_las(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(0xA5);
    let baseline = run_at(Scenario::baseline(), scale, &jobs, &inference);
    let sjf = run_at(
        Scenario::elastic_only("lyra", "lyra-sjf"),
        scale,
        &jobs,
        &inference,
    );
    let mut sjf_wrong = Scenario::elastic_only("lyra", "lyra-sjf-wrong");
    sjf_wrong.estimator.wrong_fraction = 0.6;
    let sjf_wrong = run_at(sjf_wrong, scale, &jobs, &inference);
    let las = run_at(
        Scenario::elastic_only("lyra-las", "lyra-las"),
        scale,
        &jobs,
        &inference,
    );
    let mut rows = vec![vec![
        "Variant".to_string(),
        "Estimates".to_string(),
        "QT mean".to_string(),
        "JCT mean".to_string(),
        "QT reduction".to_string(),
        "JCT reduction".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-las", scale);
    for (label, est, r) in [
        ("Lyra (SJF)", "perfect", &sjf),
        ("Lyra (SJF)", "60% wrong", &sjf_wrong),
        ("Lyra (LAS)", "none needed", &las),
    ] {
        rows.push(vec![
            label.to_string(),
            est.to_string(),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.jct.mean),
            format!("{:.2}x", reduction(baseline.queuing.mean, r.queuing.mean)),
            format!("{:.2}x", reduction(baseline.jct.mean, r.jct.mean)),
        ]);
        res.series
            .push((format!("{label}/{est}"), vec![r.queuing.mean, r.jct.mean]));
    }
    lyra_obs::emitln!("Extension: information-agnostic phase 1 (LAS) vs SJF");
    lyra_obs::emitln!("{}", render(&rows));
    res.reports = vec![baseline, sjf, sjf_wrong, las];
    res
}

/// Knapsack vs greedy phase 2 (§2.3's "globally good allocation decisions
/// … outperform greedy local heuristics").
pub fn ext_phase2(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(0xF2);
    let mckp = run_at(
        Scenario::elastic_only("lyra", "phase2-mckp"),
        scale,
        &jobs,
        &inference,
    );
    let greedy = run_at(
        Scenario::elastic_only("lyra-greedy-phase2", "phase2-greedy"),
        scale,
        &jobs,
        &inference,
    );
    let mut rows = vec![vec![
        "Phase-2 solver".to_string(),
        "QT mean".to_string(),
        "JCT mean".to_string(),
        "JCT p95".to_string(),
        "Scaling ops".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-phase2", scale);
    for (label, r) in [("MCKP (Lyra)", &mckp), ("Greedy", &greedy)] {
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.jct.mean),
            format!("{:.0}", r.jct.p95),
            r.scaling_ops.to_string(),
        ]);
        res.series
            .push((label.to_string(), vec![r.queuing.mean, r.jct.mean]));
    }
    lyra_obs::emitln!("Extension: phase-2 solver ablation");
    lyra_obs::emitln!("{}", render(&rows));
    res.reports = vec![mckp, greedy];
    res
}

/// The §6 LSTM predictor: reclaim in advance of predicted traffic.
pub fn ext_predictor(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(0xED);
    let reactive = run_at(
        Scenario::loaning_only(ReclaimPolicy::Lyra, "reactive"),
        scale,
        &jobs,
        &inference,
    );
    let mut predictive = Scenario::loaning_only(ReclaimPolicy::Lyra, "predictive");
    predictive.use_predictor = true;
    let predictive = run_at(predictive, scale, &jobs, &inference);
    let mut rows = vec![vec![
        "Reclaiming".to_string(),
        "QT mean".to_string(),
        "JCT mean".to_string(),
        "Preemption".to_string(),
        "Reclaim ops".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-predictor", scale);
    for (label, r) in [("reactive", &reactive), ("LSTM-predictive", &predictive)] {
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.jct.mean),
            format!("{:.2}%", r.preemption_ratio * 100.0),
            r.reclaim_ops.to_string(),
        ]);
        res.series.push((
            label.to_string(),
            vec![r.queuing.mean, r.jct.mean, r.preemption_ratio],
        ));
    }
    lyra_obs::emitln!("Extension: LSTM-predictive vs reactive reclaiming (§6)");
    lyra_obs::emitln!("{}", render(&rows));
    res.reports = vec![reactive, predictive];
    res
}

/// End-to-end comparison of Table 1's three cost definitions.
pub fn ext_costmodel(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(0xC0);
    let mut rows = vec![vec![
        "Cost model".to_string(),
        "Preemption".to_string(),
        "Collateral".to_string(),
        "QT mean".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-costmodel", scale);
    for (label, policy) in [
        ("server fraction (Lyra)", ReclaimPolicy::Lyra),
        ("GPU fraction", ReclaimPolicy::GpuFraction),
        ("job count (SCF)", ReclaimPolicy::Scf),
    ] {
        let r = run_at(
            Scenario::loaning_only(policy, &format!("cost-{label}")),
            scale,
            &jobs,
            &inference,
        );
        rows.push(vec![
            label.to_string(),
            format!("{:.2}%", r.preemption_ratio * 100.0),
            format!("{:.1}%", r.collateral_damage * 100.0),
            format!("{:.0}", r.queuing.mean),
        ]);
        res.series.push((
            label.to_string(),
            vec![r.preemption_ratio, r.collateral_damage],
        ));
        res.reports.push(r);
    }
    lyra_obs::emitln!("Extension: preemption-cost definitions end-to-end (Table 1)");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

/// The Erlang-C latency model vs proportional busy-GPU capacity targets:
/// how much loanable capacity a principled SLO model gives up or gains.
pub fn ext_slo(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(0x510);
    let proportional = run_at(
        Scenario::loaning_only(ReclaimPolicy::Lyra, "proportional"),
        scale,
        &jobs,
        &inference,
    );
    let mut s = Scenario::loaning_only(ReclaimPolicy::Lyra, "erlang-c");
    s.use_capacity_model = true;
    let erlang = run_at(s, scale, &jobs, &inference);
    let mut rows = vec![vec![
        "Capacity target".to_string(),
        "QT mean".to_string(),
        "JCT mean".to_string(),
        "Preemption".to_string(),
        "Loan ops".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-slo", scale);
    for (label, r) in [
        ("proportional busy GPUs", &proportional),
        ("Erlang-C mean-wait SLO", &erlang),
    ] {
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.jct.mean),
            format!("{:.2}%", r.preemption_ratio * 100.0),
            r.loan_ops.to_string(),
        ]);
        res.series.push((
            label.to_string(),
            vec![r.queuing.mean, r.jct.mean, r.preemption_ratio],
        ));
    }
    lyra_obs::emitln!("Extension: inference capacity target model (§4's assumption)");
    lyra_obs::emitln!("{}", render(&rows));
    res.reports = vec![proportional, erlang];
    res
}

/// Scheduling-cadence ablation: §3 runs the job scheduler "in a much
/// smaller interval than the orchestrator" — sweep the epoch length to
/// show why.
pub fn ext_interval(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(0x1E);
    let mut rows = vec![vec![
        "Epoch (s)".to_string(),
        "QT mean".to_string(),
        "QT p50".to_string(),
        "JCT mean".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-interval", scale);
    for interval in [30.0, 60.0, 120.0, 300.0, 600.0] {
        let mut s = Scenario::basic();
        s.name = format!("epoch-{interval}");
        s.sim.scheduler_interval_s = interval;
        let r = run_at(s, scale, &jobs, &inference);
        rows.push(vec![
            format!("{interval:.0}"),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.queuing.p50),
            format!("{:.0}", r.jct.mean),
        ]);
        res.series.push((
            format!("epoch-{interval}"),
            vec![r.queuing.mean, r.jct.mean],
        ));
        res.reports.push(r);
    }
    lyra_obs::emitln!("Extension: scheduler epoch length (§3's cadence choice)");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

/// §8's fine-grained sharing: loan the same GPU capacity in smaller
/// units.
pub fn ext_granularity(scale: Scale) -> ExperimentResult {
    let (train, inf_servers) = scale.servers();
    let (jobs, inference) = scale.traces(0x64);
    let mut rows = vec![vec![
        "Loan unit".to_string(),
        "QT mean".to_string(),
        "JCT mean".to_string(),
        "Preemption".to_string(),
        "Collateral".to_string(),
    ]];
    let mut res = ExperimentResult::new("ext-granularity", scale);
    for unit in [8u32, 4, 2] {
        let factor = 8 / unit;
        let mut s = Scenario::basic();
        s.name = format!("unit-{unit}");
        s.cluster = ClusterConfig {
            training_servers: train * factor,
            inference_servers: inf_servers * factor,
            gpus_per_server: unit,
            speed: lyra_core::gpu::SpeedFactors::default(),
        };
        // The job mix must still fit the smaller units: per-worker demand
        // above the unit cannot gang onto one server... placement spans
        // servers, so only gpus_per_worker > unit jobs become infeasible;
        // clamp them.
        let mut jobs = jobs.clone();
        for j in &mut jobs.jobs {
            if j.gpus_per_worker > unit {
                // Preserve the GPU footprint with more, smaller workers.
                let ratio = j.gpus_per_worker / unit;
                j.demand *= ratio;
                if let Some(e) = j.elasticity {
                    j.elasticity =
                        Some(lyra_core::Elasticity::new(e.w_min * ratio, e.w_max * ratio));
                }
                j.gpus_per_worker = unit;
            }
        }
        let r = run_scenario(&s, &jobs, &inference).expect("granularity scenario");
        rows.push(vec![
            format!("{unit} GPUs"),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.jct.mean),
            format!("{:.2}%", r.preemption_ratio * 100.0),
            format!("{:.1}%", r.collateral_damage * 100.0),
        ]);
        res.series.push((
            format!("unit-{unit}"),
            vec![
                r.queuing.mean,
                r.jct.mean,
                r.preemption_ratio,
                r.collateral_damage,
            ],
        ));
        res.reports.push(r);
    }
    lyra_obs::emitln!("Extension: loaning granularity (§8's fine-grained sharing)");
    lyra_obs::emitln!("{}", render(&rows));
    res
}
