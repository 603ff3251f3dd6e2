//! The headline results: Table 5, Figures 7, 8 and 11, Table 6.

use crate::tables::{render, render_series, table5_header, table5_row};
use crate::{reduction, run_at, ExperimentResult, Scale};
use lyra_cluster::orchestrator::ReclaimPolicy;
use lyra_sim::{transform, Scenario, SimReport};
use lyra_trace::JobTrace;

/// Table 5: the 14 scenario × scheme rows, run on worker threads.
pub fn tab5(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(5);

    // Scenario-specific traces.
    let mut advanced_jobs = base_jobs.clone();
    transform::add_hetero_fraction(&mut advanced_jobs, 0.10, 55);
    let mut hetero_jobs = base_jobs.clone();
    transform::heterogeneous_only(&mut hetero_jobs, 0.10, 56);
    let mut ideal_jobs = base_jobs.clone();
    transform::idealize(&mut ideal_jobs);

    let named = |name: &str| {
        let mut s = Scenario::basic();
        s.name = name.into();
        s
    };
    // (label, scenario, trace, reports "Overall/Preempt" columns apply)
    let rows_spec: Vec<(&str, Scenario, &JobTrace, bool)> = vec![
        ("Baseline", Scenario::baseline(), &base_jobs, true),
        ("Basic", Scenario::basic(), &base_jobs, true),
        ("Advanced", named("advanced"), &advanced_jobs, true),
        ("Heterogeneous", named("heterogeneous"), &hetero_jobs, true),
        ("Ideal", Scenario::ideal(), &ideal_jobs, true),
        ("Opportunity", Scenario::opportunistic(), &base_jobs, true),
        (
            "Random",
            Scenario::loaning_only(ReclaimPolicy::Random, "loan-random"),
            &base_jobs,
            true,
        ),
        (
            "SCF",
            Scenario::loaning_only(ReclaimPolicy::Scf, "loan-scf"),
            &base_jobs,
            true,
        ),
        (
            "Lyra (loaning)",
            Scenario::loaning_only(ReclaimPolicy::Lyra, "loan-lyra"),
            &base_jobs,
            true,
        ),
        (
            "Gandiva",
            Scenario::elastic_only("gandiva", "gandiva"),
            &base_jobs,
            false,
        ),
        (
            "AFS",
            Scenario::elastic_only("afs", "afs"),
            &base_jobs,
            false,
        ),
        (
            "Pollux",
            Scenario::elastic_only("pollux", "pollux"),
            &base_jobs,
            false,
        ),
        (
            "Lyra (scaling)",
            Scenario::elastic_only("lyra", "lyra-scaling"),
            &base_jobs,
            false,
        ),
        ("Lyra+TunedJobs", Scenario::lyra_tuned(), &base_jobs, false),
    ];

    let loaning_flags: Vec<bool> = rows_spec.iter().map(|(_, _, _, l)| *l).collect();
    let tasks: Vec<(String, _)> = rows_spec
        .into_iter()
        .map(|(label, scenario, jobs, _)| {
            let inference = &inference;
            (label.to_string(), move || {
                run_at(scenario, scale, jobs, inference)
            })
        })
        .collect();
    let reports = crate::run_parallel(tasks);

    let mut rows = vec![table5_header()];
    for ((label, r), loaning) in reports.iter().zip(&loaning_flags) {
        rows.push(table5_row(label, r, *loaning));
    }
    lyra_obs::emitln!("Table 5: simulation results");
    lyra_obs::emitln!("{}", render(&rows));

    let baseline = &reports[0].1;
    let basic = &reports[1].1;
    lyra_obs::emitln!(
        "Basic vs Baseline: queuing reduction {:.2}x, JCT reduction {:.2}x, \
         overall usage {:.0}% → {:.0}%",
        reduction(baseline.queuing.mean, basic.queuing.mean),
        reduction(baseline.jct.mean, basic.jct.mean),
        baseline.overall_usage * 100.0,
        basic.overall_usage * 100.0,
    );

    let mut res = ExperimentResult::new("tab5", scale);
    for (_, r) in reports {
        res.reports.push(r);
    }
    res
}

/// The headline rows only (Baseline, Basic, loaning-only, scaling-only)
/// — cheap enough to run at `--full` scale for the paper's main claims.
pub fn headline(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(5);
    let reports: Vec<(String, SimReport)> = vec![
        (
            "Baseline".into(),
            run_at(Scenario::baseline(), scale, &base_jobs, &inference),
        ),
        (
            "Basic".into(),
            run_at(Scenario::basic(), scale, &base_jobs, &inference),
        ),
        (
            "Lyra (loaning)".into(),
            run_at(
                Scenario::loaning_only(
                    lyra_cluster::orchestrator::ReclaimPolicy::Lyra,
                    "loan-lyra",
                ),
                scale,
                &base_jobs,
                &inference,
            ),
        ),
        (
            "Lyra (scaling)".into(),
            run_at(
                Scenario::elastic_only("lyra", "lyra-scaling"),
                scale,
                &base_jobs,
                &inference,
            ),
        ),
    ];
    let mut rows = vec![table5_header()];
    for (label, r) in &reports {
        rows.push(table5_row(label, r, true));
    }
    lyra_obs::emitln!("Headline rows (Table 5 subset)");
    lyra_obs::emitln!("{}", render(&rows));
    let baseline = &reports[0].1;
    for (label, r) in &reports[1..] {
        lyra_obs::emitln!(
            "{label}: queuing {:.2}x, JCT {:.2}x over Baseline",
            reduction(baseline.queuing.mean, r.queuing.mean),
            reduction(baseline.jct.mean, r.jct.mean),
        );
    }
    let mut res = ExperimentResult::new("headline", scale);
    for (_, r) in reports {
        res.reports.push(r);
    }
    res
}

/// Figure 7: hourly combined usage for 48 hours, Baseline vs Basic vs
/// Ideal.
pub fn fig7(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(7);
    let mut ideal_jobs = base_jobs.clone();
    transform::idealize(&mut ideal_jobs);
    let baseline = run_at(Scenario::baseline(), scale, &base_jobs, &inference);
    let basic = run_at(Scenario::basic(), scale, &base_jobs, &inference);
    let ideal = run_at(Scenario::ideal(), scale, &ideal_jobs, &inference);
    let hours = 48.min(baseline.hourly_overall_usage.len());
    let xs: Vec<f64> = (0..hours).map(|h| h as f64).collect();
    let mut res = ExperimentResult::new("fig7", scale);
    for (label, r) in [
        ("Baseline", &baseline),
        ("Basic", &basic),
        ("Ideal", &ideal),
    ] {
        let ys: Vec<f64> = r.hourly_overall_usage.iter().take(hours).copied().collect();
        lyra_obs::emitln!(
            "{}",
            render_series(
                &format!("Figure 7: {label} hourly combined usage"),
                &xs,
                &ys
            )
        );
        res.series.push((label.to_string(), ys));
    }
    res.reports = vec![baseline, basic, ideal];
    res
}

/// Figure 8: queuing/JCT reductions over Baseline under imperfect
/// (per-worker-loss) scaling, Basic and Ideal.
pub fn fig8(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(8);
    let baseline = run_at(Scenario::baseline(), scale, &base_jobs, &inference);

    let mut basic_jobs = base_jobs.clone();
    transform::imperfect_scaling(&mut basic_jobs, 0.2);
    let basic = run_at(Scenario::basic(), scale, &basic_jobs, &inference);

    let mut ideal_jobs = base_jobs.clone();
    transform::idealize(&mut ideal_jobs);
    transform::imperfect_scaling(&mut ideal_jobs, 0.2);
    let ideal = run_at(Scenario::ideal(), scale, &ideal_jobs, &inference);

    let mut rows = vec![vec![
        "Scenario".to_string(),
        "Queuing reduction".to_string(),
        "JCT reduction".to_string(),
    ]];
    let mut res = ExperimentResult::new("fig8", scale);
    for (label, r) in [("Basic", &basic), ("Ideal", &ideal)] {
        let q = reduction(baseline.queuing.mean, r.queuing.mean);
        let j = reduction(baseline.jct.mean, r.jct.mean);
        rows.push(vec![
            label.to_string(),
            format!("{q:.2}x"),
            format!("{j:.2}x"),
        ]);
        res.series.push((label.to_string(), vec![q, j]));
    }
    lyra_obs::emitln!("Figure 8: gains over Baseline with non-linear scaling (20% per-worker loss)");
    lyra_obs::emitln!("{}", render(&rows));
    res.reports = vec![baseline, basic, ideal];
    res
}

/// Table 6: Lyra without the special placement of elastic jobs.
pub fn tab6(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(6);
    let mut advanced_jobs = base_jobs.clone();
    transform::add_hetero_fraction(&mut advanced_jobs, 0.10, 65);
    let mut ideal_jobs = base_jobs.clone();
    transform::idealize(&mut ideal_jobs);

    let naive = |name: &str| {
        let mut s = Scenario::basic();
        s.policy = "lyra-naive-placement".to_string();
        s.name = name.into();
        s
    };
    let mut ideal_naive = naive("ideal-naive");
    ideal_naive.sim.hetero_efficiency = 1.0;

    let rows_data = vec![
        (
            "Basic",
            run_at(naive("basic-naive"), scale, &base_jobs, &inference),
        ),
        (
            "Advanced",
            run_at(naive("advanced-naive"), scale, &advanced_jobs, &inference),
        ),
        ("Ideal", run_at(ideal_naive, scale, &ideal_jobs, &inference)),
    ];
    let mut rows = vec![vec![
        "Scenario".to_string(),
        "Avg queuing (s)".to_string(),
        "Avg JCT (s)".to_string(),
        "Preemption ratio".to_string(),
    ]];
    let mut res = ExperimentResult::new("tab6", scale);
    for (label, r) in rows_data {
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", r.queuing.mean),
            format!("{:.0}", r.jct.mean),
            format!("{:.2}%", r.preemption_ratio * 100.0),
        ]);
        res.reports.push(r);
    }
    lyra_obs::emitln!("Table 6: naive BFD placement (no special elastic treatment)");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

/// Figure 11: sweeping the heterogeneous-job fraction in the
/// Heterogeneous scenario.
pub fn fig11(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(11);
    let baseline = run_at(Scenario::baseline(), scale, &base_jobs, &inference);
    let mut res = ExperimentResult::new("fig11", scale);
    let mut qs = Vec::new();
    let mut js = Vec::new();
    let fractions = [0.10, 0.30, 0.50, 0.70, 0.90];
    for &f in &fractions {
        let mut jobs = base_jobs.clone();
        transform::heterogeneous_only(&mut jobs, f, 110 + (f * 100.0) as u64);
        let mut s = Scenario::basic();
        s.name = format!("hetero-{:.0}", f * 100.0);
        let r = run_at(s, scale, &jobs, &inference);
        qs.push(reduction(baseline.queuing.mean, r.queuing.mean));
        js.push(reduction(baseline.jct.mean, r.jct.mean));
        res.reports.push(r);
    }
    let xs: Vec<f64> = fractions.iter().map(|f| f * 100.0).collect();
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 11: queuing reduction vs % hetero jobs", &xs, &qs)
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 11: JCT reduction vs % hetero jobs", &xs, &js)
    );
    res.series.push(("queuing_reduction".into(), qs));
    res.series.push(("jct_reduction".into(), js));
    res
}
