//! Job-scheduling deep dive: Tables 8 and 9, Figures 12, 14–16.

use crate::tables::{render, render_series, table8_header, table8_row};
use crate::{reduction, run_at, ExperimentResult, Scale};
use lyra_predictor::RuntimeEstimatorConfig;
use lyra_sim::{transform, Scenario};
use lyra_trace::bootstrap_trace;

/// The elastic-scaling scheme set of §7.4.
fn schemes() -> Vec<(&'static str, Scenario)> {
    vec![
        ("Baseline", Scenario::baseline()),
        (
            "Gandiva",
            Scenario::elastic_only("gandiva", "gandiva"),
        ),
        ("AFS", Scenario::elastic_only("afs", "afs")),
        (
            "Pollux",
            Scenario::elastic_only("pollux", "pollux"),
        ),
        ("Lyra", Scenario::elastic_only("lyra", "lyra")),
        ("Lyra+TunedJobs", Scenario::lyra_tuned()),
    ]
}

/// Table 8: queuing and JCT percentiles for every job-scheduling scheme
/// (Basic, no loaning).
pub fn tab8(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(80);
    let mut rows = vec![table8_header()];
    let mut res = ExperimentResult::new("tab8", scale);
    for (label, scenario) in schemes() {
        let r = run_at(scenario, scale, &jobs, &inference);
        rows.push(table8_row(label, &r));
        res.reports.push(r);
    }
    lyra_obs::emitln!("Table 8: queuing time and JCT percentiles (Basic)");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

/// Table 9: Lyra's gains under running-time misprediction.
pub fn tab9(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(90);
    let baseline = run_at(Scenario::baseline(), scale, &jobs, &inference);
    let mut rows = vec![vec![
        "% wrong".to_string(),
        "Queuing reduction".to_string(),
        "JCT reduction".to_string(),
    ]];
    let mut res = ExperimentResult::new("tab9", scale);
    for wrong in [0.0, 0.2, 0.4, 0.6] {
        let mut s = Scenario::basic();
        s.name = format!("wrong-{:.0}", wrong * 100.0);
        s.estimator = RuntimeEstimatorConfig {
            wrong_fraction: wrong,
            max_error: 0.25,
            seed: 0x79 + (wrong * 100.0) as u64,
        };
        let r = run_at(s, scale, &jobs, &inference);
        let q = reduction(baseline.queuing.mean, r.queuing.mean);
        let j = reduction(baseline.jct.mean, r.jct.mean);
        rows.push(vec![
            format!("{:.0}%", wrong * 100.0),
            format!("{q:.2}"),
            format!("{j:.2}"),
        ]);
        res.series.push((format!("wrong-{wrong}"), vec![q, j]));
        res.reports.push(r);
    }
    lyra_obs::emitln!("Table 9: sensitivity to running-time estimation error (≤25% margin)");
    lyra_obs::emitln!("{}", render(&rows));
    res.reports.push(baseline);
    res
}

/// Figures 14–15: queuing and JCT reductions over Baseline as the elastic
/// fraction grows from 20% to 100%.
pub fn fig1415(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(1415);
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut res = ExperimentResult::new("fig1415", scale);
    let mut table = vec![{
        let mut h = vec!["Scheme".to_string()];
        for f in &fractions {
            h.push(format!("{:.0}% Q", f * 100.0));
        }
        for f in &fractions {
            h.push(format!("{:.0}% J", f * 100.0));
        }
        h
    }];
    for (label, scenario) in schemes() {
        if label == "Baseline" {
            continue;
        }
        let mut qrow = Vec::new();
        let mut jrow = Vec::new();
        for (fi, &f) in fractions.iter().enumerate() {
            let mut jobs = base_jobs.clone();
            transform::set_elastic_fraction(&mut jobs, f, 1400 + fi as u64);
            let baseline = run_at(Scenario::baseline(), scale, &jobs, &inference);
            let mut s = scenario.clone();
            s.name = format!("{label}-elastic-{:.0}", f * 100.0);
            let r = run_at(s, scale, &jobs, &inference);
            qrow.push(reduction(baseline.queuing.mean, r.queuing.mean));
            jrow.push(reduction(baseline.jct.mean, r.jct.mean));
        }
        let mut row = vec![label.to_string()];
        row.extend(qrow.iter().map(|v| format!("{v:.2}")));
        row.extend(jrow.iter().map(|v| format!("{v:.2}")));
        table.push(row);
        res.series.push((format!("{label}-queuing"), qrow));
        res.series.push((format!("{label}-jct"), jrow));
    }
    lyra_obs::emitln!("Figures 14-15: reductions over Baseline vs % elastic jobs");
    lyra_obs::emitln!("{}", render(&table));
    res
}

/// Figure 16: Lyra under non-linear scaling as the elastic fraction
/// grows; dots = linear scaling reference.
pub fn fig16(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(16);
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut res = ExperimentResult::new("fig16", scale);
    let mut linear_j = Vec::new();
    let mut lossy_j = Vec::new();
    let mut linear_q = Vec::new();
    let mut lossy_q = Vec::new();
    for (fi, &f) in fractions.iter().enumerate() {
        let mut jobs = base_jobs.clone();
        transform::set_elastic_fraction(&mut jobs, f, 1600 + fi as u64);
        let baseline = run_at(Scenario::baseline(), scale, &jobs, &inference);
        let lyra = Scenario::elastic_only("lyra", "lyra-linear");
        let r_lin = run_at(lyra, scale, &jobs, &inference);
        let mut lossy_jobs = jobs.clone();
        transform::imperfect_scaling(&mut lossy_jobs, 0.2);
        let lyra = Scenario::elastic_only("lyra", "lyra-lossy");
        let r_loss = run_at(lyra, scale, &lossy_jobs, &inference);
        linear_j.push(reduction(baseline.jct.mean, r_lin.jct.mean));
        lossy_j.push(reduction(baseline.jct.mean, r_loss.jct.mean));
        linear_q.push(reduction(baseline.queuing.mean, r_lin.queuing.mean));
        lossy_q.push(reduction(baseline.queuing.mean, r_loss.queuing.mean));
    }
    let xs: Vec<f64> = fractions.iter().map(|f| f * 100.0).collect();
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 16: JCT reduction, linear scaling", &xs, &linear_j)
    );
    lyra_obs::emitln!(
        "{}",
        render_series(
            "Figure 16: JCT reduction, 20% per-worker loss",
            &xs,
            &lossy_j
        )
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 16: queuing reduction, linear", &xs, &linear_q)
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 16: queuing reduction, lossy", &xs, &lossy_q)
    );
    res.series.push(("linear_jct".into(), linear_j));
    res.series.push(("lossy_jct".into(), lossy_j));
    res.series.push(("linear_queuing".into(), linear_q));
    res.series.push(("lossy_queuing".into(), lossy_q));
    res
}

/// Figure 12: ten bootstrapped shorter traces, Basic and Ideal gains over
/// their own Baselines.
pub fn fig12(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(12);
    let resample_days = (scale.days() * 2 / 3).max(1);
    let mut res = ExperimentResult::new("fig12", scale);
    let mut basic_q = Vec::new();
    let mut basic_j = Vec::new();
    let mut ideal_q = Vec::new();
    let mut ideal_j = Vec::new();
    for seed in 0..10u64 {
        let jobs = bootstrap_trace(&base_jobs, resample_days, seed);
        let baseline = run_at(Scenario::baseline(), scale, &jobs, &inference);
        let basic = run_at(Scenario::basic(), scale, &jobs, &inference);
        let mut ideal_jobs = jobs.clone();
        transform::idealize(&mut ideal_jobs);
        let ideal = run_at(Scenario::ideal(), scale, &ideal_jobs, &inference);
        basic_q.push(reduction(baseline.queuing.mean, basic.queuing.mean));
        basic_j.push(reduction(baseline.jct.mean, basic.jct.mean));
        ideal_q.push(reduction(baseline.queuing.mean, ideal.queuing.mean));
        ideal_j.push(reduction(baseline.jct.mean, ideal.jct.mean));
    }
    let xs: Vec<f64> = (0..10).map(f64::from).collect();
    lyra_obs::emitln!(
        "{}",
        render_series(
            "Figure 12: Basic queuing reduction per trace",
            &xs,
            &basic_q
        )
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 12: Basic JCT reduction per trace", &xs, &basic_j)
    );
    lyra_obs::emitln!(
        "{}",
        render_series(
            "Figure 12: Ideal queuing reduction per trace",
            &xs,
            &ideal_q
        )
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 12: Ideal JCT reduction per trace", &xs, &ideal_j)
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    lyra_obs::emitln!(
        "means: Basic {:.2}x/{:.2}x, Ideal {:.2}x/{:.2}x (queuing/JCT)",
        mean(&basic_q),
        mean(&basic_j),
        mean(&ideal_q),
        mean(&ideal_j),
    );
    res.series.push(("basic_queuing".into(), basic_q));
    res.series.push(("basic_jct".into(), basic_j));
    res.series.push(("ideal_queuing".into(), ideal_q));
    res.series.push(("ideal_jct".into(), ideal_j));
    res
}
