//! Capacity-loaning deep dive: Table 7, Figures 9, 10 and 13, and the
//! reclaiming-vs-optimal study (§7.3).

use crate::tables::{render, render_series};
use crate::{reduction, run_at, ExperimentResult, Scale};
use lyra_cluster::orchestrator::ReclaimPolicy;
use lyra_core::reclaim::{
    reclaim_exhaustive_optimal, reclaim_random, reclaim_scf, CostModel, JobFootprint,
    ReclaimEngine, ReclaimRequest, ReclaimServerView,
};
use lyra_core::{JobId, ServerId};
use lyra_sim::{transform, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

/// Table 7: queuing/JCT of jobs that ran on on-loan servers, Baseline vs
/// Lyra-loaning.
pub fn tab7(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(70);
    let baseline = run_at(Scenario::baseline(), scale, &jobs, &inference);
    let lyra = run_at(
        Scenario::loaning_only(ReclaimPolicy::Lyra, "loan-lyra"),
        scale,
        &jobs,
        &inference,
    );
    // Baseline has no on-loan servers: compare the *same* jobs — those
    // that ran on loan under Lyra — against their Baseline outcomes.
    let loan_ids: HashSet<u64> = lyra
        .records
        .iter()
        .filter(|r| r.ran_on_loan)
        .map(|r| r.id.0)
        .collect();
    let base_q: Vec<f64> = baseline
        .records
        .iter()
        .filter(|r| loan_ids.contains(&r.id.0))
        .map(|r| r.queue_s)
        .collect();
    let base_j: Vec<f64> = baseline
        .records
        .iter()
        .filter(|r| loan_ids.contains(&r.id.0))
        .filter_map(|r| r.jct_s())
        .collect();
    let bq = lyra_sim::percentiles(&base_q);
    let bj = lyra_sim::percentiles(&base_j);
    let mut rows = vec![vec![
        "Scheme".to_string(),
        "QT mean".to_string(),
        "QT p50".to_string(),
        "QT p95".to_string(),
        "JCT mean".to_string(),
        "JCT p50".to_string(),
        "JCT p95".to_string(),
    ]];
    rows.push(vec![
        "Baseline".into(),
        format!("{:.0}", bq.mean),
        format!("{:.0}", bq.p50),
        format!("{:.0}", bq.p95),
        format!("{:.0}", bj.mean),
        format!("{:.0}", bj.p50),
        format!("{:.0}", bj.p95),
    ]);
    rows.push(vec![
        "Lyra".into(),
        format!("{:.0}", lyra.on_loan_queuing.mean),
        format!("{:.0}", lyra.on_loan_queuing.p50),
        format!("{:.0}", lyra.on_loan_queuing.p95),
        format!("{:.0}", lyra.on_loan_jct.mean),
        format!("{:.0}", lyra.on_loan_jct.p50),
        format!("{:.0}", lyra.on_loan_jct.p95),
    ]);
    lyra_obs::emitln!(
        "Table 7: jobs running on on-loan servers ({} jobs)",
        loan_ids.len()
    );
    lyra_obs::emitln!("{}", render(&rows));
    lyra_obs::emitln!(
        "median queuing reduction {:.2}x, p95 {:.2}x",
        reduction(bq.p50.max(1.0), lyra.on_loan_queuing.p50.max(1.0)),
        reduction(bq.p95.max(1.0), lyra.on_loan_queuing.p95.max(1.0)),
    );
    let mut res = ExperimentResult::new("tab7", scale);
    res.reports = vec![baseline, lyra];
    res
}

/// Figure 9: daily average usage of on-loan servers.
pub fn fig9(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(90);
    let lyra = run_at(
        Scenario::loaning_only(ReclaimPolicy::Lyra, "loan-lyra"),
        scale,
        &jobs,
        &inference,
    );
    // Daily averages of hours with loaned capacity.
    let daily: Vec<f64> = lyra
        .hourly_on_loan_server_usage
        .chunks(24)
        .map(|day| {
            let active: Vec<f64> = day.iter().copied().filter(|u| *u > 0.0).collect();
            if active.is_empty() {
                0.0
            } else {
                active.iter().sum::<f64>() / active.len() as f64
            }
        })
        .collect();
    let xs: Vec<f64> = (0..daily.len()).map(|d| d as f64).collect();
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 9: daily avg on-loan server usage", &xs, &daily)
    );
    lyra_obs::emitln!(
        "on-loan server usage {:.2} (GPU-level {:.2})",
        lyra.on_loan_server_usage, lyra.on_loan_usage
    );
    let mut res = ExperimentResult::new("fig9", scale);
    res.series.push(("daily_on_loan_usage".into(), daily));
    res.reports = vec![lyra];
    res
}

/// Figure 10: preemption ratio and collateral damage under
/// Random/SCF/Lyra, with elastic scaling disabled and enabled.
pub fn fig10(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(100);
    let mut res = ExperimentResult::new("fig10", scale);
    let mut rows = vec![vec![
        "Scheme".to_string(),
        "Scaling".to_string(),
        "Preemption ratio".to_string(),
        "Collateral damage".to_string(),
        "Flex satisfied".to_string(),
    ]];
    for (scaling, label) in [(false, "disabled"), (true, "enabled")] {
        for policy in [
            ReclaimPolicy::Random,
            ReclaimPolicy::Scf,
            ReclaimPolicy::Lyra,
        ] {
            let name = format!("{policy:?}-scaling-{label}");
            let scenario = if scaling {
                let mut s = Scenario::basic();
                s.loaning = Some(policy);
                s.name = name.clone();
                s
            } else {
                Scenario::loaning_only(policy, &name)
            };
            let r = run_at(scenario, scale, &jobs, &inference);
            rows.push(vec![
                format!("{policy:?}"),
                label.to_string(),
                format!("{:.2}%", r.preemption_ratio * 100.0),
                format!("{:.1}%", r.collateral_damage * 100.0),
                format!("{:.1}%", r.flex_satisfied * 100.0),
            ]);
            res.series.push((
                name,
                vec![r.preemption_ratio, r.collateral_damage, r.flex_satisfied],
            ));
            res.reports.push(r);
        }
    }
    lyra_obs::emitln!("Figure 10: reclaiming heuristic comparison");
    lyra_obs::emitln!("{}", render(&rows));
    res
}

/// Figure 13: sweeping the checkpointing fraction in the Ideal scenario.
pub fn fig13(scale: Scale) -> ExperimentResult {
    let (base_jobs, inference) = scale.traces(130);
    let mut ideal_jobs = base_jobs.clone();
    transform::idealize(&mut ideal_jobs);

    // Reference: loaning-only default (no checkpoints).
    let reference = run_at(
        Scenario::loaning_only(ReclaimPolicy::Lyra, "no-ckpt"),
        scale,
        &base_jobs,
        &inference,
    );
    let mut res = ExperimentResult::new("fig13", scale);
    let fractions = [0.2, 0.5, 0.8, 1.0];
    let mut qs = Vec::new();
    let mut js = Vec::new();
    let mut ps = Vec::new();
    for &f in &fractions {
        let mut jobs = ideal_jobs.clone();
        transform::set_checkpoint_fraction(&mut jobs, f, 131);
        let mut s = Scenario::ideal();
        s.name = format!("ckpt-{:.0}", f * 100.0);
        let r = run_at(s, scale, &jobs, &inference);
        qs.push(reduction(reference.queuing.mean, r.queuing.mean));
        js.push(reduction(reference.jct.mean, r.jct.mean));
        ps.push(r.preemption_ratio);
        res.reports.push(r);
    }
    let xs: Vec<f64> = fractions.iter().map(|f| f * 100.0).collect();
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 13: queuing reduction vs % checkpointed", &xs, &qs)
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 13: JCT reduction vs % checkpointed", &xs, &js)
    );
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 13: preemption ratio vs % checkpointed", &xs, &ps)
    );
    res.series.push(("queuing_reduction".into(), qs));
    res.series.push(("jct_reduction".into(), js));
    res.series.push(("preemption_ratio".into(), ps));
    res.reports.push(reference);
    res
}

/// Builds a random reclaim instance of the given size; jobs span 1–3
/// servers.
pub(crate) fn random_instance(
    rng: &mut StdRng,
    n_servers: usize,
    n_jobs: usize,
    need: usize,
) -> ReclaimRequest {
    let mut servers: Vec<ReclaimServerView> = (0..n_servers)
        .map(|i| ReclaimServerView {
            id: ServerId(i as u32),
            total_gpus: 8,
            jobs: vec![],
        })
        .collect();
    let mut jobs = Vec::new();
    for j in 0..n_jobs {
        let span = rng.gen_range(1..=3usize).min(n_servers);
        let mut placed = 0;
        let mut hosts = BTreeSet::new();
        let mut tries = 0;
        while hosts.len() < span && tries < 32 {
            hosts.insert(rng.gen_range(0..n_servers));
            tries += 1;
        }
        for &h in &hosts {
            let used: u32 = servers[h].jobs.iter().map(|(_, g)| g).sum();
            let free = 8 - used.min(8);
            if free == 0 {
                continue;
            }
            let g = rng.gen_range(1..=free.min(4));
            servers[h].jobs.push((JobId(j as u64), g));
            placed += g;
        }
        if placed > 0 {
            let hosts_used = servers
                .iter()
                .filter(|s| s.jobs.iter().any(|(id, _)| *id == JobId(j as u64)))
                .count() as u32;
            jobs.push(JobFootprint {
                id: JobId(j as u64),
                total_servers: hosts_used,
                total_gpus: placed,
            });
        }
    }
    ReclaimRequest {
        servers,
        jobs,
        need,
    }
}

/// §7.3's optimality study: Lyra's heuristic vs the exhaustive optimum —
/// preemption parity, server overlap and running-time ratio.
pub fn reclaim_opt(scale: Scale) -> ExperimentResult {
    let trials = match scale {
        Scale::Small => 20,
        Scale::Medium => 60,
        Scale::Full => 200,
    };
    let mut rng = StdRng::seed_from_u64(0x0971);
    let mut optimal_matches = 0usize;
    let mut total = 0usize;
    let mut overlap_sum = 0.0;
    let mut lyra_time = 0.0;
    let mut opt_time = 0.0;
    let mut excess_preemptions = 0usize;
    // Lyra's side is the incremental engine the orchestrator runs.
    let mut engine = ReclaimEngine::new();
    for _ in 0..trials {
        let n_servers = rng.gen_range(4..=10usize);
        let n_jobs = rng.gen_range(2..=8usize);
        let need = rng.gen_range(1..=n_servers / 2 + 1);
        let request = random_instance(&mut rng, n_servers, n_jobs, need);
        let t0 = Instant::now();
        let lyra = engine.reclaim(&request, CostModel::ServerFraction);
        lyra_time += t0.elapsed().as_secs_f64();
        if lyra.shortfall > 0 {
            continue;
        }
        let t0 = Instant::now();
        let Some(opt) = reclaim_exhaustive_optimal(&request) else {
            continue;
        };
        opt_time += t0.elapsed().as_secs_f64();
        total += 1;
        if lyra.preempted.len() == opt.preempted.len() {
            optimal_matches += 1;
        } else {
            excess_preemptions += lyra.preempted.len() - opt.preempted.len();
        }
        let lyra_set: HashSet<ServerId> = lyra.returned.iter().copied().collect();
        let overlap = opt.returned.iter().filter(|s| lyra_set.contains(s)).count() as f64
            / opt.returned.len().max(1) as f64;
        overlap_sum += overlap;

        // Sanity: comparators never beat the optimum either.
        let scf = reclaim_scf(&request);
        let mut r = StdRng::seed_from_u64(1);
        let rnd = reclaim_random(&request, &mut r);
        assert!(scf.preempted.len() >= opt.preempted.len());
        assert!(rnd.preempted.len() >= opt.preempted.len());
    }
    // Timing on one larger instance, where the exponential blow-up is
    // visible (the aggregate over tiny instances is all timer noise).
    let big = random_instance(&mut rng, 16, 20, 12);
    let t0 = Instant::now();
    let reps = 200;
    for _ in 0..reps {
        let _ = engine.reclaim(&big, CostModel::ServerFraction);
    }
    let lyra_big = t0.elapsed().as_secs_f64() / f64::from(reps);
    let t0 = Instant::now();
    let _ = reclaim_exhaustive_optimal(&big);
    let opt_big = t0.elapsed().as_secs_f64();
    lyra_obs::emitln!(
        "Reclaiming vs optimal over {total} feasible instances:\n\
         optimal-preemption matches: {:.0}% (excess preemptions when not: {excess_preemptions})\n\
         mean server overlap with optimal: {:.0}% (paper: 84%)\n\
         running time on a 16-server/20-job instance: optimal/lyra = {:.0}x \
         (grows exponentially with jobs; paper reports ~420,000x at production scale)",
        100.0 * optimal_matches as f64 / total.max(1) as f64,
        100.0 * overlap_sum / total.max(1) as f64,
        opt_big / lyra_big.max(1e-12),
    );
    let _ = (lyra_time, opt_time);
    let mut res = ExperimentResult::new("reclaim-opt", scale);
    res.series.push((
        "summary".into(),
        vec![
            optimal_matches as f64 / total.max(1) as f64,
            overlap_sum / total.max(1) as f64,
            opt_time / lyra_time.max(1e-12),
        ],
    ));
    res
}
