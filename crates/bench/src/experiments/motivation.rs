//! Motivation figures and worked examples: Figures 1–3, Tables 1–4, the
//! §6 LSTM measurement and the implementation timings of §5.2 and §4.

use super::loaning::random_instance;
use crate::tables::{render, render_series};
use crate::{ExperimentResult, Scale};
use lyra_core::job::{JobSpec, ModelFamily};
use lyra_core::policies::{JobScheduler, LyraScheduler, PolluxConfig, PolluxScheduler};
use lyra_core::reclaim::{cost_table, CostModel, ReclaimEngine};
use lyra_core::snapshot::{PendingJobView, PoolKind, ServerView, Snapshot};
use lyra_core::{
    solve_mckp, two_phase_allocate, AllocationConfig, GpuType, McKnapsackGroup, McKnapsackItem,
};
use lyra_elastic::figure3_series;
use lyra_predictor::{LstmConfig, UsagePredictor};
use lyra_sim::{run_scenario, Scenario};
use lyra_trace::InferenceTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Figure 1: one week of inference-cluster GPU utilisation.
pub fn fig1(scale: Scale) -> ExperimentResult {
    let trace = InferenceTrace::generate(lyra_trace::InferenceTraceConfig {
        days: 7,
        ..scale.inference_config(1)
    });
    let hourly: Vec<f64> = trace
        .samples
        .chunks(12)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let xs: Vec<f64> = (0..hourly.len()).map(|h| h as f64).collect();
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 1: inference GPU utilisation (hourly)", &xs, &hourly)
    );
    let (trough, peak) = trace.trough_peak();
    lyra_obs::emitln!(
        "mean {:.2}  trough {:.2}  peak {:.2}  peak/trough {:.2}  median 5-min burst {:.3}",
        trace.mean(),
        trough,
        peak,
        peak / trough,
        trace.median_burst()
    );
    let mut r = ExperimentResult::new("fig1", scale);
    r.series.push(("hourly_utilization".into(), hourly));
    r.series.push((
        "stats".into(),
        vec![trace.mean(), trough, peak, trace.median_burst()],
    ));
    r
}

/// Figure 2: hourly fraction of queuing jobs in the training cluster
/// under the Baseline scheduler.
pub fn fig2(scale: Scale) -> ExperimentResult {
    let (jobs, inference) = scale.traces(2);
    let mut scenario = Scenario::baseline();
    scenario.cluster = scale.cluster_config();
    let report = run_scenario(&scenario, &jobs, &inference).expect("baseline runs");
    let tolerance = scenario.sim.scheduler_interval_s + 1.0;
    let ratio = report.hourly_queuing_ratio(tolerance);
    let xs: Vec<f64> = (0..ratio.len()).map(|h| h as f64).collect();
    lyra_obs::emitln!(
        "{}",
        render_series("Figure 2: hourly queuing-job ratio (Baseline)", &xs, &ratio)
    );
    lyra_obs::emitln!(
        "training usage {:.2}  mean queuing {:.0}s",
        report.training_usage, report.queuing.mean
    );
    let mut r = ExperimentResult::new("fig2", scale);
    r.series.push(("hourly_queuing_ratio".into(), ratio));
    r.reports.push(report);
    r
}

/// Figure 3: throughput scaling of the four elastic model families.
pub fn fig3() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig3", Scale::Small);
    for family in [
        ModelFamily::ResNet50,
        ModelFamily::Vgg16,
        ModelFamily::Bert,
        ModelFamily::Gnmt16,
    ] {
        let series = figure3_series(family, 30, 5);
        let xs: Vec<f64> = series.iter().map(|p| f64::from(p.epoch)).collect();
        let ys: Vec<f64> = series.iter().map(|p| p.throughput).collect();
        lyra_obs::emitln!(
            "{}",
            render_series(&format!("Figure 3: {family:?} throughput"), &xs, &ys)
        );
        r.series.push((format!("{family:?}"), ys));
    }
    r
}

/// Table 1 / Figure 5: the three preemption-cost definitions on the
/// worked example.
pub fn tab1() -> ExperimentResult {
    // The Figure 5 fixture is reconstructed here exactly as in the
    // reclaim test suite.
    use lyra_core::reclaim::{JobFootprint, ReclaimRequest, ReclaimServerView};
    use lyra_core::{JobId, ServerId};
    let fp = |id: u64, servers: u32, gpus: u32| JobFootprint {
        id: JobId(id),
        total_servers: servers,
        total_gpus: gpus,
    };
    let request = ReclaimRequest {
        servers: vec![
            ReclaimServerView {
                id: ServerId(1),
                total_gpus: 8,
                jobs: vec![(JobId(0), 4)],
            },
            ReclaimServerView {
                id: ServerId(2),
                total_gpus: 8,
                jobs: vec![(JobId(0), 4)],
            },
            ReclaimServerView {
                id: ServerId(3),
                total_gpus: 8,
                jobs: vec![(JobId(1), 8)],
            },
            ReclaimServerView {
                id: ServerId(4),
                total_gpus: 8,
                jobs: vec![(JobId(2), 8)],
            },
            ReclaimServerView {
                id: ServerId(5),
                total_gpus: 8,
                jobs: vec![(JobId(3), 2), (JobId(4), 2)],
            },
            ReclaimServerView {
                id: ServerId(6),
                total_gpus: 8,
                jobs: vec![(JobId(5), 8)],
            },
        ],
        jobs: vec![
            fp(0, 2, 8),
            fp(1, 1, 8),
            fp(2, 2, 10),
            fp(3, 2, 10),
            fp(4, 2, 10),
            fp(5, 2, 10),
        ],
        need: 2,
    };
    let mut rows = vec![vec![
        "Server".to_string(),
        "# running jobs".to_string(),
        "GPU fraction".to_string(),
        "server fraction".to_string(),
    ]];
    for (sid, count, gpu_frac, server_frac) in cost_table(&request) {
        rows.push(vec![
            sid.to_string(),
            format!("{count:.0}"),
            format!("{gpu_frac:.1}"),
            format!("{server_frac:.1}"),
        ]);
    }
    lyra_obs::emitln!("Table 1: server preemption-cost definitions (Figure 5 example)");
    lyra_obs::emitln!("{}", render(&rows));
    let out = lyra_core::reclaim_servers(&request, lyra_core::CostModel::ServerFraction);
    lyra_obs::emitln!(
        "Lyra (server fraction): returns {:?}, preempts {} job(s) — the optimum.",
        out.returned,
        out.preempted.len()
    );
    let out = lyra_core::reclaim_servers(&request, lyra_core::CostModel::GpuFraction);
    lyra_obs::emitln!(
        "GPU-fraction variant: returns {:?}, preempts {} job(s) — the paper's counterexample.",
        out.returned,
        out.preempted.len()
    );
    ExperimentResult::new("tab1", Scale::Small)
}

/// Tables 2–4 and Figure 6: the elasticity worked examples.
pub fn tab234() -> ExperimentResult {
    // Table 2/3: jobs A and B, range [2, 6], 50 s / 20 s, 8 workers.
    let a = JobSpec::elastic(0, 0.0, 2, 6, 1, 50.0);
    let b = JobSpec::elastic(1, 0.0, 2, 6, 1, 20.0);
    lyra_obs::emitln!("Table 3: allocation strategies for Table 2's jobs (8 workers)");
    let mut rows = vec![vec![
        "Solution".to_string(),
        "A".to_string(),
        "B".to_string(),
        "JCT A".to_string(),
        "JCT B".to_string(),
        "Avg JCT".to_string(),
    ]];
    for (label, wa, wb) in [
        ("favour A", 6u32, 2u32),
        ("favour B", 2, 6),
        ("equal", 4, 4),
    ] {
        let out = lyra_core::evaluate_two_job_split(&a, &b, 8, wa, wb)
            .expect("Table 3 splits are feasible");
        rows.push(vec![
            label.to_string(),
            wa.to_string(),
            wb.to_string(),
            format!("{:.2}", out.jcts.0),
            format!("{:.2}", out.jcts.1),
            format!("{:.2}", out.avg_jct),
        ]);
    }
    lyra_obs::emitln!("{}", render(&rows));
    let opt = lyra_core::optimal_two_job_allocation(&a, &b, 8).expect("feasible");
    lyra_obs::emitln!(
        "exact optimum over all splits: A={} B={} (avg JCT {:.2}) — §5.1's analysis",
        opt.initial.0, opt.initial.1, opt.avg_jct
    );

    // Table 4 / Figure 6: the SJF counterexample and its MCKP transform.
    let a4 = JobSpec::elastic(0, 0.0, 2, 3, 2, 100.0);
    let b4 = JobSpec::elastic(1, 0.0, 2, 6, 1, 20.0);
    lyra_obs::emitln!("Figure 6: MCKP items for Table 4's jobs (2 GPUs left after bases)");
    let groups = vec![
        McKnapsackGroup {
            key: 0,
            items: (1..=a4.w_max() - a4.w_min())
                .map(|k| McKnapsackItem {
                    weight: k * a4.gpus_per_worker,
                    value: a4.base_running_time() - a4.running_time(a4.w_min() + k),
                })
                .collect(),
        },
        McKnapsackGroup {
            key: 1,
            items: (1..=b4.w_max() - b4.w_min())
                .map(|k| McKnapsackItem {
                    weight: k * b4.gpus_per_worker,
                    value: b4.base_running_time() - b4.running_time(b4.w_min() + k),
                })
                .collect(),
        },
    ];
    let mut rows = vec![vec![
        "Group".to_string(),
        "Item".to_string(),
        "Weight".to_string(),
        "JCT reduction".to_string(),
    ]];
    for g in &groups {
        for (i, item) in g.items.iter().enumerate() {
            rows.push(vec![
                if g.key == 0 { "A" } else { "B" }.to_string(),
                (i + 1).to_string(),
                item.weight.to_string(),
                format!("{:.0}", item.value),
            ]);
        }
    }
    lyra_obs::emitln!("{}", render(&rows));
    let solution = solve_mckp(&groups, 2);
    lyra_obs::emitln!(
        "MCKP over 2 leftover GPUs picks value {:.0} (A's extra worker) — \
         prioritising A as §5.1 derives.",
        solution.total_value
    );

    // End-to-end: the two-phase allocator resolves Table 4 the same way.
    let snapshot = Snapshot {
        time_s: 0.0,
        servers: vec![ServerView::idle(0, PoolKind::Training, GpuType::V100, 8)],
        pending: vec![PendingJobView::fresh(a4), PendingJobView::fresh(b4)],
        running: vec![],
    };
    let out = two_phase_allocate(&snapshot, AllocationConfig::default());
    lyra_obs::emitln!("two-phase allocation on Table 4: {:?}", out.launches);
    ExperimentResult::new("tab234", Scale::Small)
}

/// §6's LSTM predictor measurement: train on the utilisation trace and
/// report the average MSE over 1,440 points (the paper: 0.00048).
pub fn lstm(scale: Scale) -> ExperimentResult {
    let trace = InferenceTrace::generate(scale.inference_config(6));
    let n = trace.samples.len();
    let split = n.saturating_sub(1440).max(n / 2);
    let mut model = UsagePredictor::new(LstmConfig::default());
    let train_loss = model.train_series(&trace.samples[..split], 3);
    let eval = model.evaluate(&trace.samples[split..]);
    lyra_obs::emitln!(
        "LSTM usage predictor: final training MSE {train_loss:.6}, \
         held-out MSE over {} points: {eval:.6} (paper reports 0.00048)",
        n - split
    );
    let mut r = ExperimentResult::new("lstm", scale);
    r.series.push(("mse".into(), vec![train_loss, eval]));
    r
}

/// Calls behind each `impl` timing; the table reports their median.
const IMPL_REPS: usize = 21;

/// Median wall time of `IMPL_REPS` calls of `f`, seconds.
fn median_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..IMPL_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[IMPL_REPS / 2]
}

/// §5.2's largest production knapsack: 59 elastic jobs × 6 extra-worker
/// items = 354 items over 245 GPUs. Weights are extra workers × GPUs per
/// worker, as phase 2 builds them.
fn mckp_paper_point() -> (Vec<McKnapsackGroup>, u32) {
    let mut rng = StdRng::seed_from_u64(1);
    let groups = (0..59)
        .map(|g| {
            let gpw = [1u32, 2, 4][rng.gen_range(0..3)];
            McKnapsackGroup {
                key: g,
                items: (1..=6u32)
                    .map(|k| McKnapsackItem {
                        weight: k * gpw,
                        value: rng.gen_range(1.0..500.0) * f64::from(k),
                    })
                    .collect(),
            }
        })
        .collect();
    (groups, 245)
}

/// A fragmented 200-server training pool with 80 pending jobs, 30 %
/// of them elastic.
fn epoch_snapshot() -> Snapshot {
    let mut rng = StdRng::seed_from_u64(2);
    let servers = (0..200)
        .map(|i| {
            let mut s = ServerView::idle(i, PoolKind::Training, GpuType::V100, 8);
            s.free_gpus = rng.gen_range(0..=8);
            s
        })
        .collect();
    let pending = (0..80u64)
        .map(|i| {
            let spec = if rng.gen_bool(0.3) {
                let w = rng.gen_range(1..=4);
                JobSpec::elastic(i, 0.0, w, w * 2, 2, rng.gen_range(600.0..86_400.0))
            } else {
                JobSpec::inelastic(
                    i,
                    0.0,
                    rng.gen_range(1..=8),
                    [1, 2, 4][rng.gen_range(0..3)],
                    rng.gen_range(60.0..86_400.0),
                )
            };
            PendingJobView::fresh(spec)
        })
        .collect();
    Snapshot {
        time_s: 0.0,
        servers,
        pending,
        running: vec![],
    }
}

/// Formats a duration in seconds as µs or ms.
fn duration(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0} µs", s * 1e6)
    } else {
        format!("{:.2} ms", s * 1e3)
    }
}

/// Implementation timings: the phase-2 MCKP solve at the paper's
/// largest instance (§5.2: ≤ 0.02 s), the reclaim heuristic on a small
/// and a large wave (§4: 1–3 ms per decision) through the incremental
/// [`ReclaimEngine`] the orchestrator runs, and one Lyra and one Pollux
/// scheduling epoch on the same snapshot.
pub fn impl_timings() -> ExperimentResult {
    let (groups, capacity) = mckp_paper_point();
    let small_wave = random_instance(&mut StdRng::seed_from_u64(2), 16, 32, 5);
    let large_wave = random_instance(&mut StdRng::seed_from_u64(1), 120, 200, 40);
    let snapshot = epoch_snapshot();
    let mut engine = ReclaimEngine::new();
    let mut lyra = LyraScheduler::default();
    let mut pollux = PolluxScheduler::new(PolluxConfig::default());
    let timings = [
        (
            "mckp_paper_point_s",
            "MCKP solve, 354 items / 245 GPUs",
            "<= 0.02 s",
            median_s(|| solve_mckp(black_box(&groups), black_box(capacity))),
        ),
        (
            "reclaim_16_servers_s",
            "reclaim decision, 16 servers / 32 jobs / 5 demanded",
            "1-3 ms",
            median_s(|| engine.reclaim(black_box(&small_wave), CostModel::ServerFraction)),
        ),
        (
            "reclaim_120_servers_s",
            "reclaim decision, 120 servers / 200 jobs / 40 demanded",
            "1-3 ms",
            median_s(|| engine.reclaim(black_box(&large_wave), CostModel::ServerFraction)),
        ),
        (
            "lyra_epoch_s",
            "Lyra epoch, 200 servers / 80 pending",
            "-",
            median_s(|| lyra.schedule(black_box(&snapshot))),
        ),
        (
            "pollux_epoch_s",
            "Pollux epoch (GA, 250 iterations), same snapshot",
            "-",
            median_s(|| pollux.schedule(black_box(&snapshot))),
        ),
    ];
    let mut rows = vec![vec![
        "Measurement".to_string(),
        "Paper".to_string(),
        format!("Median of {IMPL_REPS}"),
    ]];
    let mut r = ExperimentResult::new("impl", Scale::Small);
    for (label, what, paper, s) in timings {
        rows.push(vec![what.to_string(), paper.to_string(), duration(s)]);
        r.series.push((label.into(), vec![s]));
    }
    lyra_obs::emitln!("Implementation timings (§5.2, §4)");
    lyra_obs::emitln!("{}", render(&rows));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mckp_paper_point_has_the_papers_shape() {
        let (groups, capacity) = mckp_paper_point();
        assert_eq!(groups.iter().map(|g| g.items.len()).sum::<usize>(), 354);
        assert_eq!(capacity, 245);
    }

    #[test]
    fn impl_times_every_measurement() {
        assert!(crate::experiments::ALL.contains(&"impl"));
        let r = crate::experiments::run("impl", Scale::Small).expect("impl is an experiment id");
        let labels: Vec<&str> = r.series.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "mckp_paper_point_s",
                "reclaim_16_servers_s",
                "reclaim_120_servers_s",
                "lyra_epoch_s",
                "pollux_epoch_s",
            ]
        );
        for (label, values) in &r.series {
            assert_eq!(values.len(), 1, "{label}");
            let v = values[0];
            assert!(v.is_finite() && v > 0.0, "{label}: {v}");
        }
    }
}
