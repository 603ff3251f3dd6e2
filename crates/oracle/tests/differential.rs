//! Differential oracle suite: the production DP/greedy/BFD paths
//! checked against brute-force ground truth on proptest-generated
//! small instances (≤ 6 jobs / ≤ 8 servers).

use lyra_core::CostModel;
use lyra_oracle::{gen, mckp, placement, reclaim};
use lyra_sim::scenario::generators::{tiny_basic, tiny_traces};
use lyra_sim::{run_scenario, run_scenario_observed, transform, ObserverConfig};
use proptest::prelude::*;

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(96))]

    /// The production MCKP DP is exact on arbitrary small instances.
    #[test]
    fn dp_is_exact(instance in gen::arbitrary_mckp()) {
        let (groups, capacity) = instance;
        prop_assert_eq!(mckp::check_dp_exact(&groups, capacity), Ok(()));
    }

    /// …and on production-shaped concave instances too.
    #[test]
    fn dp_is_exact_on_concave_instances(instance in gen::concave_mckp()) {
        let (groups, capacity) = instance;
        prop_assert_eq!(mckp::check_dp_exact(&groups, capacity), Ok(()));
    }

    /// The greedy ablation never beats the optimum and meets its
    /// 1/2-guarantee on the concave instances phase 2 actually builds.
    #[test]
    fn greedy_meets_its_guarantee(instance in gen::concave_mckp()) {
        let (groups, capacity) = instance;
        prop_assert_eq!(mckp::check_greedy_bound(&groups, capacity), Ok(()));
    }

    /// BFD gang placement accepts exactly the feasible gangs, keeps its
    /// accounting straight, and stays atomic on failure.
    #[test]
    fn placement_matches_exhaustive_feasibility(inst in gen::gang_instance()) {
        prop_assert_eq!(placement::check_gang_placement(&inst), Ok(()));
    }

    /// Lyra's greedy reclaiming is sound and never beats the exhaustive
    /// minimum-preemption optimum, under every cost model.
    #[test]
    fn reclaim_never_beats_the_optimum(req in gen::reclaim_instance()) {
        for model in [CostModel::ServerFraction, CostModel::GpuFraction, CostModel::JobCount] {
            prop_assert_eq!(reclaim::check_reclaim_optimality(&req, model), Ok(()));
        }
    }

    /// Scaling each group's values by a positive per-generation factor
    /// (the shape phase 2's tables take on a heterogeneous fleet)
    /// preserves concavity, so the DP must stay exact and the greedy
    /// 1/2-guarantee must keep holding.
    #[test]
    fn dp_and_greedy_hold_on_hetero_value_tables(instance in gen::hetero_mckp()) {
        let (groups, capacity) = instance;
        prop_assert_eq!(mckp::check_dp_exact(&groups, capacity), Ok(()));
        prop_assert_eq!(mckp::check_greedy_bound(&groups, capacity), Ok(()));
    }
}

// Whole-simulation differentials are costlier per case than the
// combinatorial oracles above, so they run a smaller sample.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(12))]

    /// A malleable scenario is a pure function of its spec: replaying
    /// the identical spec yields identical per-job records and
    /// operation counts, resize costs and all.
    #[test]
    fn malleable_runs_are_deterministic(spec in gen::malleable_spec()) {
        let scenario = tiny_basic(spec.seed);
        let (mut jobs, inference) = tiny_traces(spec.seed);
        transform::set_elastic_fraction(&mut jobs, spec.elastic_fraction, spec.seed ^ 1);
        transform::set_resize_costs(&mut jobs, spec.shrink_s, spec.expand_s);
        let a = run_scenario(&scenario, &jobs, &inference).expect("first run");
        let b = run_scenario(&scenario, &jobs, &inference).expect("second run");
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(
            (a.completed, a.scaling_ops, a.loan_ops, a.reclaim_ops),
            (b.completed, b.scaling_ops, b.loan_ops, b.reclaim_ops)
        );
    }

    /// The report's deadline rollup and the observer's event stream are
    /// independent computations of the same facts: every job that
    /// completed late emits exactly one `DeadlineMiss` event, and every
    /// traced job carries the deadline the transform stamped.
    #[test]
    fn deadline_rollup_matches_event_stream(spec in gen::deadline_spec()) {
        let scenario = tiny_basic(spec.seed);
        let (mut jobs, inference) = tiny_traces(spec.seed);
        transform::set_deadlines(&mut jobs, spec.slack_mult, spec.seed ^ 1);
        let r = run_scenario_observed(&scenario, &jobs, &inference, ObserverConfig::default())
            .expect("observed run");
        let event_misses = r
            .events
            .iter()
            .filter(|e| matches!(e.event, lyra_obs::SchedEvent::DeadlineMiss { .. }))
            .count();
        let completed_late = r
            .records
            .iter()
            .filter(|rec| rec.jct_s().is_some() && rec.missed_deadline())
            .count();
        prop_assert_eq!(event_misses, completed_late);
        prop_assert_eq!(r.deadlines.with_deadline, jobs.jobs.len());
        prop_assert_eq!(r.deadlines.met + r.deadlines.missed, r.deadlines.with_deadline);
        prop_assert!(r.deadlines.missed >= completed_late);
    }
}
