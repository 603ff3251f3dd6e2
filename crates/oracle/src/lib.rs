#![warn(missing_docs)]

//! # lyra-oracle
//!
//! Correctness tooling for the Lyra reproduction: every fast path in
//! the scheduler is checked against an independent ground truth.
//!
//! * [`mckp`] — an exhaustive multiple-choice-knapsack solver and
//!   differential checks: the production DP must be *exact*, the greedy
//!   phase-2 ablation must respect its approximation guarantee.
//! * [`placement`] — exhaustive gang-placement feasibility: the BFD
//!   path must never reject a gang that fits, never accept one that
//!   does not, and must stay atomic on failure.
//! * [`reclaim`] — Lyra's greedy lowest-cost reclaiming checked against
//!   the exhaustive minimum-preemption optimum.
//! * [`gen`] — proptest strategies producing the small instances
//!   (≤ 6 jobs / ≤ 8 servers) the oracles are tractable on, shared by
//!   this crate's differential suites and reusable from the sim.
//! * [`props`] — metamorphic property helpers for the scenario zoo:
//!   speed-factor, resize-cost and deadline-slack monotonicity over
//!   pairs of related full simulations.
//! * [`golden`] — pinned tiny scenarios whose full JSONL event logs are
//!   committed under `tests/golden/` and compared byte-for-byte in CI,
//!   with a bless flow and a mutation-smoke mode proving the gate fires.
//!
//! The oracles are deliberately *slow and obvious*: exponential
//! enumeration, no shared code with the production solvers beyond the
//! instance types. A disagreement is always a bug in exactly one place.

pub mod gen;
pub mod golden;
pub mod mckp;
pub mod placement;
pub mod props;
pub mod reclaim;
