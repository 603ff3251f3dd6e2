//! Name-indexed registry of scheduling policies.
//!
//! Experiments select schedulers by *name* ("lyra", "fifo-backfill", …)
//! in their scenario config; the registry maps each name to a builder
//! that produces a boxed [`JobScheduler`] trait object. The simulator and
//! `lyra-bench` resolve names through [`PolicyRegistry::builtin`], and the
//! ablation runner sweeps every name it holds.

use super::{
    AfsScheduler, FifoScheduler, GandivaScheduler, JobScheduler, LyraConfig, LyraScheduler,
    PolluxConfig, PolluxScheduler,
};
use crate::allocation::{AllocationConfig, Phase1Order, Phase2Solver};
use crate::placement::PlacementConfig;

/// Per-experiment inputs a policy builder may consume.
///
/// The registry's builders are pure functions of this context, so the
/// same registry can instantiate fresh, independently seeded schedulers
/// for every cell of an ablation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyContext {
    /// Seed for policies with randomised comparators (Pollux's GA).
    pub seed: u64,
    /// GPU budget for the opportunistic policy: the most the inference
    /// cluster can lend, derived from its traffic trough by the caller
    /// (the registry has no access to traces).
    pub opportunistic_gpus: u32,
}

/// A policy builder: context in, fresh scheduler out.
pub type PolicyBuilder = fn(&PolicyContext) -> Box<dyn JobScheduler>;

/// One built-in policy: a name, a summary line for listings, and the
/// builder.
pub struct PolicyEntry {
    /// Unique lookup name (kebab-case by convention).
    pub name: &'static str,
    /// One-line description for `lyra-bench` listings.
    pub summary: &'static str,
    /// Builds a fresh scheduler instance.
    pub build: PolicyBuilder,
}

/// Error returned when a scenario names a policy the registry lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub name: String,
    /// Every name the registry does know, for the error message.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy `{}` (known: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// The registry itself: an ordered list of entries (listing order is
/// declaration order, so ablation sweeps are deterministic).
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

impl PolicyRegistry {
    /// The registry holding every built-in policy evaluated in §7, under
    /// the names scenario configs use. A new policy is a new entry here.
    pub fn builtin() -> Self {
        fn entry(name: &'static str, summary: &'static str, build: PolicyBuilder) -> PolicyEntry {
            PolicyEntry {
                name,
                summary,
                build,
            }
        }
        PolicyRegistry {
            entries: vec![
                entry("fifo", "strict FIFO, no backfill (Baseline)", |_| {
                    Box::new(FifoScheduler::new())
                }),
                entry("fifo-backfill", "FIFO with backfill", |_| {
                    Box::new(FifoScheduler::with_backfill())
                }),
                entry(
                    "opportunistic",
                    "FIFO queueing fungible jobs to idle inference GPUs only",
                    |ctx| Box::new(FifoScheduler::opportunistic(ctx.opportunistic_gpus)),
                ),
                entry("lyra", "two-phase allocation + BFD placement (§5)", |_| {
                    Box::new(LyraScheduler::default())
                }),
                entry(
                    "lyra-no-elastic",
                    "Lyra with the elastic phase disabled (loaning-only rows)",
                    |_| Box::new(LyraScheduler::new(LyraConfig::loaning_only())),
                ),
                entry(
                    "lyra-naive-placement",
                    "Lyra without §5.3's special elastic placement (Table 6)",
                    |_| {
                        Box::new(LyraScheduler::new(LyraConfig {
                            allocation: AllocationConfig::default(),
                            placement: PlacementConfig {
                                special_elastic_treatment: false,
                            },
                        }))
                    },
                ),
                entry("gandiva", "opportunistic grow/shrink comparator", |_| {
                    Box::new(GandivaScheduler::new())
                }),
                entry(
                    "afs",
                    "greedy marginal-throughput-per-GPU comparator",
                    |_| Box::new(AfsScheduler::new()),
                ),
                entry("pollux", "goodput + genetic-algorithm comparator", |ctx| {
                    Box::new(PolluxScheduler::new(PolluxConfig {
                        seed: ctx.seed,
                        ..PolluxConfig::default()
                    }))
                }),
                entry(
                    "lyra-las",
                    "Lyra with least-attained-service phase-1 ordering",
                    |_| {
                        Box::new(LyraScheduler::new(LyraConfig {
                            allocation: AllocationConfig {
                                phase1: Phase1Order::Las,
                                ..AllocationConfig::default()
                            },
                            placement: PlacementConfig::default(),
                        }))
                    },
                ),
                entry(
                    "lyra-greedy-phase2",
                    "Lyra with the greedy phase-2 solver instead of the knapsack",
                    |_| {
                        Box::new(LyraScheduler::new(LyraConfig {
                            allocation: AllocationConfig {
                                phase2: Phase2Solver::Greedy,
                                ..AllocationConfig::default()
                            },
                            placement: PlacementConfig::default(),
                        }))
                    },
                ),
            ],
        }
    }

    /// Every built-in name, in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Looks up one entry by name.
    pub fn get(&self, name: &str) -> Option<&PolicyEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Like [`get`](Self::get), but an unresolved name returns the same
    /// [`UnknownPolicy`] error [`build`](Self::build) would.
    ///
    /// # Errors
    ///
    /// [`UnknownPolicy`] listing every known name.
    pub fn get_checked(&self, name: &str) -> Result<&PolicyEntry, UnknownPolicy> {
        self.get(name).ok_or_else(|| UnknownPolicy {
            name: name.to_string(),
            known: self.names().iter().map(|n| n.to_string()).collect(),
        })
    }

    /// Builds a fresh scheduler for `name`.
    ///
    /// # Errors
    ///
    /// [`UnknownPolicy`] when the name is not registered; the error lists
    /// every known name.
    pub fn build(
        &self,
        name: &str,
        ctx: &PolicyContext,
    ) -> Result<Box<dyn JobScheduler>, UnknownPolicy> {
        self.get_checked(name).map(|entry| (entry.build)(ctx))
    }
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    #[test]
    fn builtin_names_build_and_self_report() {
        let reg = PolicyRegistry::builtin();
        let ctx = PolicyContext {
            seed: 7,
            opportunistic_gpus: 16,
        };
        assert_eq!(reg.names().len(), 11);
        for name in reg.names() {
            let mut policy = reg.build(name, &ctx).expect("builtin builds");
            // Every builder must yield a live scheduler; an empty snapshot
            // must produce no actions.
            assert!(policy.schedule(&Snapshot::default()).is_empty(), "{name}");
        }
    }

    #[test]
    fn unknown_names_error_with_the_known_set() {
        let reg = PolicyRegistry::builtin();
        let err = reg
            .build("lyra-quantum", &PolicyContext::default())
            .err()
            .expect("unknown name errors");
        assert_eq!(err.name, "lyra-quantum");
        assert!(err.known.iter().any(|n| n == "lyra"));
        let msg = err.to_string();
        assert!(msg.contains("lyra-quantum") && msg.contains("fifo-backfill"));
    }

    #[test]
    fn only_naive_placement_drops_the_flexible_label() {
        let reg = PolicyRegistry::builtin();
        for name in reg.names() {
            let policy = reg
                .build(name, &PolicyContext::default())
                .expect("builtin builds");
            assert_eq!(
                policy.special_elastic_placement(),
                name != "lyra-naive-placement",
                "{name}"
            );
        }
    }
}
