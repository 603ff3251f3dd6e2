//! Ablation walkthrough: list the built-in policies, then sweep three of
//! them across the scenario zoo.
//!
//! ```text
//! cargo run --release --example ablation
//! ```
//!
//! The CLI equivalent of the sweep below is `lyra-bench ablate`
//! (`--smoke` for the CI-sized subset, `--policy <name>` for one
//! column, `--seed <s>` to move the traces).

use lyra::core::policies::PolicyRegistry;
use lyra::sim::{run_scenario, zoo};

fn main() {
    // Every built-in policy, under the names scenario configs use.
    let registry = PolicyRegistry::builtin();
    println!("built-in policies:");
    for name in registry.names() {
        let entry = registry.get(name).expect("a listed name resolves");
        println!("  {:22} {}", entry.name, entry.summary);
    }

    // Sweep three representative policies across every zoo cell. Each
    // cell pins its own traces and transforms (heterogeneous speed
    // factors, malleable resize costs, SLO deadlines), so one sweep
    // covers every scheduling regime the reproduction models.
    println!();
    println!(
        "{:15} {:10} {:>10} {:>10} {:>14}",
        "policy", "scenario", "completed", "JCT mean", "deadline miss"
    );
    for policy in ["fifo-backfill", "gandiva", "lyra"] {
        for cell in zoo::cases() {
            let (mut scenario, jobs, inference) = cell.build();
            scenario.policy = policy.to_string();
            scenario.name = format!("ablation-{policy}-{}", cell.name);
            let r = run_scenario(&scenario, &jobs, &inference).expect("cell runs");
            println!(
                "{:15} {:10} {:>10} {:>10.1} {:>11}/{}",
                policy,
                cell.name,
                r.completed,
                r.jct.mean,
                r.deadlines.missed,
                r.deadlines.with_deadline
            );
        }
    }
}
