//! Decision provenance: building the causal graph from a run's logged
//! events and rendering it (`why`, `blame`).
//!
//! [`build_provenance`] folds the `(time_ms, seq, &SchedEvent)` stream,
//! in emission order, through one private transition function. The
//! stream is the same whether it comes from a run's in-memory events or
//! from its JSONL sink read back with [`parse_log`](crate::parse_log),
//! so both yield the same graph.
//!
//! # DecisionId stability
//!
//! A [`DecisionId`] is the log sequence number of the event that
//! recorded the decision. Sequence numbers are stamped at emission,
//! and serialised into every JSONL line, so the id of a decision is
//! identical in a live run and in a replay of its log.

use std::collections::{BTreeMap, BTreeSet};

use crate::attribution::{fmt_s, DelayCause, JobAttribution};
use crate::audit::AuditRecord;
use crate::event::{SchedEvent, TimedEvent};
use crate::graph::{DecisionId, EdgeKind, NodeKind, ProvenanceGraph, ProvenanceNode};
use crate::lifecycle::attribute_log;

/// Builds a [`ProvenanceGraph`] incrementally from an event stream.
#[derive(Default)]
struct ProvenanceTracker {
    graph: ProvenanceGraph,
    /// Per-job tail of the admission→rank→verdict→placement chain: the
    /// decision the job's *next* chain event links back to.
    pending_chain: BTreeMap<u64, DecisionId>,
    /// Server → the `LoanGrant` decision that loaned it (latest wins).
    loaned_by: BTreeMap<u32, DecisionId>,
    /// The most recent `ReclaimDemand` decision; parent of every
    /// `ReclaimChoice` in the wave it triggered.
    pending_demand: Option<DecisionId>,
    /// Job → the `job_killed` fault awaiting its restart decision.
    pending_kill: BTreeMap<u64, DecisionId>,
    /// Job → the restart decision awaiting the job's re-placement.
    pending_restart: BTreeMap<u64, DecisionId>,
}

impl ProvenanceTracker {
    fn add(&mut self, id: DecisionId, time_ms: u64, kind: NodeKind, job: Option<u64>) {
        self.graph.add_node(ProvenanceNode {
            id,
            time_ms,
            kind,
            job,
        });
    }

    /// Feeds one event. `seq` must be the log sequence number the event
    /// was emitted under; events must arrive in `seq` order.
    fn observe(&mut self, time_ms: u64, seq: u64, event: &SchedEvent) {
        match event {
            SchedEvent::JobAdmit { job } => {
                self.add(seq, time_ms, NodeKind::Admit, Some(*job));
                self.pending_chain.insert(*job, seq);
            }
            SchedEvent::Audit(rec) => match rec {
                AuditRecord::Phase1Order { order, .. } => {
                    self.add(seq, time_ms, NodeKind::Rank, None);
                    self.chain_all(seq, order, EdgeKind::Rank);
                }
                AuditRecord::Phase2Mckp { jobs, .. } => {
                    self.add(seq, time_ms, NodeKind::MckpVerdict, None);
                    self.chain_all(seq, jobs, EdgeKind::MckpVerdict);
                }
                AuditRecord::PlacementDecision { job, .. } => {
                    self.add(seq, time_ms, NodeKind::Placement, Some(*job));
                    if let Some(&prev) = self.pending_chain.get(job) {
                        self.graph.add_edge(prev, seq, EdgeKind::Placement);
                    }
                    self.pending_chain.insert(*job, seq);
                }
                AuditRecord::ReclaimChoice { .. } => {
                    self.add(seq, time_ms, NodeKind::ReclaimChoice, None);
                    if let Some(demand) = self.pending_demand {
                        self.graph.add_edge(demand, seq, EdgeKind::ReclaimRanking);
                    }
                }
            },
            SchedEvent::JobStart {
                job,
                on_loan,
                servers,
                ..
            } => {
                self.add(seq, time_ms, NodeKind::Launch, Some(*job));
                if let Some(prev) = self.pending_chain.remove(job) {
                    self.graph.add_edge(prev, seq, EdgeKind::Launch);
                }
                if let Some(restart) = self.pending_restart.remove(job) {
                    self.graph.add_edge(restart, seq, EdgeKind::Replacement);
                }
                if *on_loan {
                    self.link_loans(seq, servers);
                }
            }
            SchedEvent::JobScaleOut {
                job,
                on_loan,
                servers,
                ..
            } => {
                self.add(seq, time_ms, NodeKind::ScaleOut, Some(*job));
                if *on_loan {
                    self.link_loans(seq, servers);
                }
            }
            SchedEvent::LoanGrant { servers } => {
                self.add(seq, time_ms, NodeKind::LoanGrant, None);
                for s in servers {
                    self.loaned_by.insert(*s, seq);
                }
            }
            SchedEvent::ReclaimDemand { .. } => {
                self.add(seq, time_ms, NodeKind::ReclaimDemand, None);
                self.pending_demand = Some(seq);
            }
            SchedEvent::JobPreempt { job, decision, .. } => {
                self.add(seq, time_ms, NodeKind::Preempt, Some(*job));
                if let Some(d) = decision {
                    self.graph.add_edge(*d, seq, EdgeKind::Preemption);
                }
                // The job re-queues; its next scheduling chain hangs off
                // the preemption.
                self.pending_chain.insert(*job, seq);
            }
            SchedEvent::Fault { kind, target } if kind == "job_killed" => {
                self.add(seq, time_ms, NodeKind::Kill, Some(*target));
                self.pending_kill.insert(*target, seq);
            }
            SchedEvent::Fault { kind, target } if kind == "restart" => {
                self.add(seq, time_ms, NodeKind::Restart, Some(*target));
                if let Some(kill) = self.pending_kill.remove(target) {
                    self.graph.add_edge(kill, seq, EdgeKind::Restart);
                }
                self.pending_restart.insert(*target, seq);
                self.pending_chain.insert(*target, seq);
            }
            _ => {}
        }
    }

    /// Links one per-epoch decision into the chain of every job it
    /// lists. Many jobs can share one chain predecessor (an earlier rank
    /// node); dedup so each causal link appears once.
    fn chain_all(&mut self, seq: DecisionId, jobs: &[u64], kind: EdgeKind) {
        let prevs: BTreeSet<DecisionId> = jobs
            .iter()
            .filter_map(|job| self.pending_chain.get(job).copied())
            .collect();
        for prev in prevs {
            self.graph.add_edge(prev, seq, kind);
        }
        for &job in jobs {
            self.pending_chain.insert(job, seq);
        }
    }

    fn link_loans(&mut self, seq: DecisionId, servers: &[u32]) {
        let grants: BTreeSet<DecisionId> = servers
            .iter()
            .filter_map(|s| self.loaned_by.get(s).copied())
            .collect();
        for grant in grants {
            self.graph.add_edge(grant, seq, EdgeKind::LoanEnabled);
        }
    }
}

/// Builds the provenance graph from a run's events, oldest first: the
/// report's in-memory events or a JSONL log read back.
pub fn build_provenance(events: &[TimedEvent]) -> ProvenanceGraph {
    let mut tracker = ProvenanceTracker::default();
    for ev in events {
        tracker.observe(ev.time_ms, ev.seq, &ev.event);
    }
    tracker.graph
}

/// The node a delay interval is anchored on: the decision (or fault)
/// whose effect opened the interval.
fn anchor_for(
    graph: &ProvenanceGraph,
    job: u64,
    cause: DelayCause,
    start_ms: u64,
) -> Option<&ProvenanceNode> {
    match cause {
        DelayCause::ReclaimPreemption => graph.latest_for_job(job, NodeKind::Preempt, start_ms),
        DelayCause::FaultRestart => graph.latest_for_job(job, NodeKind::Kill, start_ms),
        // A checkpoint restore follows either a checkpointed preemption
        // or a fault kill; whichever happened later explains it.
        DelayCause::CheckpointRestore => {
            let preempt = graph.latest_for_job(job, NodeKind::Preempt, start_ms);
            let kill = graph.latest_for_job(job, NodeKind::Kill, start_ms);
            match (preempt, kill) {
                (Some(p), Some(k)) => Some(if p.id >= k.id { p } else { k }),
                (p, k) => p.or(k),
            }
        }
        _ => None,
    }
}

fn render_ancestors(graph: &ProvenanceGraph, id: DecisionId, depth: usize, out: &mut String) {
    for edge in graph.incoming(id) {
        if let Some(node) = graph.node(edge.from) {
            out.push_str(&format!(
                "{}<- {} by {} #{} at {}s\n",
                "  ".repeat(depth),
                edge.kind.label(),
                node.kind.label(),
                node.id,
                fmt_s(node.time_ms),
            ));
            render_ancestors(graph, node.id, depth + 1, out);
        }
    }
}

/// Renders the causal chain behind every delay interval of `job`.
///
/// Each interval from the PR 5 taxonomy is printed with its cause and
/// duration; intervals opened by a decision (reclaim preemption,
/// checkpoint restore, fault restart) additionally print the decision
/// chain that caused them — for a reclaim, the preemption, the victim
/// ranking that picked the job, and the loan-demand that triggered the
/// wave. Errors if the job never appears in the log.
pub fn render_why(
    graph: &ProvenanceGraph,
    attrs: &[JobAttribution],
    job: u64,
) -> Result<String, String> {
    let attr = attrs
        .iter()
        .find(|a| a.job == job)
        .ok_or_else(|| format!("job {job} not found in log"))?;
    let completion = match attr.completion_ms {
        Some(ms) => format!("{}s", fmt_s(ms)),
        None => "-".to_string(),
    };
    let mut out = String::new();
    out.push_str(&format!(
        "job {job}: arrival {}s, completion {completion}\n",
        fmt_s(attr.arrival_ms),
    ));
    for iv in &attr.intervals {
        out.push_str(&format!(
            "[{}s .. {}s] {} ({}s)\n",
            fmt_s(iv.start_ms),
            fmt_s(iv.end_ms),
            iv.cause.label(),
            fmt_s(iv.len_ms()),
        ));
        if let Some(anchor) = anchor_for(graph, job, iv.cause, iv.start_ms) {
            out.push_str(&format!(
                "  caused by {} #{} at {}s\n",
                anchor.kind.label(),
                anchor.id,
                fmt_s(anchor.time_ms),
            ));
            render_ancestors(graph, anchor.id, 2, &mut out);
        }
    }
    Ok(out)
}

/// [`render_why`] over a run's events: builds the graph and the
/// attributions, then renders.
pub fn why_from_log(events: &[TimedEvent], job: u64) -> Result<String, String> {
    render_why(&build_provenance(events), &attribute_log(events), job)
}

/// Renders the blame table: reclaim decisions ranked by the total
/// victim delay attributed to them.
///
/// Every `reclaim-preemption` (and preemption-anchored
/// `checkpoint-restore`) interval is charged to the `ReclaimChoice`
/// decision whose victim ranking picked the job; decisions are ranked
/// by total milliseconds charged, descending (ties broken by id).
pub fn render_blame(graph: &ProvenanceGraph, attrs: &[JobAttribution], top: usize) -> String {
    let mut agg: BTreeMap<DecisionId, (u64, BTreeSet<u64>)> = BTreeMap::new();
    for attr in attrs {
        for iv in &attr.intervals {
            if !matches!(
                iv.cause,
                DelayCause::ReclaimPreemption | DelayCause::CheckpointRestore
            ) {
                continue;
            }
            let Some(anchor) = anchor_for(graph, attr.job, iv.cause, iv.start_ms) else {
                continue;
            };
            // Fault-anchored checkpoint restores blame no scheduling
            // decision.
            if anchor.kind != NodeKind::Preempt {
                continue;
            }
            let Some(choice) = graph
                .incoming(anchor.id)
                .find(|e| e.kind == EdgeKind::Preemption)
                .and_then(|e| graph.node(e.from))
            else {
                continue;
            };
            let entry = agg.entry(choice.id).or_default();
            entry.0 += iv.len_ms();
            entry.1.insert(attr.job);
        }
    }
    let mut rows: Vec<(DecisionId, (u64, BTreeSet<u64>))> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
    rows.truncate(top);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<16} {:>12} {:>14} {:>8} {:>8}\n",
        "decision", "kind", "time_s", "victim_delay_s", "victims", "demand"
    ));
    for (id, (ms, victims)) in rows {
        let (kind, time) = match graph.node(id) {
            Some(n) => (n.kind.label(), fmt_s(n.time_ms)),
            None => ("?", "?".to_string()),
        };
        let demand = graph
            .incoming(id)
            .find(|e| e.kind == EdgeKind::ReclaimRanking)
            .map(|e| format!("#{}", e.from))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<10} {:<16} {:>12} {:>14} {:>8} {:>8}\n",
            format!("#{id}"),
            kind,
            time,
            fmt_s(ms),
            victims.len(),
            demand,
        ));
    }
    out
}

/// [`render_blame`] over a parsed log.
pub fn blame_from_log(events: &[TimedEvent], top: usize) -> String {
    render_blame(&build_provenance(events), &attribute_log(events), top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::ReclaimCandidate;

    fn timed(events: Vec<(u64, SchedEvent)>) -> Vec<TimedEvent> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, (time_ms, event))| TimedEvent {
                time_ms,
                seq: i as u64,
                event,
            })
            .collect()
    }

    /// A hand-built run: job 1 launches on loaned capacity, a reclaim
    /// wave preempts it, a fault later kills and restarts it.
    fn sample_events() -> Vec<TimedEvent> {
        timed(vec![
            // 0: admit
            (0, SchedEvent::JobAdmit { job: 1 }),
            // 1: loan grant for server 9
            (0, SchedEvent::LoanGrant { servers: vec![9] }),
            // 2: phase-1 rank
            (
                1000,
                SchedEvent::Audit(AuditRecord::Phase1Order {
                    capacity_gpus: 8,
                    order: vec![1],
                    admitted: vec![0],
                    estimates: vec![(0, 60.0, 2)],
                }),
            ),
            // 3: placement
            (
                1000,
                SchedEvent::Audit(AuditRecord::PlacementDecision {
                    job: 1,
                    role: "inelastic".to_string(),
                    gpus: 2,
                    chosen: Some(9),
                    chosen_free_gpus: 8,
                    alternatives: vec![],
                }),
            ),
            // 4: launch on the loaned server
            (
                1000,
                SchedEvent::JobStart {
                    job: 1,
                    workers: 2,
                    on_loan: true,
                    servers: vec![9],
                },
            ),
            // 5: loan-demand
            (5000, SchedEvent::ReclaimDemand { servers: 1 }),
            // 6: victim ranking picks server 9, preempting job 1
            (
                5000,
                SchedEvent::Audit(AuditRecord::ReclaimChoice {
                    need: 1,
                    candidates: vec![ReclaimCandidate {
                        server: 9,
                        cost: 1.0,
                        collateral_gpus: 0,
                    }],
                    chosen: 9,
                    preempted: vec![1],
                    cause: Some(DelayCause::ReclaimPreemption),
                }),
            ),
            // 7: the preemption, carrying the decision id
            (
                5000,
                SchedEvent::JobPreempt {
                    job: 1,
                    checkpointed: false,
                    decision: Some(6),
                },
            ),
            // 8: relaunch
            (
                8000,
                SchedEvent::JobStart {
                    job: 1,
                    workers: 2,
                    on_loan: false,
                    servers: vec![0],
                },
            ),
            // 9-10: fault kill + restart
            (
                9000,
                SchedEvent::Fault {
                    kind: "job_killed".to_string(),
                    target: 1,
                },
            ),
            (
                9000,
                SchedEvent::Fault {
                    kind: "restart".to_string(),
                    target: 1,
                },
            ),
            // 11: re-placement after the fault
            (
                12000,
                SchedEvent::JobStart {
                    job: 1,
                    workers: 2,
                    on_loan: false,
                    servers: vec![0],
                },
            ),
            // 12: completion
            (20000, SchedEvent::JobComplete { job: 1, jct_s: 20.0 }),
        ])
    }

    #[test]
    fn builds_the_expected_edges() {
        let graph = build_provenance(&sample_events());
        assert!(graph.is_acyclic());
        let has = |from: u64, to: u64, kind: EdgeKind| {
            graph
                .edges()
                .iter()
                .any(|e| e.from == from && e.to == to && e.kind == kind)
        };
        assert!(has(0, 2, EdgeKind::Rank), "admit -> rank");
        assert!(has(2, 3, EdgeKind::Placement), "rank -> placement");
        assert!(has(3, 4, EdgeKind::Launch), "placement -> launch");
        assert!(has(1, 4, EdgeKind::LoanEnabled), "loan-grant -> launch");
        assert!(has(5, 6, EdgeKind::ReclaimRanking), "demand -> choice");
        assert!(has(6, 7, EdgeKind::Preemption), "choice -> preempt");
        assert!(has(7, 8, EdgeKind::Launch), "preempt -> relaunch");
        assert!(has(9, 10, EdgeKind::Restart), "kill -> restart");
        assert!(has(10, 11, EdgeKind::Replacement), "restart -> re-place");
    }

    #[test]
    fn why_names_demand_and_ranking_for_the_preemption() {
        let out = why_from_log(&sample_events(), 1).expect("job exists");
        assert!(out.contains("reclaim-preemption"), "{out}");
        assert!(out.contains("caused by preempt #7"), "{out}");
        assert!(out.contains("<- preempted by victim-ranking #6"), "{out}");
        assert!(out.contains("<- reclaim-ranking by loan-demand #5"), "{out}");
        assert!(out.contains("fault-restart"), "{out}");
        assert!(out.contains("caused by fault-kill #9"), "{out}");
    }

    #[test]
    fn why_errors_on_unknown_job() {
        assert!(why_from_log(&sample_events(), 42).is_err());
    }

    #[test]
    fn blame_charges_the_reclaim_choice() {
        let out = blame_from_log(&sample_events(), 10);
        assert!(out.contains("#6"), "{out}");
        assert!(out.contains("victim-ranking"), "{out}");
        assert!(out.contains("#5"), "demand column: {out}");
        // 3s of reclaim-preemption delay (5000..8000ms), one victim.
        assert!(out.contains("3.000"), "{out}");
    }
}
