//! The decision-provenance graph: nodes are scheduling decisions, edges
//! are causal links between them.
//!
//! Every node is keyed by its [`DecisionId`] — the log sequence number
//! of the [`TimedEvent`](crate::TimedEvent) that recorded the decision.
//! Sequence numbers are persisted in the JSONL lines themselves, so a
//! DecisionId is stable across live runs and log replay: the same
//! decision carries the same id everywhere.
//!
//! Because a cause is always logged before its effects, every edge runs
//! from a lower sequence number to a higher one; the graph is acyclic
//! by construction (and [`ProvenanceGraph::is_acyclic`] checks the
//! invariant explicitly).

use std::collections::BTreeMap;

/// Stable identifier of a scheduling decision: the log `seq` of the
/// event that recorded it.
pub type DecisionId = u64;

/// What kind of decision (or decision-relevant lifecycle event) a node
/// represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    /// A job was admitted to the pending queue (`JobAdmit`).
    Admit,
    /// A phase-1 shortest-job-first ranking (`Phase1Order` audit).
    Rank,
    /// A phase-2 MCKP group verdict (`Phase2Mckp` audit).
    MckpVerdict,
    /// A best-fit-decreasing placement attempt (`PlacementDecision`
    /// audit).
    Placement,
    /// A gang launch (`JobStart`).
    Launch,
    /// An elastic scale-out (`JobScaleOut`).
    ScaleOut,
    /// Idle inference capacity was loaned out (`LoanGrant`).
    LoanGrant,
    /// The inference side demanded loaned servers back
    /// (`ReclaimDemand`) — the loan-demand decision that starts a
    /// reclaim wave.
    ReclaimDemand,
    /// A cost-guided victim ranking picked a server to vacate
    /// (`ReclaimChoice` audit).
    ReclaimChoice,
    /// A job was preempted (`JobPreempt`).
    Preempt,
    /// A fault killed a job (`Fault { kind: "job_killed" }`).
    Kill,
    /// A killed job was rescheduled for restart
    /// (`Fault { kind: "restart" }`).
    Restart,
}

impl NodeKind {
    /// Human-readable label used by the `why` / `blame` renderers.
    pub fn label(&self) -> &'static str {
        match self {
            NodeKind::Admit => "admit",
            NodeKind::Rank => "phase1-rank",
            NodeKind::MckpVerdict => "mckp-verdict",
            NodeKind::Placement => "placement",
            NodeKind::Launch => "launch",
            NodeKind::ScaleOut => "scale-out",
            NodeKind::LoanGrant => "loan-grant",
            NodeKind::ReclaimDemand => "loan-demand",
            NodeKind::ReclaimChoice => "victim-ranking",
            NodeKind::Preempt => "preempt",
            NodeKind::Kill => "fault-kill",
            NodeKind::Restart => "restart",
        }
    }
}

/// The causal relationship an edge encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Admission (or a prior preemption/restart) fed a phase-1 ranking.
    Rank,
    /// A ranking fed an MCKP group verdict.
    MckpVerdict,
    /// A verdict fed a placement attempt.
    Placement,
    /// The decision chain culminated in a launch.
    Launch,
    /// A loan grant enabled this launch or elastic scale-out (one of
    /// its workers landed on a loaned server).
    LoanEnabled,
    /// A loan-demand decision triggered this victim ranking.
    ReclaimRanking,
    /// A victim ranking preempted this specific job.
    Preemption,
    /// A fault kill led to this restart decision.
    Restart,
    /// A restart decision led to this re-placement (the job's next
    /// launch).
    Replacement,
}

impl EdgeKind {
    /// Human-readable label used by the `why` renderer.
    pub fn label(&self) -> &'static str {
        match self {
            EdgeKind::Rank => "ranked",
            EdgeKind::MckpVerdict => "mckp",
            EdgeKind::Placement => "placed",
            EdgeKind::Launch => "launched",
            EdgeKind::LoanEnabled => "loan-enabled",
            EdgeKind::ReclaimRanking => "reclaim-ranking",
            EdgeKind::Preemption => "preempted",
            EdgeKind::Restart => "restarted",
            EdgeKind::Replacement => "re-placed",
        }
    }
}

/// One decision node.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceNode {
    /// The decision's stable id (log `seq`).
    pub id: DecisionId,
    /// Simulated time the decision was recorded, milliseconds.
    pub time_ms: u64,
    /// What kind of decision this is.
    pub kind: NodeKind,
    /// The job the decision concerns, when it concerns exactly one.
    pub job: Option<u64>,
}

/// One causal edge; `from` is the cause, `to` the effect.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceEdge {
    /// Cause decision.
    pub from: DecisionId,
    /// Effect decision.
    pub to: DecisionId,
    /// What the link means.
    pub kind: EdgeKind,
}

/// The causal graph of scheduling decisions for one run (or one log).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceGraph {
    nodes: BTreeMap<DecisionId, ProvenanceNode>,
    edges: Vec<ProvenanceEdge>,
}

impl ProvenanceGraph {
    /// Inserts a node (last write wins; ids are unique in practice).
    pub fn add_node(&mut self, node: ProvenanceNode) {
        self.nodes.insert(node.id, node);
    }

    /// Appends an edge.
    pub fn add_edge(&mut self, from: DecisionId, to: DecisionId, kind: EdgeKind) {
        self.edges.push(ProvenanceEdge { from, to, kind });
    }

    /// Looks up a node by id.
    pub fn node(&self, id: DecisionId) -> Option<&ProvenanceNode> {
        self.nodes.get(&id)
    }

    /// All nodes, ascending by id.
    pub fn nodes(&self) -> impl Iterator<Item = &ProvenanceNode> {
        self.nodes.values()
    }

    /// All edges, in insertion (emission) order.
    pub fn edges(&self) -> &[ProvenanceEdge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edges whose effect is `id`, in insertion order.
    pub fn incoming(&self, id: DecisionId) -> impl Iterator<Item = &ProvenanceEdge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Edges whose cause is `id`, in insertion order.
    pub fn outgoing(&self, id: DecisionId) -> impl Iterator<Item = &ProvenanceEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// The latest node of `kind` for `job` recorded at or before
    /// `time_ms` — the anchor lookup `why`/`blame` use to join a delay
    /// interval back to the decision that opened it.
    pub fn latest_for_job(
        &self,
        job: u64,
        kind: NodeKind,
        time_ms: u64,
    ) -> Option<&ProvenanceNode> {
        self.nodes
            .values()
            .rfind(|n| n.job == Some(job) && n.kind == kind && n.time_ms <= time_ms)
    }

    /// Checks the causal-order invariant: every edge runs from a lower
    /// sequence number (cause) to a higher one (effect), and both
    /// endpoints exist. This is strictly stronger than acyclicity.
    pub fn is_acyclic(&self) -> bool {
        self.edges.iter().all(|e| {
            e.from < e.to && self.nodes.contains_key(&e.from) && self.nodes.contains_key(&e.to)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: DecisionId, kind: NodeKind, job: Option<u64>) -> ProvenanceNode {
        ProvenanceNode {
            id,
            time_ms: id * 10,
            kind,
            job,
        }
    }

    #[test]
    fn edges_and_lookups_work() {
        let mut g = ProvenanceGraph::default();
        g.add_node(node(1, NodeKind::ReclaimDemand, None));
        g.add_node(node(2, NodeKind::ReclaimChoice, None));
        g.add_node(node(3, NodeKind::Preempt, Some(7)));
        g.add_edge(1, 2, EdgeKind::ReclaimRanking);
        g.add_edge(2, 3, EdgeKind::Preemption);
        assert!(g.is_acyclic());
        assert_eq!(g.incoming(3).count(), 1);
        assert_eq!(g.outgoing(1).count(), 1);
        assert_eq!(
            g.latest_for_job(7, NodeKind::Preempt, 30).map(|n| n.id),
            Some(3)
        );
        assert_eq!(g.latest_for_job(7, NodeKind::Preempt, 29), None);
    }

    #[test]
    fn backwards_edge_breaks_acyclicity() {
        let mut g = ProvenanceGraph::default();
        g.add_node(node(1, NodeKind::Admit, Some(1)));
        g.add_node(node(2, NodeKind::Launch, Some(1)));
        g.add_edge(2, 1, EdgeKind::Launch);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn dangling_edge_breaks_acyclicity() {
        let mut g = ProvenanceGraph::default();
        g.add_node(node(1, NodeKind::Admit, Some(1)));
        g.add_edge(1, 99, EdgeKind::Launch);
        assert!(!g.is_acyclic());
    }
}
