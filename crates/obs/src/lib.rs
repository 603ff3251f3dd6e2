#![warn(missing_docs)]

//! # lyra-obs
//!
//! Zero-dependency observability for the Lyra stack (vendored `serde` /
//! `serde_json` only — the build stays fully offline).
//!
//! Production schedulers live or die by their visibility into every
//! placement and preemption decision; this crate gives the reproduction
//! the same four pillars a real deployment would have:
//!
//! * [`event`] + [`log`] — a **structured event log**: typed, serialisable
//!   scheduler events written to one destination — JSON Lines in a file
//!   sink when one is attached, the typed events in memory otherwise (an
//!   in-memory log keeps every event, so trace-scale runs should use a
//!   sink). [`log`] alone owns the JSONL format: its sink encoder,
//!   [`to_jsonl`] and [`parse_log`]. Event payloads carry only simulated
//!   quantities, so two runs with the same seed produce byte-identical
//!   logs.
//! * [`timeseries`] — **metrics and continuous telemetry** in one
//!   store: per-epoch scheduler health gauges sampled into
//!   fixed-capacity ring series with deterministic decimation (bounded
//!   memory at 1M-job scale), cumulative event counters counted off the
//!   event stream, fixed-bucket histograms and a CSV export — all
//!   byte-reproducible under the same seed.
//! * [`span`] — **span timing** for the hot paths (MCKP DP, best-fit
//!   placement, reclaim cost search, engine ticks), aggregated into a
//!   per-phase self-time profile.
//! * [`audit`] — a **decision audit trail**: phase-1 orderings, phase-2
//!   MCKP allocations, placement and reclaim choices record their inputs
//!   so [`explain`] can narrate every decision that touched one job.
//!
//! On top of the event log sits the **causal delay-attribution layer**:
//! [`lifecycle`] replays the stream through a per-job state machine,
//! [`attribution`] decomposes every job's completion time into
//! cause-attributed intervals that reconcile exactly (Σ intervals ==
//! completion − arrival, checked end-of-run), and [`chrome`] exports
//! the whole run as Chrome/Perfetto `trace_event` JSON with provenance
//! flow arrows.
//!
//! [`provenance`] + [`graph`] add **decision provenance**: every
//! scheduling decision gets a stable `DecisionId` (its log `seq`) and
//! the events form a causal graph — admission → rank → MCKP verdict →
//! placement → launch per job, plus the cross-job edges (loan-grant →
//! the scale-out it enabled, loan-demand → victim ranking → the
//! preemptions it triggered, fault → restart → re-placement). The graph
//! is built from the logged events alone ([`build_provenance`]), so a
//! live run and any JSONL log of it yield the same graph; it renders as
//! `why`/`blame` reports and Perfetto flow arrows.
//!
//! [`observer`] ties them together for a simulator run: one
//! [`Observer`] owns the log, the delay-attribution tracker and the
//! telemetry store, and every event reaches all of them through one
//! call.
//!
//! [`output`] is the small experiment-output writer used by the bench
//! CLI's `--quiet` / `--json` modes.
//!
//! The span and audit collectors are thread-local: the simulator runs one
//! simulation per thread (the bench harness fans scenarios out with
//! `std::thread::scope`), so per-thread state isolates concurrent runs
//! without any handle threading through the algorithm crates.

pub mod attribution;
pub mod audit;
pub mod chrome;
pub mod event;
pub mod explain;
pub mod graph;
pub mod lifecycle;
pub mod log;
pub mod observer;
pub mod output;
pub mod provenance;
pub mod span;
pub mod timeseries;

pub use attribution::{
    render_job, render_top, summarize, AttributedInterval, AttributionSummary, CauseStat,
    DelayCause, JobAttribution,
};
pub use audit::{AuditRecord, ReclaimCandidate};
pub use chrome::{export_provenance_trace, validate_chrome_trace, ChromeTraceStats};
pub use event::{SchedEvent, TimedEvent, KIND_NAMES};
pub use explain::explain_job;
pub use graph::{
    DecisionId, EdgeKind, NodeKind, ProvenanceEdge, ProvenanceGraph, ProvenanceNode,
};
pub use lifecycle::{attribute_log, LifecycleTracker};
pub use log::{parse_log, to_jsonl, EventLog};
pub use observer::{Observer, ObserverConfig};
pub use provenance::{blame_from_log, build_provenance, render_blame, render_why, why_from_log};
pub use output::OutputMode;
pub use span::{PhaseStat, Profile, SpanGuard};
pub use timeseries::{Histogram, RingSeries, SeriesPoint, Telemetry};
