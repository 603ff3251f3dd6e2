//! The audited decision chain for one job (the last section of
//! `lyra-bench why <job-id>`), reconstructed from a recorded event log.
//!
//! The audit trail records every decision's verdict (phase-1 rank and
//! admission, phase-2 grant, placement pick, reclaim pick) and its
//! inputs where the decision changed something: SJF estimates for the
//! admitted ranks and the first deferred ones, an MCKP value curve for a
//! launch or a resize, placement and reclaim costs always. This module
//! walks a recorded event stream and narrates every event and decision
//! that touched the requested job, in order. A line whose inputs were not
//! logged says so rather than borrowing them from another epoch.

use crate::attribution::DelayCause;
use crate::audit::AuditRecord;
use crate::event::{SchedEvent, TimedEvent};

fn stamp(time_ms: u64) -> String {
    format!("[t={:>9.1}s]", time_ms as f64 / 1000.0)
}

/// Narrates one audit record for `job`, returning `(collapse_key,
/// text)`. The key carries the decision *outcome* (its delay cause or
/// grant), so a deferred round never collapses into an admitted one.
fn audit_line(rec: &AuditRecord, job: u64) -> Option<(String, String)> {
    match rec {
        AuditRecord::Phase1Order {
            capacity_gpus,
            order,
            admitted,
            estimates,
        } => {
            let rank = order.iter().position(|&j| j == job)? as u32;
            let is_admitted = admitted.binary_search(&rank).is_ok();
            let inputs = match estimates.binary_search_by_key(&rank, |e| e.0) {
                Ok(i) => {
                    let (_, est_running_time_s, base_gpus) = estimates[i];
                    format!(
                        "est running time {est_running_time_s:.0}s, base {base_gpus} GPUs, capacity {capacity_gpus} GPUs"
                    )
                }
                Err(_) => format!(
                    "capacity {capacity_gpus} GPUs; estimates not logged past the first deferrals"
                ),
            };
            let (outcome, verdict) = if is_admitted {
                ("admitted", "admitted")
            } else {
                (DelayCause::GpuScarcity.label(), "deferred")
            };
            Some((
                format!("phase-1 ordering/{outcome}"),
                format!(
                    "phase-1 ordering: rank {}/{} ({inputs}) -> {verdict}",
                    rank + 1,
                    order.len(),
                ),
            ))
        }
        AuditRecord::Phase2Mckp {
            capacity_gpus,
            jobs,
            extra,
            curves,
            ..
        } => {
            let granted = *extra.get(jobs.iter().position(|&j| j == job)?)?;
            let outcome = if granted > 0 {
                "granted"
            } else {
                DelayCause::MckpDenial.label()
            };
            let text = match curves.iter().find(|(j, _)| *j == job) {
                Some((_, values)) => {
                    // Item k grants k + 1 extra workers; a grant past the
                    // capped curve has no logged value.
                    let value = match granted {
                        0 => Some(0.0),
                        k => values.get(k as usize - 1).copied(),
                    };
                    format!(
                        "phase-2 MCKP: {} flexible-demand options (JCT-reduction values {:?}) over {capacity_gpus} leftover GPUs -> granted {granted} extra workers ({})",
                        values.len(),
                        values
                            .iter()
                            .map(|v| (v * 10.0).round() / 10.0)
                            .collect::<Vec<_>>(),
                        value.map_or("value not logged".to_string(), |v| format!("value {v:.1}")),
                    )
                }
                None => format!(
                    "phase-2 MCKP over {capacity_gpus} leftover GPUs -> granted {granted} extra workers (curve not logged: allocation unchanged)"
                ),
            };
            Some((format!("phase-2 MCKP/{outcome}"), text))
        }
        AuditRecord::PlacementDecision {
            job: j,
            role,
            gpus,
            chosen,
            chosen_free_gpus,
            alternatives,
        } if *j == job => {
            let alts: Vec<String> = alternatives
                .iter()
                .map(|(server, free_gpus)| format!("s{server}(free {free_gpus})"))
                .collect();
            Some(match chosen {
                Some(server) => (
                    format!("placement/{role}/chosen"),
                    format!(
                        "placement ({role}, {gpus} GPUs): best-fit chose server {server} (free {chosen_free_gpus}); rejected [{}]",
                        alts.join(", ")
                    ),
                ),
                None => (
                    format!("placement/{role}/failed"),
                    format!(
                        "placement ({role}, {gpus} GPUs): FAILED; candidates [{}]",
                        alts.join(", ")
                    ),
                ),
            })
        }
        AuditRecord::ReclaimChoice {
            need,
            candidates,
            chosen,
            preempted,
            cause,
        } if preempted.contains(&job) => {
            let costs: Vec<String> = candidates
                .iter()
                .map(|c| format!("s{}: cost {:.3} (+{} collateral)", c.server, c.cost, c.collateral_gpus))
                .collect();
            let outcome = cause.map(|c| c.label()).unwrap_or("no-preempt");
            Some((
                format!("reclaim cost search/{outcome}"),
                format!(
                    "reclaim cost search (need {need} servers): picked server {chosen} as cheapest of [{}] -> this job preempted",
                    costs.join("; ")
                ),
            ))
        }
        _ => None,
    }
}

/// Narrates the full causal chain for `job` from a recorded run.
///
/// Returns a multi-line human-readable report; the final line counts
/// the events that touched the job (0 lines of history means the id
/// never appeared in the log). Long runs of the same decision are
/// collapsed to their first and last occurrence; the collapse key is
/// (decision kind, cause/outcome), so a stretch of `gpu-scarcity`
/// deferrals never swallows the admission that ended it.
pub fn explain_job(events: &[TimedEvent], job: u64) -> String {
    let mut lines: Vec<(u64, String, String)> = Vec::new();
    for ev in events {
        let line = match &ev.event {
            SchedEvent::JobAdmit { job: j } if *j == job => Some((
                "admit".to_string(),
                "admitted to the pending queue".to_string(),
            )),
            SchedEvent::JobStart {
                job: j,
                workers,
                on_loan,
                servers,
            } if *j == job => Some((
                "launch".to_string(),
                format!(
                    "launched with {workers} workers on servers {servers:?}{}",
                    if *on_loan { " (partly on loaned capacity)" } else { "" }
                ),
            )),
            SchedEvent::JobScaleOut {
                job: j,
                delta,
                workers,
                on_loan,
                ..
            } if *j == job => Some((
                "scale-out".to_string(),
                format!(
                    "scaled out +{delta} -> {workers} workers{}",
                    if *on_loan { " (partly on loaned capacity)" } else { "" }
                ),
            )),
            SchedEvent::JobScaleIn {
                job: j,
                delta,
                workers,
            } if *j == job => Some((
                "scale-in".to_string(),
                format!("scaled in -{delta} -> {workers} workers"),
            )),
            SchedEvent::ControllerRescale {
                job: j,
                workers,
                pause_s,
            } if *j == job => Some((
                "rendezvous".to_string(),
                format!(
                    "elastic controller rendezvous -> {workers} workers ({pause_s:.0}s pause)"
                ),
            )),
            SchedEvent::FlexRelease {
                job: j,
                server,
                workers,
            } if *j == job => Some((
                "flex-release".to_string(),
                format!(
                    "released {workers} flexible workers from server {server} (reclaim pressure)"
                ),
            )),
            SchedEvent::JobStall {
                job: j,
                cause,
                pause_ms,
            } if *j == job => Some((
                format!("stall/{}", cause.label()),
                format!(
                    "stalled {:.1}s ({})",
                    *pause_ms as f64 / 1000.0,
                    cause.label()
                ),
            )),
            SchedEvent::JobStraggle { job: j, factor } if *j == job => Some((
                format!(
                    "straggle/{}",
                    if *factor < 1.0 { "slow" } else { "recovered" }
                ),
                if *factor < 1.0 {
                    format!("straggling at {factor:.2}x nominal speed")
                } else {
                    "straggler episode ended (back to nominal speed)".to_string()
                },
            )),
            SchedEvent::JobPreempt {
                job: j,
                checkpointed,
                decision,
            } if *j == job => Some((
                "preempt".to_string(),
                format!(
                    "PREEMPTED{}{}",
                    if *checkpointed {
                        " (will resume from checkpoint)"
                    } else {
                        " (restarts from scratch)"
                    },
                    match decision {
                        Some(d) => format!(" by decision #{d}"),
                        None => String::new(),
                    }
                ),
            )),
            SchedEvent::JobComplete { job: j, jct_s } if *j == job => Some((
                "complete".to_string(),
                format!("completed (JCT {jct_s:.0}s)"),
            )),
            SchedEvent::ReclaimGrant {
                demanded,
                preempted,
                ..
            } if preempted.contains(&job) => Some((
                "reclaim-hit".to_string(),
                format!("reclaim of {demanded} servers preempted this job"),
            )),
            SchedEvent::Fault { kind, target } if *target == job => {
                Some((format!("fault/{kind}"), format!("fault: {kind}")))
            }
            SchedEvent::Audit(rec) => audit_line(rec, job),
            _ => None,
        };
        if let Some((key, text)) = line {
            lines.push((ev.time_ms, key, text));
        }
    }
    let mut out = format!("decision chain for job {job}\n");
    let mut i = 0;
    while i < lines.len() {
        let kind = &lines[i].1;
        let mut j = i + 1;
        while j < lines.len() && lines[j].1 == *kind {
            j += 1;
        }
        out.push_str(&format!("  {} {}\n", stamp(lines[i].0), lines[i].2));
        if j - i > 2 {
            let n = j - i - 2;
            let noun = if n == 1 { "decision" } else { "decisions" };
            out.push_str(&format!("  ... ({n} similar {noun} elided)\n"));
        }
        if j - i > 1 {
            let (t, _, text) = &lines[j - 1];
            out.push_str(&format!("  {} {text}\n", stamp(*t)));
        }
        i = j;
    }
    out.push_str(&format!("{} events touched job {job}\n", lines.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::ReclaimCandidate;
    use crate::log::EventLog;

    #[test]
    fn explain_reconstructs_a_preemption_chain() {
        let mut log = EventLog::new();
        log.emit(0, SchedEvent::JobAdmit { job: 42 });
        log.emit(
            60_000,
            SchedEvent::Audit(AuditRecord::Phase1Order {
                capacity_gpus: 16,
                order: vec![42],
                admitted: vec![0],
                estimates: vec![(0, 3600.0, 8)],
            }),
        );
        log.emit(
            60_000,
            SchedEvent::JobStart {
                job: 42,
                workers: 2,
                on_loan: true,
                servers: vec![3, 9],
            },
        );
        log.emit(
            7_200_000,
            SchedEvent::Audit(AuditRecord::ReclaimChoice {
                need: 1,
                candidates: vec![ReclaimCandidate {
                    server: 9,
                    cost: 0.5,
                    collateral_gpus: 2,
                }],
                chosen: 9,
                preempted: vec![42],
                cause: Some(crate::attribution::DelayCause::ReclaimPreemption),
            }),
        );
        log.emit(
            7_200_000,
            SchedEvent::JobPreempt {
                job: 42,
                checkpointed: false,
                decision: None,
            },
        );

        let events = log.take_events();
        let text = explain_job(&events, 42);
        assert!(text.contains("admitted"));
        assert!(text.contains("rank 1/1"));
        assert!(text.contains("launched with 2 workers"));
        assert!(text.contains("picked server 9"));
        assert!(text.contains("PREEMPTED"));
        assert!(text.contains("5 events touched job 42"));
        // A job that never appears yields an empty chain.
        assert!(explain_job(&events, 7).contains("0 events touched job 7"));
    }

    /// A phase-2 record for job 1 alone: `extra` granted, with the value
    /// curve when `curve` (a launch or resize epoch).
    fn mckp(extra: u32, curve: Option<Vec<f64>>) -> SchedEvent {
        SchedEvent::Audit(AuditRecord::Phase2Mckp {
            capacity_gpus: 8,
            jobs: vec![1],
            extra: vec![extra],
            curves: curve.map(|values| (1, values)).into_iter().collect(),
            total_value: 0.0,
            total_weight: extra,
        })
    }

    #[test]
    fn explain_collapses_repeated_decisions() {
        // Five denials whose text differs from each neighbour: even ticks
        // carry a curve with a different value, odd ticks carry none. The
        // collapse is keyed on (kind, outcome), not on the rendered line.
        let mut log = EventLog::new();
        for tick in 0..5u64 {
            let curve = (tick % 2 == 0).then(|| vec![100.0 - tick as f64]);
            log.emit(tick * 60_000, mckp(0, curve));
        }
        let events = log.take_events();
        let text = explain_job(&events, 1);
        // First + elision note + last, not five near-identical lines.
        assert_eq!(text.matches("phase-2 MCKP").count(), 2, "{text}");
        assert!(text.contains("(3 similar decisions elided)"));
        assert!(text.contains("values [100.0]"), "{text}");
        assert!(text.contains("values [96.0]"), "{text}");
        assert!(!text.contains("curve not logged"), "{text}");
        assert!(text.contains("5 events touched job 1"));
    }

    #[test]
    fn explain_prints_a_curve_only_where_one_was_logged() {
        // Launch with a grant of 2 (curve), the same grant kept (no
        // curve), then a resize down to base (curve, denial).
        let mut log = EventLog::new();
        log.emit(0, mckp(2, Some(vec![10.0, 15.04, 17.5])));
        log.emit(60_000, mckp(2, None));
        log.emit(120_000, mckp(0, Some(vec![4.0, 6.0, 7.0])));
        let events = log.take_events();
        let lines: Vec<String> = explain_job(&events, 1).lines().map(str::to_string).collect();
        assert!(
            lines[1].ends_with(
                "phase-2 MCKP: 3 flexible-demand options (JCT-reduction values [10.0, 15.0, 17.5]) \
                 over 8 leftover GPUs -> granted 2 extra workers (value 15.0)"
            ),
            "{lines:#?}"
        );
        assert!(
            lines[2].ends_with(
                "phase-2 MCKP over 8 leftover GPUs -> granted 2 extra workers \
                 (curve not logged: allocation unchanged)"
            ),
            "{lines:#?}"
        );
        assert!(
            lines[3].ends_with("-> granted 0 extra workers (value 0.0)"),
            "{lines:#?}"
        );
        assert!(lines[3].contains("values [4.0, 6.0, 7.0]"), "{lines:#?}");
    }

    #[test]
    fn explain_says_when_a_rank_has_no_logged_estimate() {
        // Rank 1 is admitted, ranks 2 and 3 are deferred and only the
        // first of them carries an estimate.
        let mut log = EventLog::new();
        log.emit(
            0,
            SchedEvent::Audit(AuditRecord::Phase1Order {
                capacity_gpus: 4,
                order: vec![7, 8, 9],
                admitted: vec![0],
                estimates: vec![(0, 50.0, 4), (1, 60.0, 8)],
            }),
        );
        let events = log.take_events();
        let line = |job| explain_job(&events, job).lines().nth(1).unwrap_or("").to_string();
        assert!(line(7).ends_with(
            "phase-1 ordering: rank 1/3 (est running time 50s, base 4 GPUs, capacity 4 GPUs) -> admitted"
        ));
        assert!(line(8).ends_with(
            "phase-1 ordering: rank 2/3 (est running time 60s, base 8 GPUs, capacity 4 GPUs) -> deferred"
        ));
        assert!(line(9).ends_with(
            "phase-1 ordering: rank 3/3 (capacity 4 GPUs; estimates not logged past the first deferrals) -> deferred"
        ));
    }

    #[test]
    fn explain_never_collapses_distinct_causes() {
        // Three gpu-scarcity deferrals followed by an admission: the
        // run-length collapse must break at the cause change instead of
        // swallowing the admission into the deferral run.
        let mut log = EventLog::new();
        for tick in 0..4u64 {
            let admitted = tick == 3;
            log.emit(
                tick * 60_000,
                SchedEvent::Audit(AuditRecord::Phase1Order {
                    capacity_gpus: 0,
                    order: vec![5],
                    admitted: if admitted { vec![0] } else { vec![] },
                    estimates: vec![(0, 100.0, 8)],
                }),
            );
        }
        let events = log.take_events();
        let text = explain_job(&events, 5);
        assert!(
            text.contains("-> admitted"),
            "the admitted round must survive collapsing:\n{text}"
        );
        assert_eq!(
            text.matches("-> deferred").count(),
            2,
            "deferral run keeps first and last:\n{text}"
        );
    }
}
