//! Chrome / Perfetto `trace_event` JSON export.
//!
//! [`export_provenance_trace`] renders a recorded event log onto one
//! zoomable timeline loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>:
//!
//! * **pid 1 "jobs"** — one thread per job; every attributed interval
//!   (from [`attribute_log`]) becomes a matched `B`/`E` span named by
//!   its [`DelayCause`](crate::attribution::DelayCause) label, with
//!   instant markers for preemptions and fault kills.
//! * **pid 2 "scheduler"** — scheduler-epoch spans (`X` complete
//!   events between consecutive `SchedulerEpoch` emissions) plus a
//!   queued/running counter track.
//! * **pid 3 "capacity"** — a loaned-servers counter driven by
//!   `LoanGrant`/`ReclaimGrant`, with instant markers for reclaim
//!   grants, carryovers and deadline misses.
//! * **flow events** (`ph: "s"` / `"f"`) derived from the provenance
//!   graph: preemption arrows run from the scheduler track to the
//!   victim's job track, and loan arrows to the launch or scale-out the
//!   loan enabled — so cross-job causality renders as arrows between
//!   tracks.
//!
//! Timestamps are simulated microseconds (`time_ms * 1000`) — never
//! wall-clock — so same-seed runs export byte-identical traces.
//! [`validate_chrome_trace`] is the minimal schema check CI runs against
//! every exported trace: well-formed JSON, monotone `ts` per
//! `(pid, tid)` track, and matched `B`/`E` pairs.

use serde::Value;

use crate::event::{SchedEvent, TimedEvent};
use crate::graph::EdgeKind;
use crate::lifecycle::attribute_log;
use crate::provenance::build_provenance;

const PID_JOBS: u64 = 1;
const PID_SCHED: u64 = 2;
const PID_CAPACITY: u64 = 3;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn vs(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn vu(v: u64) -> Value {
    Value::UInt(v)
}

/// Sort rank within one timestamp: close spans before opening new ones
/// so per-track `ts` order keeps `E` ahead of the adjacent `B`, and
/// flow events (`s`/`f`) after the slices they bind into.
fn phase_rank(ph: &str) -> u8 {
    match ph {
        "M" => 0,
        "E" => 1,
        "i" => 2,
        "C" => 3,
        "X" => 4,
        "B" => 5,
        _ => 6, // flows ("s"/"f")
    }
}

/// Trace events rendered into one text buffer as they are pushed,
/// indexed by `(ts, phase rank, start, end)` byte ranges into it. The
/// start offset grows with push order, so it is the final tie-break.
struct TraceBuilder {
    events: Vec<(u64, u8, usize, usize)>,
    text: String,
}

impl TraceBuilder {
    fn new() -> Self {
        TraceBuilder {
            events: Vec::new(),
            text: String::new(),
        }
    }

    fn push(&mut self, ts_us: u64, ph: &str, value: Value) {
        let start = self.text.len();
        serde::write_compact(&mut self.text, &value);
        self.events.push((ts_us, phase_rank(ph), start, self.text.len()));
    }

    fn meta(&mut self, pid: u64, tid: u64, kind: &str, name: &str) {
        self.push(
            0,
            "M",
            obj(vec![
                ("name", vs(kind)),
                ("ph", vs("M")),
                ("ts", vu(0)),
                ("pid", vu(pid)),
                ("tid", vu(tid)),
                ("args", obj(vec![("name", vs(name))])),
            ]),
        );
    }

    fn render(mut self) -> String {
        // The keys are unique (start offsets differ), so an unstable
        // sort gives the push-order tie-break without a merge buffer.
        self.events.sort_unstable();
        let head = "{\"traceEvents\":[\n";
        let tail = "\n]}\n";
        let seps = 2 * self.events.len().saturating_sub(1);
        let mut out = String::with_capacity(head.len() + self.text.len() + seps + tail.len());
        out.push_str(head);
        for (i, &(_, _, start, end)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&self.text[start..end]);
        }
        out.push_str(tail);
        out
    }
}

/// Builds the standard trace (lifelines, markers, counters, epoch
/// spans) without rendering, so the flow events can be added to it.
fn build_trace(events: &[TimedEvent]) -> TraceBuilder {
    let mut b = TraceBuilder::new();
    b.meta(PID_JOBS, 0, "process_name", "jobs");
    b.meta(PID_SCHED, 0, "process_name", "scheduler");
    b.meta(PID_CAPACITY, 0, "process_name", "capacity");
    b.meta(PID_SCHED, 1, "thread_name", "epochs");

    // Job lifelines: one B/E span per attributed interval.
    let attrs = attribute_log(events);
    for a in &attrs {
        let tid = a.job + 1; // tid 0 is reserved for process metadata
        b.meta(PID_JOBS, tid, "thread_name", &format!("job {}", a.job));
        for iv in &a.intervals {
            b.push(
                iv.start_ms * 1000,
                "B",
                obj(vec![
                    ("name", vs(iv.cause.label())),
                    ("cat", vs("job")),
                    ("ph", vs("B")),
                    ("ts", vu(iv.start_ms * 1000)),
                    ("pid", vu(PID_JOBS)),
                    ("tid", vu(tid)),
                    ("args", obj(vec![("cause", vs(iv.cause.label()))])),
                ]),
            );
            b.push(
                iv.end_ms * 1000,
                "E",
                obj(vec![
                    ("name", vs(iv.cause.label())),
                    ("cat", vs("job")),
                    ("ph", vs("E")),
                    ("ts", vu(iv.end_ms * 1000)),
                    ("pid", vu(PID_JOBS)),
                    ("tid", vu(tid)),
                ]),
            );
        }
    }

    // Markers, counters and epoch spans from the raw stream.
    let mut loaned: u64 = 0;
    let mut epochs: Vec<(u64, u32, u32, u32)> = Vec::new();
    let mut last_us = 0u64;
    for ev in events {
        let ts = ev.time_ms * 1000;
        last_us = last_us.max(ts);
        match &ev.event {
            SchedEvent::JobPreempt {
                job, checkpointed, ..
            } => {
                b.push(
                    ts,
                    "i",
                    obj(vec![
                        ("name", vs("preempt")),
                        ("cat", vs("job")),
                        ("ph", vs("i")),
                        ("s", vs("t")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_JOBS)),
                        ("tid", vu(job + 1)),
                        ("args", obj(vec![("checkpointed", Value::Bool(*checkpointed))])),
                    ]),
                );
            }
            SchedEvent::Fault { kind, target } if kind == "job_killed" => {
                b.push(
                    ts,
                    "i",
                    obj(vec![
                        ("name", vs("fault-kill")),
                        ("cat", vs("job")),
                        ("ph", vs("i")),
                        ("s", vs("t")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_JOBS)),
                        ("tid", vu(target + 1)),
                    ]),
                );
            }
            SchedEvent::SchedulerEpoch {
                launches,
                queued,
                running,
            } => {
                epochs.push((ts, *launches, *queued, *running));
                b.push(
                    ts,
                    "C",
                    obj(vec![
                        ("name", vs("scheduler-load")),
                        ("ph", vs("C")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_SCHED)),
                        ("tid", vu(0)),
                        (
                            "args",
                            obj(vec![
                                ("queued", vu(u64::from(*queued))),
                                ("running", vu(u64::from(*running))),
                            ]),
                        ),
                    ]),
                );
            }
            SchedEvent::LoanGrant { servers } => {
                loaned += servers.len() as u64;
                b.push(
                    ts,
                    "C",
                    obj(vec![
                        ("name", vs("loaned-servers")),
                        ("ph", vs("C")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_CAPACITY)),
                        ("tid", vu(0)),
                        ("args", obj(vec![("loaned", vu(loaned))])),
                    ]),
                );
            }
            SchedEvent::ReclaimGrant {
                demanded,
                returned_flex,
                returned_idle,
                returned_preempt,
                ..
            } => {
                let returned = u64::from(returned_flex + returned_idle + returned_preempt);
                loaned = loaned.saturating_sub(returned);
                b.push(
                    ts,
                    "C",
                    obj(vec![
                        ("name", vs("loaned-servers")),
                        ("ph", vs("C")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_CAPACITY)),
                        ("tid", vu(0)),
                        ("args", obj(vec![("loaned", vu(loaned))])),
                    ]),
                );
                b.push(
                    ts,
                    "i",
                    obj(vec![
                        ("name", vs("reclaim")),
                        ("cat", vs("capacity")),
                        ("ph", vs("i")),
                        ("s", vs("p")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_CAPACITY)),
                        ("tid", vu(0)),
                        ("args", obj(vec![("demanded", vu(u64::from(*demanded)))])),
                    ]),
                );
            }
            SchedEvent::ReclaimCarryover { servers, .. } => {
                b.push(
                    ts,
                    "i",
                    obj(vec![
                        ("name", vs("reclaim-carryover")),
                        ("cat", vs("capacity")),
                        ("ph", vs("i")),
                        ("s", vs("p")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_CAPACITY)),
                        ("tid", vu(0)),
                        ("args", obj(vec![("owed", vu(u64::from(*servers)))])),
                    ]),
                );
            }
            SchedEvent::ReclaimDeadlineMiss { servers } => {
                b.push(
                    ts,
                    "i",
                    obj(vec![
                        ("name", vs("reclaim-deadline-miss")),
                        ("cat", vs("capacity")),
                        ("ph", vs("i")),
                        ("s", vs("p")),
                        ("ts", vu(ts)),
                        ("pid", vu(PID_CAPACITY)),
                        ("tid", vu(0)),
                        ("args", obj(vec![("owed", vu(u64::from(*servers)))])),
                    ]),
                );
            }
            _ => {}
        }
    }

    // Scheduler-epoch spans: each emitted epoch state holds until the
    // next emission (or end of log).
    for (i, (ts, launches, queued, running)) in epochs.iter().enumerate() {
        let end = epochs.get(i + 1).map(|e| e.0).unwrap_or(last_us);
        if end <= *ts {
            continue;
        }
        b.push(
            *ts,
            "X",
            obj(vec![
                ("name", vs("epoch")),
                ("cat", vs("scheduler")),
                ("ph", vs("X")),
                ("ts", vu(*ts)),
                ("dur", vu(end - ts)),
                ("pid", vu(PID_SCHED)),
                ("tid", vu(1)),
                (
                    "args",
                    obj(vec![
                        ("launches", vu(u64::from(*launches))),
                        ("queued", vu(u64::from(*queued))),
                        ("running", vu(u64::from(*running))),
                    ]),
                ),
            ]),
        );
    }

    b
}

/// Exports a parsed event log as Chrome `trace_event` JSON (one event
/// per line inside `traceEvents`, so pinned traces diff readably): the
/// job lifelines, scheduler and capacity tracks, plus Perfetto flow
/// events derived from the provenance graph.
///
/// Each `Preemption` edge becomes a `preempt-flow` arrow from the
/// scheduler track (where the victim ranking ran) to the victim's job
/// track at the preemption instant; each `LoanEnabled` edge becomes a
/// `loan-flow` arrow to the launch or scale-out the loan enabled. Flow
/// ids are assigned in deterministic edge order, so same-seed exports
/// are byte-identical.
pub fn export_provenance_trace(events: &[TimedEvent]) -> String {
    let mut b = build_trace(events);
    let graph = build_provenance(events);
    let mut flow_id = 0u64;
    for e in graph.edges() {
        let name = match e.kind {
            EdgeKind::Preemption => "preempt-flow",
            EdgeKind::LoanEnabled => "loan-flow",
            _ => continue,
        };
        let (Some(from), Some(to)) = (graph.node(e.from), graph.node(e.to)) else {
            continue;
        };
        let Some(job) = to.job else { continue };
        flow_id += 1;
        b.push(
            from.time_ms * 1000,
            "s",
            obj(vec![
                ("name", vs(name)),
                ("cat", vs("provenance")),
                ("ph", vs("s")),
                ("id", vu(flow_id)),
                ("ts", vu(from.time_ms * 1000)),
                ("pid", vu(PID_SCHED)),
                ("tid", vu(1)),
                ("args", obj(vec![("decision", vu(e.from))])),
            ]),
        );
        b.push(
            to.time_ms * 1000,
            "f",
            obj(vec![
                ("name", vs(name)),
                ("cat", vs("provenance")),
                ("ph", vs("f")),
                ("bp", vs("e")),
                ("id", vu(flow_id)),
                ("ts", vu(to.time_ms * 1000)),
                ("pid", vu(PID_JOBS)),
                ("tid", vu(job + 1)),
                ("args", obj(vec![("decision", vu(e.from))])),
            ]),
        );
    }
    b.render()
}

/// Summary statistics from a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
    /// Matched `B`/`E` span pairs.
    pub span_pairs: usize,
    /// Flow events (`s`/`f` phases).
    pub flow_events: usize,
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn field_u64(ev: &Value, key: &str) -> Result<u64, String> {
    ev.get(key)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

/// Minimal `trace_event` schema check: well-formed JSON with a
/// `traceEvents` array, every event carrying `name`/`ph`/`ts`/`pid`/
/// `tid`, `ts` monotone (non-decreasing) per `(pid, tid)` track in file
/// order, `B`/`E` events forming matched, name-consistent pairs, and
/// flow events (`s`/`f`) carrying the mandatory `id`.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| {
        format!(
            "malformed JSON at line {} col {}: {e}",
            e.line(),
            e.column()
        )
    })?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("top-level `traceEvents` array missing")?;
    let mut last_ts: std::collections::HashMap<(u64, u64), u64> =
        std::collections::HashMap::new();
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    let mut span_pairs = 0usize;
    let mut flow_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let err = |msg: String| format!("event {i}: {msg}");
        if !matches!(ev, Value::Object(_)) {
            return Err(err("not an object".into()));
        }
        let name = ev
            .get("name")
            .and_then(as_str)
            .ok_or_else(|| err("missing `name`".into()))?;
        let ph = ev
            .get("ph")
            .and_then(as_str)
            .ok_or_else(|| err("missing `ph`".into()))?;
        if !matches!(ph, "B" | "E" | "X" | "i" | "C" | "M" | "s" | "f") {
            return Err(err(format!("unsupported phase {ph:?}")));
        }
        let ts = field_u64(ev, "ts").map_err(err)?;
        let pid = field_u64(ev, "pid").map_err(err)?;
        let tid = field_u64(ev, "tid").map_err(err)?;
        if ph == "X" {
            field_u64(ev, "dur").map_err(err)?;
        }
        if matches!(ph, "s" | "f") {
            field_u64(ev, "id").map_err(err)?;
            flow_events += 1;
        }
        let track = (pid, tid);
        if let Some(prev) = last_ts.get(&track) {
            if ts < *prev {
                return Err(err(format!(
                    "ts {ts} goes backwards on track pid={pid} tid={tid} (prev {prev})"
                )));
            }
        }
        last_ts.insert(track, ts);
        match ph {
            "B" => stacks.entry(track).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(track)
                    .or_default()
                    .pop()
                    .ok_or_else(|| err(format!("E {name:?} with no open B on track")))?;
                if open != name {
                    return Err(err(format!("E {name:?} closes B {open:?}")));
                }
                span_pairs += 1;
            }
            _ => {}
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unclosed B {open:?} on track pid={pid} tid={tid}"
            ));
        }
    }
    Ok(ChromeTraceStats {
        events: events.len(),
        tracks: last_ts.len(),
        span_pairs,
        flow_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<TimedEvent> {
        let raw = vec![
            (0, SchedEvent::JobAdmit { job: 0 }),
            (
                0,
                SchedEvent::LoanGrant {
                    servers: vec![4, 5],
                },
            ),
            (
                1_000,
                SchedEvent::JobStart {
                    job: 0,
                    workers: 2,
                    on_loan: true,
                    servers: vec![4, 5],
                },
            ),
            (
                1_000,
                SchedEvent::SchedulerEpoch {
                    launches: 1,
                    queued: 0,
                    running: 1,
                },
            ),
            (
                5_000,
                SchedEvent::ReclaimGrant {
                    demanded: 2,
                    returned_flex: 0,
                    returned_idle: 0,
                    returned_preempt: 2,
                    preempted: vec![0],
                    collateral_gpus: 0,
                },
            ),
            (
                5_000,
                SchedEvent::Audit(crate::audit::AuditRecord::ReclaimChoice {
                    need: 2,
                    candidates: vec![],
                    chosen: 4,
                    preempted: vec![0],
                    cause: Some(crate::attribution::DelayCause::ReclaimPreemption),
                }),
            ),
            (
                5_000,
                SchedEvent::JobPreempt {
                    job: 0,
                    checkpointed: false,
                    // seq of the ReclaimChoice audit above (enumerate order).
                    decision: Some(5),
                },
            ),
            (
                8_000,
                SchedEvent::JobStart {
                    job: 0,
                    workers: 2,
                    on_loan: false,
                    servers: vec![0, 1],
                },
            ),
            (
                12_000,
                SchedEvent::JobComplete {
                    job: 0,
                    jct_s: 12.0,
                },
            ),
        ];
        raw.into_iter()
            .enumerate()
            .map(|(i, (t, e))| TimedEvent {
                time_ms: t,
                seq: i as u64,
                event: e,
            })
            .collect()
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Unmatched B.
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(t).unwrap_err().contains("unclosed B"));
        // Backwards ts on one track.
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":10,"pid":1,"tid":1},
            {"name":"b","ph":"i","ts":5,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(t)
            .unwrap_err()
            .contains("goes backwards"));
        // Mismatched B/E names.
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(t).unwrap_err().contains("closes B"));
        // Different tracks may interleave freely.
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":10,"pid":1,"tid":1},
            {"name":"b","ph":"i","ts":5,"pid":1,"tid":2}
        ]}"#;
        assert!(validate_chrome_trace(t).is_ok());
        // Flow events need an id.
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"s","ts":1,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(t).unwrap_err().contains("id"));
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"s","ts":1,"pid":1,"tid":1,"id":7},
            {"name":"a","ph":"f","bp":"e","ts":2,"pid":1,"tid":2,"id":7}
        ]}"#;
        assert!(validate_chrome_trace(t).is_ok());
    }

    #[test]
    fn exported_trace_validates_and_carries_lifelines_and_flows() {
        let log = sample_log();
        let trace = export_provenance_trace(&log);
        let stats = validate_chrome_trace(&trace).expect("valid trace");
        assert!(stats.span_pairs >= 4, "lifeline spans present: {stats:?}");
        assert!(stats.tracks >= 3);
        assert!(trace.contains("reclaim-preemption"));
        assert!(trace.contains("loaned-servers"));
        assert!(trace.contains("preempt-flow"), "{trace}");
        assert!(trace.contains("loan-flow"), "{trace}");
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\""));
        assert_eq!(
            trace,
            export_provenance_trace(&log),
            "byte-identical re-export"
        );
    }
}
