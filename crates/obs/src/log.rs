//! The event log, and the one place that knows its JSONL format.
//!
//! A log writes each event once. With a file sink attached, the vendored
//! serde's direct writer (`Serialize::write_json`) encodes the event from
//! its typed fields into one reused buffer, with no intermediate `Value`
//! tree, and the line goes to the file only. Without a sink, the log
//! keeps the typed events in memory (`why`, tests, the run report) and
//! encodes nothing; trace-scale runs should still use a sink, since
//! every event stays resident. Serialisation is deterministic — map-free
//! payloads, fields in declaration order — so a same-seed sink file and
//! [`to_jsonl`] of the in-memory events are byte-identical.
//!
//! [`to_jsonl`] encodes typed events with the sink's per-line encoder,
//! and [`parse_log`] reads a JSONL log back into typed events.
//!
//! A failed sink write does not stop the run: the log keeps the first
//! I/O error, stops writing, and [`EventLog::flush`] returns it naming
//! the sink, so no line is lost silently.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::event::{SchedEvent, TimedEvent};

/// Event log writing each event once: as a JSON line to a file sink
/// when one is attached, as a typed event into memory otherwise.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Every emitted event, oldest first; empty with a sink.
    events: Vec<TimedEvent>,
    sink: Option<BufWriter<File>>,
    sink_path: Option<PathBuf>,
    /// The first sink I/O error; the sink is closed when it is set.
    error: Option<std::io::Error>,
    seq: u64,
    /// Encode buffer reused across sink lines.
    buf: String,
}

impl EventLog {
    /// Creates an in-memory log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Attaches a file sink (truncating any existing file); every
    /// subsequent event goes to `path` instead of memory.
    pub fn with_sink(mut self, path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        self.sink = Some(BufWriter::new(file));
        self.sink_path = Some(path.to_path_buf());
        Ok(self)
    }

    /// Stamps `event` with `time_ms` and the next sequence number, then
    /// writes it to the log's destination. Returns the sequence number
    /// assigned — the event's stable `DecisionId` for decision
    /// provenance (persisted in the line itself, so it survives log
    /// replay unchanged).
    pub fn emit(&mut self, time_ms: u64, event: SchedEvent) -> u64 {
        let seq = self.seq;
        let timed = TimedEvent {
            time_ms,
            seq,
            event,
        };
        self.seq += 1;
        if self.sink_path.is_none() {
            self.events.push(timed);
        } else if let Some(sink) = &mut self.sink {
            self.buf.clear();
            timed.write_json(&mut self.buf);
            let written = sink
                .write_all(self.buf.as_bytes())
                .and_then(|()| sink.write_all(b"\n"));
            if let Err(e) = written {
                self.error.get_or_insert(e);
                self.sink = None;
            }
        }
        seq
    }

    /// Moves the in-memory events out, oldest first, leaving none
    /// behind. The sequence cursor is untouched.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Flushes the file sink, if any.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink ever hit — on this flush or
    /// on an earlier write — with the sink's path.
    pub fn flush(&mut self) -> Result<(), String> {
        if let Some(Err(e)) = self.sink.as_mut().map(BufWriter::flush) {
            self.error.get_or_insert(e);
            self.sink = None;
        }
        match (&self.error, &self.sink_path) {
            (Some(e), Some(path)) => Err(format!("event-log sink {}: {e}", path.display())),
            _ => Ok(()),
        }
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Encodes `events` as JSONL, one line each with the sink's encoder
/// (trailing newline included when non-empty): the bytes a sink run of
/// the same events writes.
pub fn to_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for timed in events {
        timed.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSONL event log (as written by an [`EventLog`] sink or
/// [`to_jsonl`]) back into timed events.
///
/// Returns `Err` naming the first malformed line and the byte column
/// in it, as `line N col M: <message>` — with one deliberate
/// exception: a malformed *final* line in a log that does not end with
/// a newline is a torn tail from a crash mid-write.
/// That line is skipped with a warning so an otherwise-intact log
/// replays cleanly after a crash; a malformed line anywhere else (or a
/// newline-terminated final line) stays a hard error, since it means
/// corruption rather than a cut.
pub fn parse_log(jsonl: &str) -> Result<Vec<TimedEvent>, String> {
    let torn_tail_possible = !jsonl.is_empty() && !jsonl.ends_with('\n');
    let mut events = Vec::new();
    let mut lines = jsonl.lines().enumerate().peekable();
    while let Some((no, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<TimedEvent>(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                let indent = raw.len() - raw.trim_start().len();
                let at = format!("line {} col {}: {e}", no + 1, indent + e.column());
                if !(torn_tail_possible && lines.peek().is_none()) {
                    return Err(at);
                }
                eprintln!("warning: skipping torn final log line (crash artifact): {at}");
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::DelayCause;
    use crate::audit::{AuditRecord, ReclaimCandidate};
    use crate::event::KIND_NAMES;

    /// Variant name of an audit record. Exhaustive on purpose: a new
    /// variant fails to compile here until it gets a sample below.
    fn audit_kind(rec: &AuditRecord) -> &'static str {
        match rec {
            AuditRecord::Phase1Order { .. } => "Phase1Order",
            AuditRecord::Phase2Mckp { .. } => "Phase2Mckp",
            AuditRecord::PlacementDecision { .. } => "PlacementDecision",
            AuditRecord::ReclaimChoice { .. } => "ReclaimChoice",
        }
    }

    /// One sample of every audit record variant.
    fn audit_samples() -> Vec<AuditRecord> {
        vec![
            AuditRecord::Phase1Order {
                capacity_gpus: 64,
                order: vec![3, u64::MAX, 12],
                admitted: vec![0],
                estimates: vec![(0, 0.1 + 0.2, 8), (1, 1e21, 0)],
            },
            // Empty columns: nothing admitted, no estimates.
            AuditRecord::Phase1Order {
                capacity_gpus: 0,
                order: vec![1],
                admitted: vec![],
                estimates: vec![],
            },
            AuditRecord::Phase2Mckp {
                capacity_gpus: 16,
                jobs: vec![4, 5],
                extra: vec![2, 0],
                curves: vec![(4, vec![0.0, 1e-7, 2.5]), (5, vec![])],
                total_value: 2.5,
                total_weight: 2,
            },
            // No allocation changed: every curve dropped.
            AuditRecord::Phase2Mckp {
                capacity_gpus: 0,
                jobs: vec![6],
                extra: vec![0],
                curves: vec![],
                total_value: -0.0,
                total_weight: 0,
            },
            AuditRecord::PlacementDecision {
                job: 6,
                role: "elastic_flexible".to_string(),
                gpus: 1,
                chosen: Some(9),
                chosen_free_gpus: 1,
                alternatives: vec![(10, 7), (u32::MAX, 0)],
            },
            AuditRecord::PlacementDecision {
                job: 7,
                role: "inelastic".to_string(),
                gpus: 8,
                chosen: None,
                chosen_free_gpus: 0,
                alternatives: vec![],
            },
            AuditRecord::ReclaimChoice {
                need: 2,
                candidates: vec![ReclaimCandidate {
                    server: 11,
                    cost: 1.0 / 3.0,
                    collateral_gpus: 4,
                }],
                chosen: 11,
                preempted: vec![8, 9],
                cause: Some(DelayCause::ReclaimPreemption),
            },
        ]
    }

    /// One sample of every event variant (audits: every record variant).
    fn event_samples() -> Vec<SchedEvent> {
        let mut events = vec![
            SchedEvent::JobAdmit { job: 0 },
            SchedEvent::JobStart {
                job: 1,
                workers: 4,
                on_loan: true,
                servers: vec![1, 4],
            },
            SchedEvent::JobScaleOut {
                job: 1,
                delta: 2,
                workers: 6,
                on_loan: false,
                servers: vec![],
            },
            SchedEvent::JobScaleIn {
                job: 1,
                delta: 1,
                workers: 5,
            },
            SchedEvent::ControllerRescale {
                job: 1,
                workers: 5,
                pause_s: 12.75,
            },
            SchedEvent::FlexRelease {
                job: 1,
                server: u32::MAX,
                workers: 1,
            },
            SchedEvent::JobPreempt {
                job: 2,
                checkpointed: true,
                decision: Some(41),
            },
            SchedEvent::JobPreempt {
                job: 2,
                checkpointed: false,
                decision: None,
            },
            SchedEvent::JobComplete {
                job: 1,
                jct_s: 3_600.000_000_1,
            },
            SchedEvent::DeadlineMiss {
                job: 1,
                deadline_s: 1e-7,
                late_s: 86_400.0,
            },
            SchedEvent::LoanGrant {
                servers: vec![7, 8, 9],
            },
            SchedEvent::ReclaimDemand { servers: 3 },
            SchedEvent::ReclaimGrant {
                demanded: 3,
                returned_flex: 1,
                returned_idle: 1,
                returned_preempt: 1,
                preempted: vec![2],
                collateral_gpus: 6,
            },
            SchedEvent::ReclaimCarryover {
                servers: 1,
                deadline_s: 0.1 + 0.2,
            },
            SchedEvent::ReclaimDeadlineMiss { servers: 1 },
            SchedEvent::JobStall {
                job: 3,
                cause: DelayCause::Rendezvous,
                pause_ms: 0,
            },
            SchedEvent::JobStraggle {
                job: 3,
                factor: 0.625,
            },
            SchedEvent::SchedulerEpoch {
                launches: 0,
                queued: 17,
                running: 4,
            },
            SchedEvent::Fault {
                kind: "job_killed \"quoted\" \\ \n\t\u{1} é".to_string(),
                target: 5,
            },
        ];
        events.extend(audit_samples().into_iter().map(SchedEvent::Audit));
        events
    }

    #[test]
    fn samples_cover_every_event_and_audit_variant() {
        let kinds: std::collections::BTreeSet<&str> =
            event_samples().iter().map(SchedEvent::kind_name).collect();
        let all: std::collections::BTreeSet<&str> = KIND_NAMES.iter().copied().collect();
        assert_eq!(kinds, all, "every SchedEvent variant needs a sample");
        let audits: std::collections::BTreeSet<&str> =
            audit_samples().iter().map(audit_kind).collect();
        assert_eq!(audits.len(), 4, "every AuditRecord variant needs a sample");
    }

    #[test]
    fn every_event_encodes_like_the_tree_writer_and_round_trips() {
        let mut log = EventLog::new();
        let samples = event_samples();
        for (i, event) in samples.iter().enumerate() {
            log.emit(i as u64 * 250, event.clone());
        }
        let events = log.take_events();
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), samples.len());
        for (line, timed) in lines.iter().zip(&events) {
            let mut tree = String::new();
            serde::write_compact(&mut tree, &timed.to_value());
            assert_eq!(*line, tree, "{}", timed.event.kind_name());
        }
        assert_eq!(parse_log(&jsonl), Ok(events));
    }

    proptest::proptest! {
        /// Every event variant, at any time and sequence number, reads
        /// back equal from both compact and pretty JSON.
        #[test]
        fn every_event_round_trips_compact_and_pretty(
            i in 0..event_samples().len(),
            time_ms in proptest::prelude::any::<u64>(),
            seq in proptest::prelude::any::<u64>(),
        ) {
            let timed = TimedEvent {
                time_ms,
                seq,
                event: event_samples().swap_remove(i),
            };
            let compact = serde_json::to_string(&timed).unwrap();
            let pretty = serde_json::to_string_pretty(&timed).unwrap();
            for json in [compact, pretty] {
                proptest::prop_assert_eq!(
                    serde_json::from_str::<TimedEvent>(&json),
                    Ok(timed.clone())
                );
            }
        }
    }

    #[test]
    fn in_memory_log_returns_typed_events_in_seq_order() {
        let mut log = EventLog::new();
        let samples = event_samples();
        for (i, event) in samples.iter().enumerate() {
            log.emit(1_000 - i as u64, event.clone());
        }
        let events = log.take_events();
        assert_eq!(events.len(), samples.len());
        for (i, (timed, event)) in events.iter().zip(&samples).enumerate() {
            assert_eq!(timed.seq, i as u64);
            assert_eq!(timed.time_ms, 1_000 - i as u64);
            assert_eq!(&timed.event, event);
        }
        assert_eq!(parse_log(&to_jsonl(&events)), Ok(events));
        assert!(log.take_events().is_empty(), "taking leaves none behind");
        let next = log.emit(0, SchedEvent::JobAdmit { job: 0 });
        assert_eq!(next, samples.len() as u64, "cursor kept");
        assert_eq!(to_jsonl(&[]), "");
    }

    #[test]
    fn in_memory_log_keeps_every_event() {
        const N: u64 = 70_000;
        let mut log = EventLog::new();
        for id in 0..N {
            log.emit(id, SchedEvent::JobAdmit { job: id });
        }
        let events = log.take_events();
        assert_eq!(events.len() as u64, N);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[N as usize - 1].seq, N - 1);
    }

    #[test]
    fn sink_lines_go_to_the_file_only() {
        let dir = std::env::temp_dir().join("lyra-obs-test-sink");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let mut memory = EventLog::new();
        {
            let mut log = EventLog::new().with_sink(&path).expect("sink");
            for id in 0..3u64 {
                log.emit(id, SchedEvent::JobAdmit { job: id });
                memory.emit(id, SchedEvent::JobAdmit { job: id });
            }
            assert!(
                log.take_events().is_empty(),
                "a sink log keeps nothing in memory"
            );
        }
        let contents = std::fs::read_to_string(&path).expect("read sink");
        assert_eq!(
            contents,
            to_jsonl(&memory.take_events()),
            "same bytes either way"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// JSONL of three `JobAdmit` events, one second apart.
    fn three_admits() -> String {
        let mut log = EventLog::new();
        for id in 0..3u64 {
            log.emit(id * 1000, SchedEvent::JobAdmit { job: id });
        }
        to_jsonl(&log.take_events())
    }

    #[test]
    fn byte_chopped_final_line_is_skipped_not_fatal() {
        let jsonl = three_admits();
        // Chop the log mid-way through its final line, as a crash
        // mid-append would: every complete line parses, the torn tail
        // is skipped with a warning.
        let chopped = &jsonl[..jsonl.len() - 7];
        assert!(!chopped.ends_with('\n'));
        let events = parse_log(chopped).expect("torn tail is recoverable");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].event, SchedEvent::JobAdmit { job: 1 });
    }

    #[test]
    fn mid_file_corruption_stays_a_hard_error() {
        let jsonl = three_admits();
        let corrupted = jsonl.replacen("JobAdmit", "JobAdmi", 1);
        assert_eq!(
            parse_log(&corrupted).unwrap_err(),
            "line 1 col 30: field `event`: unknown variant `JobAdmi` of SchedEvent",
            "mid-file corruption must fail"
        );
        // The column counts bytes from the start of the raw line.
        let indented = format!("  {}", jsonl.replacen("{\"job\":0}", "{\"job\":0", 1));
        assert_eq!(
            parse_log(&indented).unwrap_err(),
            "line 1 col 54: expected `,` or `}`, found end of input"
        );
        // A malformed final line that IS newline-terminated is
        // corruption too, not a torn tail.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        let bad = format!("{}garbage", lines.pop().unwrap());
        let rebuilt = format!("{}\n{bad}\n", lines.join("\n"));
        assert!(parse_log(&rebuilt).is_err(), "terminated garbage must fail");
    }

    #[test]
    fn a_retired_event_kind_is_refused_naming_its_line() {
        // A log from a build that still emitted `Alert` events: the
        // stale line is corruption to this build, not a torn tail.
        let alert = r#"{"time_ms":1500,"seq":2,"event":{"Alert":{"rule":"queue-backlog","series":"queue.depth","value":7,"threshold":4,"fired":true}}}"#;
        let admits = three_admits();
        let mut lines: Vec<&str> = admits.lines().collect();
        lines.insert(1, alert);
        let stale = lines.join("\n") + "\n";
        assert_eq!(
            parse_log(&stale).unwrap_err(),
            "line 2 col 33: field `event`: unknown variant `Alert` of SchedEvent"
        );
    }

    #[test]
    fn a_hostile_nesting_depth_is_an_error_not_a_crash() {
        let hostile = "[".repeat(100_000) + "\n";
        let err = parse_log(&hostile).unwrap_err();
        assert_eq!(err, "line 1 col 1: expected object, found array");
        // Nested where an unknown key is skipped, the depth limit fires.
        let hostile = format!("{{\"pad\":{hostile}");
        let err = parse_log(&hostile).unwrap_err();
        assert_eq!(err, "line 1 col 135: nesting deeper than 128");
    }
}
