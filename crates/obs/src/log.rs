//! The event log: one JSON line per event, written once.
//!
//! The vendored serde's direct writer (`Serialize::write_json`) encodes
//! each event from its typed fields into one reused buffer, with no
//! intermediate `Value` tree. With a file sink attached, every line goes
//! to the file only; without one, the log keeps every line in memory
//! (`why`, tests, the run report), so trace-scale runs should use a
//! sink. Serialisation is deterministic — map-free payloads, fields in
//! declaration order — so same-seed runs yield byte-identical logs
//! whichever destination they use.
//!
//! A failed sink write does not stop the run: the log keeps the first
//! I/O error, stops writing, and [`EventLog::flush`] returns it naming
//! the sink, so no line is lost silently.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::event::{SchedEvent, TimedEvent};

/// Serializable snapshot of an [`EventLog`] for checkpoint/restore.
///
/// Captures everything needed to resume emission exactly where it left
/// off: the in-memory lines (empty with a sink), the sequence cursor
/// and the sink path (the sink file itself is repaired and reopened in
/// append mode on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLogState {
    /// In-memory lines at capture time, oldest first (empty with a
    /// sink: those lines live in the file).
    pub lines: Vec<String>,
    /// Next sequence number to stamp, which is also the number of
    /// lines emitted so far.
    pub seq: u64,
    /// File sink path, if a sink was attached.
    pub sink_path: Option<PathBuf>,
}

/// JSONL event log writing each line once: to a file sink when one is
/// attached, into memory otherwise.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Every emitted line, oldest first; empty with a sink.
    lines: Vec<String>,
    sink: Option<BufWriter<File>>,
    sink_path: Option<PathBuf>,
    /// The first sink I/O error; the sink is closed when it is set.
    error: Option<std::io::Error>,
    seq: u64,
    /// Encode buffer reused across events; not checkpointed.
    buf: String,
}

impl EventLog {
    /// Creates an in-memory log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Attaches a file sink (truncating any existing file); every
    /// subsequent line goes to `path` instead of memory.
    pub fn with_sink(mut self, path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        self.sink = Some(BufWriter::new(file));
        self.sink_path = Some(path.to_path_buf());
        Ok(self)
    }

    /// Stamps `event` with `time_ms` and the next sequence number, then
    /// writes it to the log's destination. Returns the sequence number
    /// assigned — the event's stable `DecisionId` for provenance
    /// tracking (persisted in the line itself and in checkpoints, so it
    /// survives log replay and crash/resume unchanged).
    pub fn emit(&mut self, time_ms: u64, event: SchedEvent) -> u64 {
        let seq = self.seq;
        let timed = TimedEvent {
            time_ms,
            seq,
            event,
        };
        self.seq += 1;
        self.buf.clear();
        timed.write_json(&mut self.buf);
        if self.sink_path.is_none() {
            // An exact-size copy: the buffer's growth slack stays behind.
            self.lines.push(self.buf.as_str().to_owned());
        } else if let Some(sink) = &mut self.sink {
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

    /// The sequence number the *next* emitted event will carry (the
    /// number of lines emitted so far).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Moves the in-memory lines out, oldest first, leaving none behind.
    /// The sequence cursor is untouched.
    pub fn take_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.lines)
    }

    /// The in-memory lines joined into one JSONL string (trailing
    /// newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
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

    /// Captures the log's complete state for a checkpoint.
    ///
    /// Flushes the sink first so the file on disk holds every emitted
    /// line — the restore path can then repair any *externally* torn
    /// tail (a crash mid-append) by truncating to whole lines. A sink
    /// that failed is caught there too: its file holds fewer lines than
    /// the captured cursor, and restore refuses it.
    pub fn capture_state(&mut self) -> EventLogState {
        let _ = self.flush();
        EventLogState {
            lines: self.lines.clone(),
            seq: self.seq,
            sink_path: self.sink_path.clone(),
        }
    }

    /// Rebuilds a log from a captured state, repairing the sink file.
    ///
    /// The sink file is cut back to exactly `state.seq` complete
    /// (newline-terminated) lines — dropping a torn final line from a
    /// crash mid-write, and any lines emitted after the checkpoint was
    /// taken — then reopened in *append* mode so resumed emission
    /// continues the same file. Fewer complete lines than `seq` means
    /// unrecoverable data loss and is an error (never a silent partial
    /// restore).
    pub fn from_state(state: EventLogState) -> std::io::Result<Self> {
        let sink = match &state.sink_path {
            Some(path) => {
                let keep = repair_sink(path, state.seq)?;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(keep)?;
                let file = OpenOptions::new().append(true).open(path)?;
                Some(BufWriter::new(file))
            }
            None => None,
        };
        Ok(EventLog {
            lines: state.lines,
            sink,
            sink_path: state.sink_path,
            error: None,
            seq: state.seq,
            buf: String::new(),
        })
    }
}

/// Byte offset after the first `emitted` newline-terminated lines of
/// the sink at `path`; errors if the file holds fewer complete lines.
fn repair_sink(path: &Path, emitted: u64) -> std::io::Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && emitted == 0 => {
            File::create(path)?;
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    let mut complete = 0u64;
    let mut offset = 0u64;
    for (i, b) in bytes.iter().enumerate() {
        if complete == emitted {
            break;
        }
        if *b == b'\n' {
            complete += 1;
            offset = i as u64 + 1;
        }
    }
    if complete < emitted {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "sink {} holds {complete} complete lines but the checkpoint \
                 recorded {emitted}: unrecoverable log loss",
                path.display()
            ),
        ));
    }
    if (bytes.len() as u64) > offset {
        eprintln!(
            "warning: sink {}: dropping {} bytes past the checkpointed log tail \
             (torn line or post-checkpoint emission)",
            path.display(),
            bytes.len() as u64 - offset
        );
    }
    Ok(offset)
}

impl Drop for EventLog {
    fn drop(&mut self) {
        let _ = self.flush();
    }
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
                jct_s: 3600.000_000_1,
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
            SchedEvent::Alert {
                rule: "queue-backlog".to_string(),
                series: "queue.depth".to_string(),
                value: -0.0,
                threshold: 4.0,
                fired: true,
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
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), samples.len());
        for (line, (i, event)) in lines.iter().zip(samples.iter().enumerate()) {
            let timed = TimedEvent {
                time_ms: i as u64 * 250,
                seq: i as u64,
                event: event.clone(),
            };
            let mut tree = String::new();
            serde::write_compact(&mut tree, &timed.to_value());
            assert_eq!(*line, tree, "{}", event.kind_name());
        }
        let parsed = crate::explain::parse_log(&jsonl).expect("parses");
        let events: Vec<SchedEvent> = parsed.into_iter().map(|t| t.event).collect();
        assert_eq!(events, samples);
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
    fn take_lines_moves_the_lines_out_and_keeps_the_cursor() {
        let mut log = EventLog::new();
        for id in 0..3u64 {
            log.emit(id, SchedEvent::JobAdmit { job: id });
        }
        let expected: Vec<String> = log.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(log.take_lines(), expected);
        assert_eq!(log.to_jsonl(), "");
        assert_eq!(log.next_seq(), 3);
    }

    #[test]
    fn in_memory_log_keeps_every_line() {
        const N: u64 = 70_000;
        let mut log = EventLog::new();
        for id in 0..N {
            log.emit(id, SchedEvent::JobAdmit { job: id });
        }
        let lines = log.take_lines();
        assert_eq!(lines.len() as u64, N);
        assert!(lines[0].contains("\"seq\":0,"), "{}", lines[0]);
        assert!(lines[N as usize - 1].contains(&format!("\"seq\":{},", N - 1)));
    }

    #[test]
    fn lines_round_trip_through_parse() {
        let mut log = EventLog::new();
        log.emit(
            500,
            SchedEvent::JobStart {
                job: 7,
                workers: 2,
                on_loan: true,
                servers: vec![1, 4],
            },
        );
        let events = crate::explain::parse_log(&log.to_jsonl()).expect("parses");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_ms, 500);
        assert_eq!(
            events[0].event,
            SchedEvent::JobStart {
                job: 7,
                workers: 2,
                on_loan: true,
                servers: vec![1, 4],
            }
        );
    }

    #[test]
    fn state_round_trip_resumes_the_cursor_and_lines() {
        let mut log = EventLog::new();
        for id in 0..3u64 {
            log.emit(id * 100, SchedEvent::JobAdmit { job: id });
        }
        let state = log.capture_state();
        let mut restored = EventLog::from_state(state).expect("restore");
        assert_eq!(restored.next_seq(), 3);
        restored.emit(400, SchedEvent::JobAdmit { job: 9 });
        let lines = restored.take_lines();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("\"seq\":3"), "{lines:?}");
    }

    #[test]
    fn restore_repairs_torn_sink_tail_and_appends() {
        let dir = std::env::temp_dir().join("lyra-obs-test-torn");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let state = {
            let mut log = EventLog::new().with_sink(&path).expect("sink");
            for id in 0..3u64 {
                log.emit(id, SchedEvent::JobAdmit { job: id });
            }
            log.capture_state()
        };
        // Simulate a crash mid-append: a torn, newline-less extra line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            write!(f, "{{\"time_ms\":99,\"se").expect("tear");
        }
        let mut restored = EventLog::from_state(state).expect("restore");
        restored.emit(3, SchedEvent::JobAdmit { job: 3 });
        drop(restored);
        let contents = std::fs::read_to_string(&path).expect("read sink");
        assert_eq!(contents.lines().count(), 4, "torn tail dropped, new line appended");
        assert!(contents.ends_with('\n'));
        assert!(!contents.contains("\"se\n"), "no torn fragment survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_refuses_a_sink_missing_checkpointed_lines() {
        let dir = std::env::temp_dir().join("lyra-obs-test-lost");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let state = {
            let mut log = EventLog::new().with_sink(&path).expect("sink");
            for id in 0..3u64 {
                log.emit(id, SchedEvent::JobAdmit { job: id });
            }
            log.capture_state()
        };
        std::fs::write(&path, "{\"one\":1}\n").expect("clobber");
        assert!(EventLog::from_state(state).is_err(), "lost lines must refuse");
        let _ = std::fs::remove_file(&path);
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
            assert_eq!(log.to_jsonl(), "", "a sink log keeps nothing in memory");
            assert!(log.capture_state().lines.is_empty());
        }
        let contents = std::fs::read_to_string(&path).expect("read sink");
        assert_eq!(contents, memory.to_jsonl(), "same bytes either way");
        let _ = std::fs::remove_file(&path);
    }
}
