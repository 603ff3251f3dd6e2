//! The event log: JSON Lines into a ring buffer plus an optional file
//! sink.
//!
//! Events are serialised eagerly to one JSON line each. The vendored
//! serde's direct writer (`Serialize::write_json`) encodes each event
//! from its typed fields into one reused buffer, with no intermediate
//! `Value` tree; the ring then keeps an exact-size copy of the line. The
//! ring buffer keeps the most recent `capacity` lines for in-process
//! inspection (`why`, tests, the run report); the file sink, when
//! configured, receives every line. Serialisation is deterministic —
//! map-free payloads, fields in declaration order — so same-seed runs
//! yield byte-identical logs.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::event::{SchedEvent, TimedEvent};

/// Serializable snapshot of an [`EventLog`] for checkpoint/restore.
///
/// Captures everything needed to resume emission exactly where it left
/// off: the ring contents, all counters, and the sink path (the sink
/// file itself is repaired and reopened in append mode on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLogState {
    /// Ring capacity (lines kept in memory).
    pub capacity: usize,
    /// Ring contents at capture time, oldest first.
    pub ring: Vec<String>,
    /// Next sequence number to stamp.
    pub seq: u64,
    /// Total lines emitted so far.
    pub emitted: u64,
    /// Lines evicted from the ring so far.
    pub dropped: u64,
    /// File sink path, if a sink was attached.
    pub sink_path: Option<PathBuf>,
}

/// Ring-buffered JSONL event log with an optional file sink.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    ring: VecDeque<String>,
    sink: Option<BufWriter<File>>,
    sink_path: Option<PathBuf>,
    seq: u64,
    emitted: u64,
    dropped: u64,
    /// Encode buffer reused across events; not checkpointed.
    buf: String,
}

impl EventLog {
    /// Creates a log keeping at most `capacity` lines in memory.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            sink: None,
            sink_path: None,
            seq: 0,
            emitted: 0,
            dropped: 0,
            buf: String::new(),
        }
    }

    /// Attaches a file sink; every subsequent line is also appended to
    /// `path` (truncating any existing file).
    pub fn with_sink(mut self, path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        self.sink = Some(BufWriter::new(file));
        self.sink_path = Some(path.to_path_buf());
        Ok(self)
    }

    /// Path of the file sink, if one is attached.
    pub fn sink_path(&self) -> Option<&Path> {
        self.sink_path.as_deref()
    }

    /// Stamps `event` with `time_ms` and the next sequence number, then
    /// appends it to the ring (and sink, if any). Returns the sequence
    /// number assigned — the event's stable `DecisionId` for provenance
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
        self.push_line();
        seq
    }

    /// The sequence number the *next* emitted event will carry.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Appends the line in `buf` to the sink and the ring.
    fn push_line(&mut self) {
        if let Some(sink) = &mut self.sink {
            // A full disk shouldn't kill a simulation; drop the sink and
            // keep the ring.
            let written = sink
                .write_all(self.buf.as_bytes())
                .and_then(|()| sink.write_all(b"\n"));
            if written.is_err() {
                self.sink = None;
            }
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        // An exact-size copy: the buffer's growth slack stays behind.
        self.ring.push_back(self.buf.as_str().to_owned());
        self.emitted += 1;
    }

    /// Lines currently held in the ring, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.ring.iter().map(String::as_str)
    }

    /// Moves the ring's lines out, oldest first, leaving the ring empty.
    /// Counters are untouched.
    pub fn take_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.ring).into()
    }

    /// The ring contents joined into one JSONL string (trailing
    /// newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.ring {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Total events emitted over the log's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events evicted from the ring to honour the capacity bound (they
    /// were still written to the sink, if one is attached).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flushes the file sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            let _ = sink.flush();
        }
    }

    /// Captures the log's complete state for a checkpoint.
    ///
    /// Flushes the sink first so the file on disk holds every emitted
    /// line — the restore path can then repair any *externally* torn
    /// tail (a crash mid-append) by truncating to whole lines.
    pub fn capture_state(&mut self) -> EventLogState {
        self.flush();
        EventLogState {
            capacity: self.capacity,
            ring: self.ring.iter().cloned().collect(),
            seq: self.seq,
            emitted: self.emitted,
            dropped: self.dropped,
            sink_path: self.sink_path.clone(),
        }
    }

    /// Rebuilds a log from a captured state, repairing the sink file.
    ///
    /// The sink file is cut back to exactly `state.emitted` complete
    /// (newline-terminated) lines — dropping a torn final line from a
    /// crash mid-write, and any lines emitted after the checkpoint was
    /// taken — then reopened in *append* mode so resumed emission
    /// continues the same file. Fewer complete lines than `emitted`
    /// means unrecoverable data loss and is an error (never a silent
    /// partial restore).
    pub fn from_state(state: EventLogState) -> std::io::Result<Self> {
        let sink = match &state.sink_path {
            Some(path) => {
                let keep = repair_sink(path, state.emitted)?;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(keep)?;
                let file = OpenOptions::new().append(true).open(path)?;
                Some(BufWriter::new(file))
            }
            None => None,
        };
        Ok(EventLog {
            capacity: state.capacity.max(1),
            ring: state.ring.into(),
            sink,
            sink_path: state.sink_path,
            seq: state.seq,
            emitted: state.emitted,
            dropped: state.dropped,
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
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::DelayCause;
    use crate::audit::{
        AuditRecord, MckpGroupAudit, Phase1Entry, PlacementAlternative, ReclaimCandidate,
    };
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
                order: vec![
                    Phase1Entry {
                        job: 3,
                        est_running_time_s: 0.1 + 0.2,
                        base_gpus: 8,
                        admitted: true,
                        cause: None,
                    },
                    Phase1Entry {
                        job: u64::MAX,
                        est_running_time_s: 1e21,
                        base_gpus: 0,
                        admitted: false,
                        cause: Some(DelayCause::GpuScarcity),
                    },
                ],
            },
            AuditRecord::Phase2Mckp {
                capacity_gpus: 16,
                groups: vec![
                    MckpGroupAudit {
                        job: 4,
                        values: vec![0.0, 1e-7, 2.5],
                        chosen_extra: 2,
                        chosen_value: 2.5,
                        cause: None,
                    },
                    MckpGroupAudit {
                        job: 5,
                        values: vec![],
                        chosen_extra: 0,
                        chosen_value: -0.0,
                        cause: Some(DelayCause::MckpDenial),
                    },
                ],
                total_value: 2.5,
                total_weight: 2,
            },
            AuditRecord::PlacementDecision {
                job: 6,
                role: "elastic_flexible".to_string(),
                gpus: 1,
                chosen: Some(9),
                chosen_free_gpus: 1,
                alternatives: vec![PlacementAlternative {
                    server: 10,
                    free_gpus: 7,
                }],
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
        let mut log = EventLog::new(64);
        let samples = event_samples();
        for (i, event) in samples.iter().enumerate() {
            log.emit(i as u64 * 250, event.clone());
        }
        let lines: Vec<&str> = log.lines().collect();
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
        let parsed = crate::explain::parse_log(&log.to_jsonl()).expect("parses");
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
    fn take_lines_moves_the_ring_out_and_keeps_counters() {
        let mut log = EventLog::new(2);
        for id in 0..3u64 {
            log.emit(id, SchedEvent::JobAdmit { job: id });
        }
        let expected: Vec<String> = log.lines().map(str::to_string).collect();
        assert_eq!(log.take_lines(), expected);
        assert_eq!(log.lines().count(), 0);
        assert_eq!((log.emitted(), log.dropped(), log.next_seq()), (3, 1, 3));
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut log = EventLog::new(2);
        for id in 0..4u64 {
            log.emit(id * 1000, SchedEvent::JobAdmit { job: id });
        }
        assert_eq!(log.emitted(), 4);
        assert_eq!(log.dropped(), 2);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":2"));
        assert!(lines[1].contains("\"seq\":3"));
    }

    #[test]
    fn lines_round_trip_through_parse() {
        let mut log = EventLog::new(16);
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
    fn state_round_trip_resumes_counters_and_ring() {
        let mut log = EventLog::new(2);
        for id in 0..3u64 {
            log.emit(id * 100, SchedEvent::JobAdmit { job: id });
        }
        let state = log.capture_state();
        let mut restored = EventLog::from_state(state).expect("restore");
        assert_eq!(restored.emitted(), 3);
        assert_eq!(restored.dropped(), 1);
        restored.emit(400, SchedEvent::JobAdmit { job: 9 });
        let lines: Vec<&str> = restored.lines().collect();
        assert!(lines.last().unwrap().contains("\"seq\":3"), "{lines:?}");
    }

    #[test]
    fn restore_repairs_torn_sink_tail_and_appends() {
        let dir = std::env::temp_dir().join("lyra-obs-test-torn");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let state = {
            let mut log = EventLog::new(16).with_sink(&path).expect("sink");
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
            let mut log = EventLog::new(16).with_sink(&path).expect("sink");
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
    fn sink_receives_every_line_even_past_ring_capacity() {
        let dir = std::env::temp_dir().join("lyra-obs-test-sink");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        {
            let mut log = EventLog::new(1).with_sink(&path).expect("sink");
            for id in 0..3u64 {
                log.emit(id, SchedEvent::JobAdmit { job: id });
            }
        }
        let contents = std::fs::read_to_string(&path).expect("read sink");
        assert_eq!(contents.lines().count(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
