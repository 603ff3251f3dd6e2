//! Durable crash-recovery checkpoints for the engine.
//!
//! A production scheduler must survive its own death: the paper's
//! deployment keeps Lyra's scheduler state durable so a controller
//! restart resumes planning from where it stopped instead of replaying
//! (or losing) a day of cluster history. This module is that layer for
//! the simulator: a [`SimCheckpoint`] bundles the scenario inputs with
//! the complete [`EngineState`] captured at a crash point, and its
//! save/load path is engineered so a restored run is **byte-identical**
//! to an uninterrupted one (event log, attribution table and report —
//! the crash-storm gate in `lyra-oracle` enforces exactly that).
//!
//! On-disk format (two lines, both JSON):
//!
//! ```text
//! {"magic":"lyra-checkpoint","version":1,"checksum":"<fnv1a64 hex>"}
//! {<payload: SimCheckpoint>}
//! ```
//!
//! The checksum covers the payload bytes exactly. Writes are atomic —
//! the file is staged at `<path>.tmp` and renamed into place, so a crash
//! *during checkpointing* leaves either the previous checkpoint or none,
//! never a torn one. Loads refuse anything suspect with a typed
//! [`CheckpointError`]: wrong magic, mismatched version, checksum
//! failure (truncated or bit-flipped payload) — there is no partial
//! restore.

use crate::engine::{EngineState, RunOutcome, SimError, Simulation};
use crate::scenario::{build_simulation, Scenario};
use lyra_trace::{InferenceTrace, JobTrace};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// Current checkpoint format version; bumped on any change to
/// [`SimCheckpoint`]'s serialized shape. Version 3 added the cluster
/// state's job-footprint index (`occupancy`); version 4 added per-server
/// speed factors, malleable resize costs and job deadlines; version 5
/// added the observer's decision-provenance tracker (and the
/// provenance-bearing event schema: `ReclaimDemand`, `JobPreempt.
/// decision`, `JobScaleOut.{on_loan,servers}`); version 6 dropped the
/// `incremental_*` engine switches from the serialised `SimConfig`.
pub const CHECKPOINT_VERSION: u32 = 6;

/// File-type tag in the header line.
const MAGIC: &str = "lyra-checkpoint";

/// Why a checkpoint was refused. Every load failure is typed — a
/// corrupt, truncated or incompatible file is never partially applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not a checkpoint, or its payload does not decode.
    Malformed(String),
    /// The file is a checkpoint of an incompatible format version.
    VersionMismatch {
        /// Version recorded in the file's header.
        found: u32,
        /// Version this build reads/writes ([`CHECKPOINT_VERSION`]).
        expected: u32,
    },
    /// The payload bytes do not hash to the header's checksum
    /// (truncation or corruption after the header was written).
    ChecksumMismatch {
        /// Checksum the header promises.
        expected: String,
        /// Checksum of the payload actually present.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} is not the supported version {expected}"
            ),
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint payload checksum {found} does not match header {expected} \
                 (truncated or corrupted file)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Header line of the on-disk format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    checksum: String,
}

/// FNV-1a 64-bit hash of the payload bytes (dependency-free, stable
/// across platforms, and plenty to catch truncation and bit rot — this
/// is an integrity check, not an authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A complete, durable snapshot of a simulation run: the scenario inputs
/// (enough to rebuild the non-serialized machinery — policy,
/// orchestrator, inference scheduler, estimator) plus the captured
/// [`EngineState`] (everything that evolved since tick zero).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimCheckpoint {
    /// The scenario the run was built from.
    pub scenario: Scenario,
    /// The job trace driving the run.
    pub jobs: JobTrace,
    /// The inference-utilisation trace driving loans/reclaims.
    pub inference: InferenceTrace,
    /// The captured engine state.
    pub state: EngineState,
}

impl SimCheckpoint {
    /// Bundles a crash-point state with the inputs that built its run.
    pub fn new(
        scenario: Scenario,
        jobs: JobTrace,
        inference: InferenceTrace,
        state: EngineState,
    ) -> Self {
        SimCheckpoint {
            scenario,
            jobs,
            inference,
            state,
        }
    }

    /// Writes the checkpoint to `path` atomically: the bytes are staged
    /// at `<path>.tmp` and renamed into place, so an interrupted save
    /// never leaves a torn checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the temp file cannot be
    /// written or renamed.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(self)
            .map_err(|e| CheckpointError::Malformed(format!("serializing: {e:?}")))?;
        let header = Header {
            magic: MAGIC.to_string(),
            version: CHECKPOINT_VERSION,
            checksum: format!("{:016x}", fnv1a64(payload.as_bytes())),
        };
        let header_line = serde_json::to_string(&header)
            .map_err(|e| CheckpointError::Malformed(format!("serializing header: {e:?}")))?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(header_line.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and fully validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Refuses with a typed [`CheckpointError`] — never a partial load:
    /// [`Io`](CheckpointError::Io) when the file cannot be read,
    /// [`Malformed`](CheckpointError::Malformed) when the header or
    /// payload does not decode (including a file cut inside the header),
    /// [`VersionMismatch`](CheckpointError::VersionMismatch) for a
    /// different format version, and
    /// [`ChecksumMismatch`](CheckpointError::ChecksumMismatch) when the
    /// payload bytes were truncated or corrupted.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let raw = std::fs::read_to_string(path)?;
        let (header_line, payload) = match raw.split_once('\n') {
            Some((h, p)) => (h, p.strip_suffix('\n').unwrap_or(p)),
            None => {
                return Err(CheckpointError::Malformed(
                    "missing header/payload separator (file cut inside the header?)".to_string(),
                ))
            }
        };
        let header: Header = serde_json::from_str(header_line)
            .map_err(|e| CheckpointError::Malformed(format!("header does not parse: {e:?}")))?;
        if header.magic != MAGIC {
            return Err(CheckpointError::Malformed(format!(
                "magic `{}` is not `{MAGIC}`",
                header.magic
            )));
        }
        if header.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: header.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let found = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if found != header.checksum {
            return Err(CheckpointError::ChecksumMismatch {
                expected: header.checksum,
                found,
            });
        }
        serde_json::from_str(payload)
            .map_err(|e| CheckpointError::Malformed(format!("payload does not decode: {e:?}")))
    }

    /// Rebuilds a ready-to-resume [`Simulation`]: the scenario inputs
    /// reconstruct the policy/orchestrator/estimator machinery, then the
    /// captured state overwrites everything that evolves during a run
    /// (including repairing and reopening the event-log file sink, which
    /// may have a torn final line from the crash).
    ///
    /// Drive the result with [`Simulation::run_to_outcome`] (or
    /// [`Simulation::run`]) under the *same* run name as the original.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] when the scenario inputs
    /// do not build (e.g. a job trace with non-dense ids) or the log
    /// sink cannot be repaired.
    pub fn into_simulation(self) -> Result<Simulation, CheckpointError> {
        let mut sim = build_simulation(&self.scenario, &self.jobs, &self.inference)
            .map_err(|e| CheckpointError::Malformed(format!("rebuilding the run: {e}")))?;
        sim.restore_state(self.state)
            .map_err(|e| CheckpointError::Malformed(format!("restoring state: {e}")))?;
        Ok(sim)
    }
}

/// Convenience: resumes a saved checkpoint to completion and returns its
/// outcome (a resumed run can itself crash again if further
/// [`crate::faults::FaultKind::SchedulerCrash`] events remain queued).
///
/// # Errors
///
/// Propagates load/rebuild refusals as [`CheckpointError`], and engine
/// inconsistencies as [`CheckpointError::Malformed`].
pub fn resume(path: &Path, name: &str) -> Result<RunOutcome, CheckpointError> {
    SimCheckpoint::load(path)?
        .into_simulation()?
        .run_to_outcome(name)
        .map_err(|e: SimError| CheckpointError::Malformed(format!("resumed run failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind, FaultPlan};
    use crate::scenario::generators::{tiny_basic, tiny_traces};

    fn crash_scenario(seed: u64, crash_at_s: f64) -> Scenario {
        let mut s = tiny_basic(seed);
        let mut plan = FaultPlan::none();
        plan.events.push(FaultEvent {
            time_s: crash_at_s,
            kind: FaultKind::SchedulerCrash,
        });
        s.faults = Some(plan);
        s
    }

    fn run_to_crash(scenario: &Scenario) -> EngineState {
        let (jobs, inf) = tiny_traces(scenario.seed);
        let sim = build_simulation(scenario, &jobs, &inf).expect("build");
        match sim.run_to_outcome(&scenario.name).expect("run") {
            RunOutcome::Crashed(state) => *state,
            RunOutcome::Completed(_) => panic!("expected the seeded crash to fire"),
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let scenario = crash_scenario(5, 3_000.0);
        let state = run_to_crash(&scenario);
        let (jobs, inf) = tiny_traces(scenario.seed);
        let ckpt = SimCheckpoint::new(scenario, jobs, inf, state);
        let dir = std::env::temp_dir().join("lyra-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        ckpt.save(&path).expect("save");
        let loaded = SimCheckpoint::load(&path).expect("load");
        // Serialized forms must agree exactly (f64 round-trips included).
        assert_eq!(
            serde_json::to_string(&ckpt).unwrap(),
            serde_json::to_string(&loaded).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_run_matches_uninterrupted_report() {
        let seed = 7;
        let (jobs, inf) = tiny_traces(seed);
        // Baseline: the same scenario *without* the crash event.
        let clean = tiny_basic(seed);
        let baseline = build_simulation(&clean, &jobs, &inf)
            .expect("build")
            .run(&clean.name)
            .expect("baseline run");
        // Crashed + resumed.
        let scenario = crash_scenario(seed, 10_000.0);
        let state = run_to_crash(&scenario);
        let dir = std::env::temp_dir().join("lyra-ckpt-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.ckpt");
        SimCheckpoint::new(scenario.clone(), jobs, inf, state)
            .save(&path)
            .expect("save");
        let resumed = match resume(&path, &clean.name).expect("resume") {
            RunOutcome::Completed(r) => *r,
            RunOutcome::Crashed(_) => panic!("no second crash is scheduled"),
        };
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "resumed run must replay bit-identically to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reclaim_carry_survives_save_restore_and_fires_once() {
        let scenario = crash_scenario(11, 2_000.0);
        let (jobs, inf) = tiny_traces(scenario.seed);
        let sim = build_simulation(&scenario, &jobs, &inf).expect("build");
        let mut state = match sim.run_to_outcome(&scenario.name).expect("run") {
            RunOutcome::Crashed(state) => *state,
            RunOutcome::Completed(_) => panic!("expected the seeded crash to fire"),
        };
        // Plant an outstanding reclaim debt in the captured state via a
        // restore→mutate→capture cycle, then round-trip it through disk.
        let mut sim = build_simulation(&scenario, &jobs, &inf).expect("rebuild");
        sim.restore_state(state).expect("restore");
        let now = 2_000.0;
        sim.reclaim_ledger_mut()
            .note_shortfall(now, 3, false, 300.0, 1_800.0);
        state = sim.capture_state();
        let dir = std::env::temp_dir().join("lyra-ckpt-ledger");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.ckpt");
        SimCheckpoint::new(scenario.clone(), jobs.clone(), inf.clone(), state)
            .save(&path)
            .expect("save");
        let mut restored = SimCheckpoint::load(&path)
            .expect("load")
            .into_simulation()
            .expect("into_simulation");
        let carry = *restored
            .reclaim_ledger()
            .carry()
            .expect("carry must survive the disk round-trip");
        assert_eq!(carry.servers, 3);
        assert_eq!(carry.deadline_s, now + 1_800.0);
        assert_eq!(carry.next_retry_s, now + 300.0);
        assert_eq!(carry.backoff_s, 300.0);
        // The restored deadline state machine fires exactly once.
        let ledger = restored.reclaim_ledger_mut();
        assert_eq!(ledger.take_expired(carry.deadline_s), None);
        assert_eq!(ledger.take_expired(carry.deadline_s + 1.0), Some(3));
        assert_eq!(ledger.take_expired(carry.deadline_s + 2.0), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_and_truncated_checkpoints_are_refused_typed() {
        let scenario = crash_scenario(3, 1_500.0);
        let state = run_to_crash(&scenario);
        let (jobs, inf) = tiny_traces(scenario.seed);
        let dir = std::env::temp_dir().join("lyra-ckpt-refuse");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.ckpt");
        SimCheckpoint::new(scenario, jobs, inf, state)
            .save(&path)
            .expect("save");
        let good = std::fs::read(&path).unwrap();

        // Bit flip in the payload → checksum refusal.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            SimCheckpoint::load(&path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // Truncated payload → checksum refusal (the header survived).
        std::fs::write(&path, &good[..good.len() - 64]).unwrap();
        assert!(matches!(
            SimCheckpoint::load(&path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // File cut inside the header line → malformed.
        std::fs::write(&path, &good[..16]).unwrap();
        assert!(matches!(
            SimCheckpoint::load(&path),
            Err(CheckpointError::Malformed(_))
        ));

        // Version bump → typed version refusal.
        let text = String::from_utf8(good.clone()).unwrap();
        let bumped = text.replacen(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            &format!("\"version\":{}", CHECKPOINT_VERSION + 1),
            1,
        );
        assert_ne!(text, bumped, "version field must appear in the header");
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(
            SimCheckpoint::load(&path),
            Err(CheckpointError::VersionMismatch { found, expected })
                if found == CHECKPOINT_VERSION + 1 && expected == CHECKPOINT_VERSION
        ));

        // Not a checkpoint at all → malformed, and a missing file → Io.
        std::fs::write(&path, "{\"magic\":\"something-else\",\"version\":1,\"checksum\":\"0\"}\n{}\n").unwrap();
        assert!(matches!(
            SimCheckpoint::load(&path),
            Err(CheckpointError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            SimCheckpoint::load(&path),
            Err(CheckpointError::Io(_))
        ));
    }
}
