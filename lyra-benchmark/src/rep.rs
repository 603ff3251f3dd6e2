//! One repetition, run in a child process so each starts on a fresh heap,
//! has its own peak RSS, and turns a crash into one failed repetition.
//!
//! A `full` repetition times set-up, the unobserved run, the observed run
//! (every event to a JSONL sink) and the replay of that log; a `traced`
//! repetition times set-up and one unobserved run with the program's span
//! profiler on. Both print one JSON line of named values, the decision
//! digest and the benchmark's own spans around each call.

use crate::metrics::{span_field, PER_LAYER, TOP_LEVEL_SPANS};
use crate::stats::{fnv1a, median, peak_rss_mb};
use crate::workload::Workload;
use lyra_sim::{build_scenario, ObserverConfig, SimReport, Simulation};
use lyra_trace::{InferenceTrace, JobTrace};
use serde::Value;
use std::path::Path;
use std::time::Instant;

/// Set-up takes milliseconds: repeat it and keep the median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Full,
    Traced,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "full" => Some(Mode::Full),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Traced => "traced",
        }
    }
}

/// The benchmark's own spans, timed from outside the program around each
/// call into a layer, plus the named values the repetition reports.
struct Recorder {
    origin: Instant,
    spans: Vec<(&'static str, &'static str, f64, f64)>,
    values: Vec<(String, f64)>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Runs `f` inside span `name` (a child of `parent`; "" for a root)
    /// and returns its result and duration, seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push((name, parent, start, end));
        (out, end - start)
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    fn to_json(&self, digest: u64, profile: Option<&lyra_obs::Profile>) -> String {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let spans = self
            .spans
            .iter()
            .map(|&(name, parent, start, end)| {
                obj(vec![
                    ("name", Value::Str(name.into())),
                    ("parent", Value::Str(parent.into())),
                    ("start_s", Value::Float(start)),
                    ("end_s", Value::Float(end)),
                ])
            })
            .collect();
        let values = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        let mut fields = vec![
            ("digest", Value::Str(format!("{digest:016x}"))),
            ("values", Value::Object(values)),
            ("spans", Value::Array(spans)),
        ];
        if let Some(profile) = profile {
            let phases = profile
                .0
                .iter()
                .map(|p| {
                    obj(vec![
                        ("name", Value::Str(p.name.clone())),
                        ("calls", Value::UInt(p.calls)),
                        ("total_s", Value::Float(p.total_s)),
                        ("self_s", Value::Float(p.self_s)),
                    ])
                })
                .collect();
            fields.push(("profile", Value::Array(phases)));
        }
        serde_json::to_string(&obj(fields)).expect("a Value tree always serialises")
    }
}

struct Inputs {
    jobs: JobTrace,
    inference: InferenceTrace,
    sim: Simulation,
}

/// Runs one repetition and prints its JSON line. An error means the
/// repetition failed; the process then exits non-zero.
pub fn run(mode: Mode, w: &Workload, seed: u64, sink: &Path, validate: bool) -> Result<(), String> {
    let mut rec = Recorder::new();
    let inputs = setup(w, seed, &mut rec)?;
    let (digest, profile) = match mode {
        Mode::Full => (full(w, seed, inputs, sink, validate, &mut rec)?, None),
        Mode::Traced => {
            let (digest, profile) = traced(w, inputs, &mut rec)?;
            (digest, Some(profile))
        }
    };
    println!("{}", rec.to_json(digest, profile.as_ref()));
    Ok(())
}

/// Trace generation + `build_scenario`, `SETUP_REPS` times: reports the
/// median of each part and keeps the last inputs.
fn setup(w: &Workload, seed: u64, rec: &mut Recorder) -> Result<Inputs, String> {
    let mut parts: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (inputs, t_setup) = rec.time("setup", "", |rec| {
            let (jobs, t_jobs) = rec.time("trace.jobgen", "setup", |_| {
                JobTrace::generate(w.job_config())
            });
            let (inference, t_inf) = rec.time("trace.inference", "setup", |_| {
                InferenceTrace::generate(w.inference_config(seed))
            });
            let (sim, t_build) = rec.time("sim.build", "setup", |_| {
                build_scenario(&w.scenario(seed), &jobs, &inference)
            });
            (jobs, inference, sim, [t_jobs, t_inf, t_build])
        });
        let (jobs, inference, sim, times) = inputs;
        for (part, t) in parts
            .iter_mut()
            .zip([t_setup, times[0], times[1], times[2]])
        {
            part.push(t);
        }
        last = Some(Inputs {
            jobs,
            inference,
            sim: sim.map_err(|e| format!("build_scenario: {e}"))?,
        });
    }
    for (name, part) in [
        "setup_s",
        "trace.jobgen_s",
        "trace.inference_s",
        "sim.build_s",
    ]
    .into_iter()
    .zip(&parts)
    {
        rec.put(name, median(part).expect("SETUP_REPS > 0"));
    }
    let inputs = last.expect("SETUP_REPS > 0");
    rec.put("trace.jobs", inputs.jobs.jobs.len() as f64);
    Ok(inputs)
}

/// Checks a finished run and returns the digest of its decisions.
fn check_report(what: &str, report: &SimReport) -> Result<u64, String> {
    if report.completed != report.submitted {
        return Err(format!(
            "{what}: completed {} of {} submitted jobs",
            report.completed, report.submitted
        ));
    }
    let records = serde_json::to_string(&report.records)
        .map_err(|e| format!("{what}: serialise records: {e}"))?;
    Ok(fnv1a(records.as_bytes()))
}

fn full(
    w: &Workload,
    seed: u64,
    inputs: Inputs,
    sink: &Path,
    validate: bool,
    rec: &mut Recorder,
) -> Result<u64, String> {
    let Inputs {
        jobs,
        inference,
        sim,
    } = inputs;
    let (report, run_s) = rec.time("sim.run", "", |_| sim.run(w.name));
    let report = report.map_err(|e| format!("run: {e}"))?;
    let digest = check_report("run", &report)?;
    rec.put("run_s", run_s);
    rec.put("rss.run_mb", peak_rss_mb());
    rec.put("report.completed", report.completed as f64);
    rec.put("report.loan_ops", report.loan_ops as f64);
    rec.put("report.reclaim_ops", report.reclaim_ops as f64);
    rec.put("report.scaling_ops", report.scaling_ops as f64);
    rec.put("report.jct_mean_s", report.jct.mean);
    drop(report);

    let observed = build_scenario(&w.scenario(seed), &jobs, &inference)
        .map_err(|e| format!("build_scenario: {e}"))?;
    let config = ObserverConfig {
        sink_path: Some(sink.to_path_buf()),
        ..ObserverConfig::default()
    };
    let (report, observed_s) = rec.time("sim.observed_run", "", |_| {
        observed
            .with_observer(config)
            .map_err(|e| format!("event-log sink {}: {e}", sink.display()))?
            .run(w.name)
            .map_err(|e| format!("observed run: {e}"))
    });
    if check_report("observed run", &report?)? != digest {
        return Err("the observed run made different decisions than the unobserved run".into());
    }
    rec.put("observed_run_s", observed_s);
    rec.put("rss.observed_mb", peak_rss_mb());
    rec.put("obs.overhead_s", observed_s - run_s);
    rec.put("obs.overhead_x", observed_s / run_s);

    // The path `why`, `attribute`, `blame` and `export-provenance` take.
    let (replayed, replay_s) = rec.time("replay", "", |rec| -> Result<_, String> {
        let (text, t) = rec.time("replay.read", "replay", |_| std::fs::read_to_string(sink));
        rec.put("replay.read_s", t);
        let text = text.map_err(|e| format!("read {}: {e}", sink.display()))?;
        let (events, t) = rec.time("replay.parse", "replay", |_| lyra_obs::parse_log(&text));
        rec.put("replay.parse_s", t);
        let events = events.map_err(|e| format!("parse_log: {e}"))?;
        let (attributions, t) = rec.time("replay.attribute", "replay", |_| {
            lyra_obs::attribute_log(&events)
        });
        rec.put("replay.attribute_s", t);
        let (graph, t) = rec.time("replay.provenance", "replay", |_| {
            lyra_obs::build_provenance(&events)
        });
        rec.put("replay.provenance_s", t);
        let (export, t) = rec.time("replay.export", "replay", |_| {
            lyra_obs::export_provenance_trace(&events)
        });
        rec.put("replay.export_s", t);
        // Returned, not dropped here: freeing the log is not replay work.
        Ok((text, events, attributions, graph, export))
    });
    let (text, events, attributions, graph, export) = replayed?;
    rec.put("replay_s", replay_s);
    rec.put("obs.events", events.len() as f64);
    rec.put("obs.log_bytes", text.len() as f64);
    rec.put(
        "obs.ns_per_event",
        1e9 * (observed_s - run_s) / events.len().max(1) as f64,
    );
    rec.put("peak_rss_mb", peak_rss_mb());

    let completed = attributions
        .iter()
        .filter(|a| a.completion_ms.is_some())
        .count();
    if attributions.len() != jobs.jobs.len() || completed != jobs.jobs.len() {
        return Err(format!(
            "attribute_log: {} attributions, {completed} completed, for {} jobs",
            attributions.len(),
            jobs.jobs.len()
        ));
    }
    if !graph.is_acyclic() {
        return Err("build_provenance: the decision graph has a cycle".into());
    }
    if validate {
        lyra_obs::validate_chrome_trace(&export)
            .map_err(|e| format!("validate_chrome_trace: {e}"))?;
    }
    Ok(digest)
}

fn traced(
    w: &Workload,
    inputs: Inputs,
    rec: &mut Recorder,
) -> Result<(u64, lyra_obs::Profile), String> {
    lyra_obs::span::set_enabled(true);
    let _ = lyra_obs::span::take_profile();
    let (report, run_s) = rec.time("sim.traced_run", "", |_| inputs.sim.run(w.name));
    let profile = lyra_obs::span::take_profile();
    lyra_obs::span::set_enabled(false);
    let digest = check_report(
        "traced run",
        &report.map_err(|e| format!("traced run: {e}"))?,
    )?;

    let stat = |name: &str| profile.0.iter().find(|p| p.name == name);
    for m in PER_LAYER {
        // A span that never ran reads 0.
        if let Some((span, field)) = span_field(m.name) {
            let value = stat(span).map_or(0.0, |p| match field {
                "calls" => p.calls as f64,
                "total_s" => p.total_s,
                _ => p.self_s,
            });
            rec.put(m.name, value);
        }
    }
    let epochs = stat("sim.scheduler_tick").map_or(0, |p| p.calls);
    let epoch_s = stat("sim.scheduler_tick").map_or(0.0, |p| p.total_s);
    let covered = covered_s(&profile);
    rec.put("traced_run_s", run_s);
    rec.put("sim.epochs", epochs as f64);
    rec.put("sim.epoch_mean_ms", 1000.0 * epoch_s / epochs.max(1) as f64);
    rec.put("sim.loop_other_s", run_s - covered);
    rec.put("sim.span_coverage", covered / run_s);
    Ok((digest, profile))
}

/// Wall time inside the outermost program spans: the part of the run the
/// program's own profile names.
pub fn covered_s(profile: &lyra_obs::Profile) -> f64 {
    profile
        .0
        .iter()
        .filter(|p| TOP_LEVEL_SPANS.contains(&p.name.as_str()))
        .map(|p| p.total_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_obs::{PhaseStat, Profile};

    #[test]
    fn loop_other_time_is_never_negative() {
        // The top-level spans run inside the timed call, so their total
        // can never exceed the run's wall time; run a real (tiny) traced
        // simulation and check the identity the metric relies on.
        let w = crate::workload::WORKLOADS[0].shrunk();
        let mut rec = Recorder::new();
        let inputs = setup(&w, 5, &mut rec).expect("set-up");
        let (_, profile) = traced(&w, inputs, &mut rec).expect("traced run");
        let value = |n: &str| rec.values.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        let other = value("sim.loop_other_s").expect("reported");
        assert!(other >= 0.0, "sim.loop_other_s = {other}");
        assert!(covered_s(&profile) > 0.0, "the scheduler tick is profiled");
        let coverage = value("sim.span_coverage").expect("reported");
        assert!((0.0..=1.0).contains(&coverage), "coverage {coverage}");
    }

    #[test]
    fn coverage_counts_only_top_level_spans() {
        let stat = |name: &str, total_s: f64| PhaseStat {
            name: name.into(),
            calls: 1,
            total_s,
            self_s: total_s,
        };
        let profile = Profile(vec![
            stat("sim.scheduler_tick", 2.0),
            stat("core.mckp", 1.5),
            stat("sim.orchestrator_tick", 0.5),
        ]);
        assert_eq!(covered_s(&profile), 2.5);
    }
}
