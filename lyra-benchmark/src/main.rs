//! `lyra-benchmark`: end-to-end and per-layer benchmark of the Lyra
//! simulator.
//!
//! One invocation measures one workload for `--seconds` seconds in a
//! closed loop with one client: the parent re-executes itself once per
//! repetition (one child at a time, each single-threaded) and prints one
//! JSON result as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics from untraced repetitions; `--trace 1` adds a
//! span-traced child to every repetition and reports the per-layer
//! metrics. See README.md for the workloads and the metric map.

mod metrics;
mod rep;
mod stats;
mod workload;

use metrics::{Metric, END_TO_END, PER_LAYER};
use rep::Mode;
use serde::Value;
use stats::quartiles;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: lyra-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]
                      [--out <file>] [--trace-out <file>]
       lyra-benchmark --check

  --workload   saturated | light | steady | churn
  --seed       seeds the inference trace and scenario (default 5)
  --seconds    how long to keep starting repetitions (default 25)
  --trace      0: end-to-end metrics; 1: per-layer metrics (default 0)
  --out        also write the result, with quartiles, to <file>
  --trace-out  write the benchmark's spans and the program profile to <file>
  --check      every workload on 16 + 16 servers for one day, one repetition";

/// Sink files of observed runs, relative to the working directory; each
/// is deleted as soon as its repetition ends.
const WORK_DIR: &str = ".bench_work";
/// A repetition that takes longer than this is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(100);

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    check: bool,
    // Internal: set by the parent when it re-executes itself.
    child: Option<Mode>,
    sink: Option<PathBuf>,
    validate: bool,
    shrunk: bool,
}

/// Parses the command line (without the program name). `Ok(None)` asks
/// for the usage text.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        seed: 5,
        seconds: 25,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "-h" | "--help" => return Ok(None),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--check" => args.check = true,
            "--child" => {
                let v = value()?;
                args.child =
                    Some(Mode::parse(&v).ok_or_else(|| format!("--child: unknown mode {v:?}"))?);
            }
            "--sink" => args.sink = Some(value()?.into()),
            "--validate" => args.validate = true,
            "--shrunk" => args.shrunk = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload::find(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?} (known: {})",
                known.join(", ")
            ));
        }
    } else if !args.check {
        return Err("--workload is required (or --check)".into());
    }
    if args.child.is_some() && args.sink.is_none() {
        return Err("--child needs --sink".into());
    }
    if args.seconds > 600 {
        return Err(format!("--seconds {} is above 600", args.seconds));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("lyra-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = args.child {
        let w = selected(&args);
        let sink = args.sink.as_deref().expect("checked by parse_args");
        return match rep::run(mode, &w, args.seed, sink, args.validate) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lyra-benchmark: {} {} rep: {e}", w.name, mode.as_str());
                ExitCode::FAILURE
            }
        };
    }
    let ok = if args.check {
        check(&args)
    } else {
        bench(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lyra-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn selected(args: &Args) -> Workload {
    let w = args
        .workload
        .as_deref()
        .and_then(workload::find)
        .expect("checked by parse_args");
    if args.shrunk {
        w.shrunk()
    } else {
        w
    }
}

/// One child's report.
struct ChildOut {
    values: BTreeMap<String, f64>,
    digest: String,
    raw: Value,
}

/// One repetition: an untraced child and, when traced, a span-traced
/// child on the same input.
struct Rep {
    full: ChildOut,
    traced: Option<ChildOut>,
}

/// Every repetition of one run.
#[derive(Default)]
struct Reps {
    done: Vec<Rep>,
    attempted: u64,
    failed: u64,
}

/// The input seed of repetition `rep`: each repetition draws its own
/// inference trace, so a run's median averages over several inputs
/// rather than hinging on one.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(rep)
}

/// Runs repetitions of `name` until `seconds` have passed (at least one),
/// one child at a time.
fn measure(
    name: &str,
    shrunk: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Reps, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let start = Instant::now();
    let mut reps = Reps::default();
    let mut child = |rep: u64, mode: Mode| {
        reps.attempted += 1;
        let sink = Path::new(WORK_DIR).join(format!(
            "{name}-{}-{rep}-{}.jsonl",
            std::process::id(),
            mode.as_str()
        ));
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", mode.as_str(), "--workload", name])
            .args(["--seed", &rep_seed(seed, rep).to_string()])
            .arg("--sink")
            .arg(&sink);
        if rep == 0 && mode == Mode::Full {
            cmd.arg("--validate");
        }
        if shrunk {
            cmd.arg("--shrunk");
        }
        let result = run_child(cmd);
        // The sink is gone after every repetition, failed ones too.
        let _ = std::fs::remove_file(&sink);
        result
            .map_err(|e| {
                reps.failed += 1;
                eprintln!(
                    "lyra-benchmark: {name} {} rep {rep} failed: {e}",
                    mode.as_str()
                );
            })
            .ok()
    };
    let mut done = Vec::new();
    for rep in 0.. {
        if let Some(full) = child(rep, Mode::Full) {
            let traced = if traced {
                child(rep, Mode::Traced)
            } else {
                None
            };
            done.push((rep, full, traced));
        }
        if start.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    let _ = std::fs::remove_dir(WORK_DIR); // only if no other run uses it
    for (rep, full, traced) in done {
        // Tracing must not change a decision (observation is checked
        // inside the untraced child).
        if traced.as_ref().is_some_and(|t| t.digest != full.digest) {
            reps.failed += 1;
            eprintln!("lyra-benchmark: {name} rep {rep}: the traced run made different decisions");
            continue;
        }
        reps.done.push(Rep { full, traced });
    }
    Ok(reps)
}

/// Runs one child to completion (killing it after `CHILD_TIMEOUT`) and
/// parses the JSON line it printed.
fn run_child(mut cmd: Command) -> Result<ChildOut, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read stdout: {e}"))?;
    match status {
        None => return Err(format!("no result within {}s", CHILD_TIMEOUT.as_secs())),
        Some(s) if !s.success() => return Err(format!("child {s}")),
        Some(_) => {}
    }
    let line = text.lines().last().unwrap_or_default();
    let raw: Value =
        serde_json::from_str(line).map_err(|e| format!("unreadable result {line:?}: {e}"))?;
    let digest = match raw.get("digest") {
        Some(Value::Str(d)) => d.clone(),
        _ => return Err("result has no digest".into()),
    };
    let mut values = BTreeMap::new();
    if let Some(Value::Object(pairs)) = raw.get("values") {
        for (k, v) in pairs {
            let x = match v {
                Value::Float(x) => *x,
                Value::Int(i) => *i as f64,
                Value::UInt(u) => *u as f64,
                _ => return Err(format!("value {k} is not a number")),
            };
            values.insert(k.clone(), x);
        }
    }
    Ok(ChildOut {
        values,
        digest,
        raw,
    })
}

/// The per-repetition samples of every metric in `catalogue`.
fn samples(reps: &Reps, catalogue: &'static [Metric]) -> Vec<(&'static Metric, Vec<f64>)> {
    let value = |out: &ChildOut, key: &str| out.values.get(key).copied();
    catalogue
        .iter()
        .map(|m| {
            let values = reps.done.iter().filter_map(|rep| {
                let traced = rep.traced.as_ref();
                if m.name == "profiler.overhead_s" {
                    // Traced minus untraced wall time on the same input.
                    Some(value(traced?, "traced_run_s")? - value(&rep.full, "run_s")?)
                } else {
                    value(&rep.full, m.name).or_else(|| value(traced?, m.name))
                }
            });
            (m, values.collect())
        })
        .collect()
}

fn metric_json(m: &Metric, value: f64) -> (String, Value) {
    let fields = vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(m.unit.to_string())),
    ];
    (m.name.to_string(), Value::Object(fields))
}

fn bench(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let reps = measure(name, false, args.seed, args.seconds, args.trace)?;
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let samples = samples(&reps, catalogue);
    let complete = samples.iter().all(|(_, v)| !v.is_empty());
    let correct = reps.failed == 0 && complete;

    eprintln!(
        "{name} seed {} ({} repetitions, {} failed)\n{:<32} {:>14} {:>14} {:>14} {:>4}  unit",
        args.seed,
        reps.done.len(),
        reps.failed,
        "metric",
        "median",
        "q1",
        "q3",
        "n"
    );
    let mut metrics = Vec::new();
    let mut detailed = Vec::new();
    for (m, values) in &samples {
        let Some((q1, med, q3)) = quartiles(values) else {
            eprintln!("{:<32} {:>14}", m.name, "missing");
            continue;
        };
        eprintln!(
            "{:<32} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>4}  {}",
            m.name,
            values.len(),
            m.unit
        );
        metrics.push(metric_json(m, med));
        let mut full = metric_json(m, med);
        if let Value::Object(fields) = &mut full.1 {
            fields.push(("better".into(), Value::Str(m.better.into())));
            fields.push(("q1".into(), Value::Float(q1)));
            fields.push(("q3".into(), Value::Float(q3)));
            fields.push(("n".into(), Value::UInt(values.len() as u64)));
        }
        detailed.push(full);
    }
    let result = |metrics: Vec<(String, Value)>| {
        Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(reps.attempted)),
            ("failed".into(), Value::UInt(reps.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    };
    if let Some(path) = &args.out {
        let mut doc = result(detailed);
        if let Value::Object(fields) = &mut doc {
            fields.insert(0, ("workload".into(), Value::Str(name.into())));
            fields.insert(1, ("seed".into(), Value::UInt(args.seed)));
        }
        write_json(path, &doc)?;
    }
    if let Some(path) = &args.trace_out {
        write_json(path, &trace_doc(name, args.seed, &reps))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result(metrics)).expect("a Value tree always serialises")
    );
    Ok(correct)
}

/// The benchmark's own spans from the first repetition's untraced and
/// traced children, and the program's span profile from the traced one.
fn trace_doc(name: &str, seed: u64, reps: &Reps) -> Value {
    let mut fields = vec![
        ("workload".to_string(), Value::Str(name.into())),
        ("seed".into(), Value::UInt(seed)),
    ];
    if let Some(first) = reps.done.first() {
        let field = |out: &ChildOut, key: &str| out.raw.get(key).cloned().unwrap_or(Value::Null);
        fields.push(("untraced_spans".into(), field(&first.full, "spans")));
        if let Some(traced) = &first.traced {
            fields.push(("traced_spans".into(), field(traced, "spans")));
            fields.push(("profile".into(), field(traced, "profile")));
        }
    }
    Value::Object(fields)
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).expect("a Value tree always serialises");
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// `--check`: every workload shrunk, one untraced and one traced
/// repetition each, every check on, every metric present and finite.
fn check(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let mut ok = true;
    for w in &WORKLOADS {
        let reps = measure(w.name, true, args.seed, 0, true)?;
        let mut missing: Vec<&str> = Vec::new();
        for catalogue in [END_TO_END, PER_LAYER] {
            for (m, values) in samples(&reps, catalogue) {
                if values.is_empty() || !values.iter().all(|v| v.is_finite()) {
                    missing.push(m.name);
                }
            }
        }
        let passed = reps.failed == 0 && missing.is_empty();
        ok &= passed;
        eprintln!(
            "check {:<10} {} ({} attempted, {} failed{})",
            w.name,
            if passed { "ok" } else { "FAILED" },
            reps.attempted,
            reps.failed,
            if missing.is_empty() {
                String::new()
            } else {
                format!(", missing {}", missing.join(" "))
            }
        );
    }
    eprintln!("check done in {:.1}s", start.elapsed().as_secs_f64());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for line in [
            "",
            "--workload",
            "--workload nope",
            "--workload steady --seed -1",
            "--workload steady --seconds ten",
            "--workload steady --seconds 601",
            "--workload steady --trace 2",
            "--workload steady --frobnicate",
            "--child full --workload steady",
            "--child sideways --workload steady --sink x",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
    }

    #[test]
    fn benchmark_command_line_parses() {
        let args = parse("--workload churn --seed 11 --seconds 20 --trace 1")
            .expect("valid")
            .expect("not help");
        assert_eq!(args.workload.as_deref(), Some("churn"));
        assert_eq!((args.seed, args.seconds, args.trace), (11, 20, true));
        let defaults = parse("--workload light").expect("valid").expect("not help");
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (5, 25, false)
        );
        assert!(parse("--check").expect("valid").expect("not help").check);
        assert!(parse("--help").expect("valid").is_none());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn names_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
        let field = |v: &Value, k: &str| match v.get(k) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
