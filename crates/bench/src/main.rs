//! The experiment harness CLI.
//!
//! ```text
//! cargo run -p lyra-bench --release -- tab5            # one experiment
//! cargo run -p lyra-bench --release -- all --small     # everything, CI size
//! cargo run -p lyra-bench --release -- fig10 --full    # paper scale
//! cargo run -p lyra-bench --release -- list
//! cargo run -p lyra-bench --release -- smoke           # observed end-to-end run
//! cargo run -p lyra-bench --release -- why 17          # one job: causes, intervals, decisions
//! cargo run -p lyra-bench --release -- blame --top 5   # cluster-wide delay rankings
//! cargo run -p lyra-bench --release -- timeline        # sparkline telemetry dashboard
//! ```
//!
//! Results print as tables/series on stdout; `--quiet` suppresses the
//! tables and `--json [dir]` replaces them with one machine-readable
//! JSON line per experiment (and, when a directory is given, one JSON
//! file per experiment). `plot <file.json>...` renders archived results
//! as SVG line charts next to the JSON. The log-replay commands (`why`,
//! `blame`, `export-trace`, `events`, `timeline`) read the JSONL event
//! log named by `--log <file.jsonl>`, or a fresh small observed run's.
//!
//! Every subcommand's operand and flags are declared once, in
//! [`COMMANDS`]; that table drives parsing, dispatch and the usage
//! text. An unknown or extra argument is a usage error (exit 2); a
//! command that fails prints why and exits 1.

use lyra_bench::{experiments, Scale};
use lyra_obs::{OutputMode, TimedEvent};
use lyra_sim::{run_scenario_observed, ObserverConfig, Scenario};
use std::path::Path;
use std::str::FromStr;

/// Why a command did not run to completion.
#[derive(Debug)]
enum CliError {
    /// Bad arguments: the message and the usage text on stderr, exit 2.
    Usage(String),
    /// The command itself failed: the message on stderr, exit 1.
    Failed(String),
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn failed(msg: impl Into<String>) -> CliError {
    CliError::Failed(msg.into())
}

/// A subcommand's exit code, or why it could not produce one.
type CmdResult = Result<i32, CliError>;

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Arity {
    /// `[--flag]` alone.
    Switch,
    /// `[--flag <meta>]`.
    Value(&'static str),
    /// `--flag <meta>`, which must be given.
    Required(&'static str),
    /// `[--flag [meta]]`: takes the next argument unless it
    /// [looks like an operand](is_operand_like) of its own.
    Optional(&'static str),
}
use Arity::{Optional, Required, Switch, Value};

/// A flag's name and how it takes its value.
#[derive(Clone, Copy)]
struct Flag(&'static str, Arity);

const LOG: Flag = Flag("--log", Value("<file.jsonl>"));

/// The positional operands a command takes.
#[derive(Clone, Copy)]
enum Operand {
    None,
    /// Exactly one.
    One(&'static str),
    /// One or more.
    Many(&'static str),
    /// One or more experiment ids (or `all`).
    Experiments,
}

struct Command {
    /// Subcommand name; empty for the experiment runner.
    name: &'static str,
    operand: Operand,
    flags: &'static [Flag],
    run: fn(&Invocation) -> CmdResult,
}

const fn cmd(
    name: &'static str,
    operand: Operand,
    flags: &'static [Flag],
    run: fn(&Invocation) -> CmdResult,
) -> Command {
    Command {
        name,
        operand,
        flags,
        run,
    }
}

/// `lyra-bench <id>...`: the experiment runner, taken whenever the first
/// argument names no subcommand.
#[rustfmt::skip]
const EXPERIMENTS: Command = cmd("", Operand::Experiments, &[Flag("--small", Switch),
    Flag("--medium", Switch), Flag("--full", Switch), Flag("--quiet", Switch),
    Flag("--json", Optional("dir"))], experiments_cmd);

/// Every subcommand, in usage order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("help", Operand::None, &[], help_cmd),
    cmd("list", Operand::None, &[], list_cmd),
    cmd("plot", Operand::Many("<file.json>"), &[], plot_cmd),
    cmd("smoke", Operand::None, &[LOG], smoke_cmd),
    cmd("why", Operand::One("<job-id>"), &[LOG], why_cmd),
    cmd("blame", Operand::None, &[Flag("--top", Value("<n>")), LOG], blame_cmd),
    cmd("export-trace", Operand::None, &[LOG, Flag("--out", Value("<file.json>"))],
        export_trace_cmd),
    cmd("events", Operand::None, &[Flag("--filter", Required(FILTER)), LOG], events_cmd),
    cmd("timeline", Operand::None, &[LOG, Flag("--width", Value("<cols>"))], timeline_cmd),
    cmd("golden", Operand::None, &[Flag("--bless", Switch), Flag("--mutate", Switch)],
        golden_cmd),
    cmd("ablate", Operand::None, &[Flag("--smoke", Switch), Flag("--policy", Value("<name>")),
        Flag("--seed", Value("<s>")), Flag("--out", Value("<file>"))], ablate_cmd),
];

/// The `events --filter` syntax.
const FILTER: &str = "job=<id>,kind=<kind>,cause=<cause>";

impl Command {
    /// One usage line, e.g. `lyra-bench why <job-id> [--log <file.jsonl>]`.
    fn synopsis(&self) -> String {
        let mut line = String::from("lyra-bench");
        let mut add = |s: &str| {
            line.push(' ');
            line.push_str(s);
        };
        if !self.name.is_empty() {
            add(self.name);
        }
        match self.operand {
            Operand::None => {}
            Operand::One(meta) => add(meta),
            Operand::Many(meta) => add(&format!("{meta}...")),
            Operand::Experiments => add("<id>..."),
        }
        for Flag(name, arity) in self.flags {
            add(&match arity {
                Switch => format!("[{name}]"),
                Value(meta) => format!("[{name} {meta}]"),
                Required(meta) => format!("{name} {meta}"),
                Optional(meta) => format!("[{name} [{meta}]]"),
            });
        }
        line
    }
}

/// The complete usage listing, generated from [`COMMANDS`]. One source
/// of truth for both the help path and the bad-arguments path.
fn usage_text() -> String {
    let mut out = String::new();
    for (i, cmd) in std::iter::once(&EXPERIMENTS).chain(COMMANDS).enumerate() {
        out.push_str(if i == 0 { "usage: " } else { "       " });
        out.push_str(&cmd.synopsis());
        out.push('\n');
    }
    out.push_str(&format!(
        "ids: {}  (or `all`)\nevent kinds: {}\ndelay causes: {}",
        experiments::ALL.join(" "),
        lyra_obs::KIND_NAMES.join(" "),
        cause_labels().join(" ")
    ));
    out
}

fn cause_labels() -> Vec<&'static str> {
    lyra_obs::DelayCause::ALL
        .iter()
        .map(|c| c.label())
        .collect()
}

/// True if `arg` is a flag, subcommand or experiment id — i.e. not a
/// directory operand for `--json [dir]`.
fn is_operand_like(arg: &str) -> bool {
    arg.starts_with("--")
        || arg == "all"
        || COMMANDS.iter().any(|c| c.name == arg)
        || experiments::ALL.contains(&arg)
}

/// One parsed command line: the command, its operands and its flags
/// (in the order given; a repeated flag's last value wins).
struct Invocation<'a> {
    cmd: &'static Command,
    operands: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Invocation<'a> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, v)| *v)
    }

    /// The value of `flag` converted to `T`, or `default` when absent.
    fn parsed<T: FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        self.value(flag)
            .map_or(Ok(default), |raw| self.convert(flag, raw))
    }

    fn convert<T: FromStr>(&self, what: &str, raw: &str) -> Result<T, CliError> {
        raw.parse()
            .map_err(|_| usage_err(format!("{}: bad value {raw:?} for {what}", self.cmd.name)))
    }
}

/// Parses a command line against [`COMMANDS`]. Checks the shape only
/// (known flags, values present, operand count, required flags,
/// experiment ids); commands convert values themselves.
fn parse(args: &[String]) -> Result<Invocation<'_>, CliError> {
    let first = args.first().ok_or_else(|| usage_err("no command given"))?;
    let (cmd, rest) = match COMMANDS
        .iter()
        .find(|c| c.name == first || (c.name == "help" && first == "--help"))
    {
        Some(cmd) => (cmd, &args[1..]),
        None => (&EXPERIMENTS, args),
    };
    let label = format!("lyra-bench {}", cmd.name);
    let label = label.trim_end();
    let mut inv = Invocation {
        cmd,
        operands: Vec::new(),
        flags: Vec::new(),
    };
    let mut rest = rest.iter().map(String::as_str).peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            inv.operands.push(arg);
            continue;
        }
        let Some(flag) = cmd.flags.iter().find(|f| f.0 == arg) else {
            return Err(usage_err(format!("{label}: unknown argument {arg:?}")));
        };
        let value = match flag.1 {
            Switch => None,
            Value(meta) | Required(meta) => Some(
                rest.next()
                    .ok_or_else(|| usage_err(format!("{label}: {arg} expects {meta}")))?,
            ),
            Optional(_) => rest.next_if(|next| !is_operand_like(next)),
        };
        inv.flags.push((flag.0, value));
    }
    let (min, max) = match cmd.operand {
        Operand::None => (0, 0),
        Operand::One(_) => (1, 1),
        Operand::Many(_) | Operand::Experiments => (1, usize::MAX),
    };
    if let Some(extra) = inv.operands.get(max) {
        return Err(usage_err(format!("{label}: unexpected argument {extra:?}")));
    }
    if inv.operands.len() < min {
        return Err(usage_err(format!("{label}: missing operand")));
    }
    if let Operand::Experiments = cmd.operand {
        let unknown = |id: &&&str| **id != "all" && !experiments::ALL.contains(id);
        if let Some(id) = inv.operands.iter().find(unknown) {
            return Err(usage_err(format!("unknown experiment or command: {id}")));
        }
    }
    let missing = cmd
        .flags
        .iter()
        .find(|f| matches!(f.1, Required(_)) && !inv.has(f.0));
    if let Some(Flag(name, _)) = missing {
        return Err(usage_err(format!("{label}: {name} is required")));
    }
    Ok(inv)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args).and_then(|inv| (inv.cmd.run)(&inv)) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n{}", usage_text());
            2
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("{msg}");
            1
        }
    };
    std::process::exit(code);
}

fn write_file(path: impl AsRef<Path>, contents: &str) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|e| failed(format!("cannot write {}: {e}", path.display())))
}

/// `<id>... [--small|--medium|--full] [--quiet] [--json [dir]]`: run
/// experiments; the last scale flag wins.
fn experiments_cmd(inv: &Invocation) -> CmdResult {
    let mut scale = Scale::Medium;
    let mut json_dir: Option<&str> = None;
    for (flag, value) in &inv.flags {
        match *flag {
            "--small" => scale = Scale::Small,
            "--medium" => scale = Scale::Medium,
            "--full" => scale = Scale::Full,
            "--quiet" => lyra_obs::output::set_mode(OutputMode::Quiet),
            _ => {
                // `--json`; with a directory it also archives one JSON
                // file per experiment there.
                lyra_obs::output::set_mode(OutputMode::Json);
                json_dir = value.or(json_dir);
            }
        }
    }
    let ids = inv.operands.iter().flat_map(|id| match *id {
        "all" => experiments::ALL,
        _ => std::slice::from_ref(id),
    });
    for id in ids {
        lyra_obs::emitln!("==== {id} ({scale:?}) ====");
        let start = std::time::Instant::now();
        let result = experiments::run(id, scale)
            .ok_or_else(|| usage_err(format!("unknown experiment: {id}")))?;
        lyra_obs::emitln!("[{id} done in {:.1}s]\n", start.elapsed().as_secs_f64());
        let encode_err = |e: serde_json::Error| failed(format!("cannot encode {id}: {e}"));
        lyra_obs::output::emit_json(&serde_json::to_string(&result).map_err(encode_err)?);
        if let Some(dir) = json_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| failed(format!("cannot create {dir}: {e}")))?;
            let path = format!("{dir}/{id}.json");
            write_file(
                &path,
                &serde_json::to_string_pretty(&result).map_err(encode_err)?,
            )?;
            lyra_obs::emitln!("wrote {path}");
        }
    }
    Ok(0)
}

/// `help` / `--help`: usage on stdout, exit 0 — asking for help is not
/// an error.
fn help_cmd(_: &Invocation) -> CmdResult {
    println!("{}", usage_text());
    Ok(0)
}

fn list_cmd(_: &Invocation) -> CmdResult {
    for id in experiments::ALL {
        println!("{id}");
    }
    Ok(0)
}

/// `plot <file.json>...`: one SVG chart per archived result, written
/// next to it.
fn plot_cmd(inv: &Invocation) -> CmdResult {
    for path in &inv.operands {
        let json = std::fs::read_to_string(path)
            .map_err(|e| failed(format!("cannot read {path}: {e}")))?;
        let result: lyra_bench::ExperimentResult = serde_json::from_str(&json)
            .map_err(|e| failed(format!("{path} is not an experiment result: {e}")))?;
        let out = Path::new(path).with_extension("svg");
        write_file(&out, &lyra_bench::plot::plot_experiment(&result))?;
        println!("wrote {}", out.display());
    }
    Ok(0)
}

/// Runs one small observed Basic scenario and returns its report; used
/// by `smoke` and the log-replay commands when no `--log` file is
/// given.
fn observed_small_run(sink: Option<&str>) -> Result<lyra_sim::SimReport, CliError> {
    // Seed 5 and the Small cluster match tab5's Basic row, which
    // exercises loaning, reclaiming and preemption even at Small scale.
    let (jobs, inference) = Scale::Small.traces(5);
    let mut scenario = Scenario::basic();
    scenario.cluster = Scale::Small.cluster_config();
    let observer = ObserverConfig {
        sink_path: sink.map(std::path::PathBuf::from),
    };
    run_scenario_observed(&scenario, &jobs, &inference, observer)
        .map_err(|e| failed(format!("observed run failed: {e}")))
}

/// The events of the JSONL log named by `--log`, with its text (read
/// and parsed once per command), or of a fresh small observed run, with
/// no text.
fn read_log(inv: &Invocation) -> Result<(Option<String>, Vec<TimedEvent>), CliError> {
    let Some(path) = inv.value("--log") else {
        return Ok((None, observed_small_run(None)?.events));
    };
    let jsonl = std::fs::read_to_string(path)
        .map_err(|e| failed(format!("cannot read event log {path}: {e}")))?;
    let events = lyra_obs::parse_log(&jsonl)
        .map_err(|e| failed(format!("event log does not parse: {e}")))?;
    Ok((Some(jsonl), events))
}

/// `smoke [--log <file>]`: one observed end-to-end run with every
/// observability pillar checked — used by ci.sh as the bench smoke
/// test. Fails if the run produced no events, no span profile or no
/// delay attribution, if the telemetry's `sim.jobs.completed` counter
/// disagrees with the report's completed count, or if the exported
/// Chrome trace fails the `trace_event` schema check. With `--log`,
/// also writes the JSONL event log to `file` (feed it to the log-replay
/// commands with `--log <file>`).
fn smoke_cmd(inv: &Invocation) -> CmdResult {
    let mut report = observed_small_run(inv.value("--log"))?;
    // With a sink the log lives in the file only.
    let events = match inv.value("--log") {
        Some(_) => read_log(inv)?.1,
        None => std::mem::take(&mut report.events),
    };
    let counted = report.telemetry.counter("sim.jobs.completed");
    println!(
        "smoke: {} jobs completed ({counted} counted), {} events, {} profiled phases",
        report.completed,
        events.len(),
        report.profile.0.len()
    );
    print!("{}", report.profile.render());
    print!("{}", report.attribution.render_table());
    let trace = lyra_obs::export_provenance_trace(&events);
    let stats = lyra_obs::validate_chrome_trace(&trace)
        .map_err(|e| failed(format!("smoke: exported Chrome trace is malformed: {e}")))?;
    println!(
        "smoke: chrome trace ok ({} events, {} tracks, {} span pairs, {} flow events)",
        stats.events, stats.tracks, stats.span_pairs, stats.flow_events
    );
    let ok = report.completed > 0
        && !events.is_empty()
        && counted == report.completed as u64
        && !report.profile.0.is_empty()
        && report.attribution.jobs > 0
        && stats.span_pairs > 0;
    if !ok {
        return Err(failed("smoke: missing observability output"));
    }
    Ok(0)
}

/// `why <job-id>`: everything the log says about one job's delay, in
/// three sections — its ranked delay causes, each delay interval with
/// the causal chain of decisions (victim ranking, loan demand,
/// faults, …) behind it, and the audited decision chain (the verdict
/// of every scheduler decision that touched the job, with its inputs
/// where they were logged).
fn why_cmd(inv: &Invocation) -> CmdResult {
    let job: u64 = inv.convert("<job-id>", inv.operands[0])?;
    let (_, events) = read_log(inv)?;
    let attrs = lyra_obs::attribute_log(&events);
    let graph = lyra_obs::build_provenance(&events);
    let intervals =
        lyra_obs::render_why(&graph, &attrs, job).map_err(|e| failed(format!("why: {e}")))?;
    let causes = attrs
        .iter()
        .find(|a| a.job == job)
        .map(lyra_obs::render_job)
        .unwrap_or_default();
    print!(
        "{causes}\n{intervals}\n{}",
        lyra_obs::explain_job(&events, job)
    );
    Ok(0)
}

/// `blame [--top <n>]`: the cluster-wide views — the per-cause
/// attribution table, the jobs that lost the most non-productive
/// time, and the reclaim decisions ranked by the victim delay they
/// caused (with the loan-demand decision each ranking answered). Same
/// seed, same bytes.
fn blame_cmd(inv: &Invocation) -> CmdResult {
    let top: usize = inv.parsed("--top", 10)?;
    let (_, events) = read_log(inv)?;
    let attrs = lyra_obs::attribute_log(&events);
    let graph = lyra_obs::build_provenance(&events);
    print!(
        "{}\n{}\n{}",
        lyra_obs::summarize(&attrs).render_table(),
        lyra_obs::render_top(&attrs, top),
        lyra_obs::render_blame(&graph, &attrs, top)
    );
    Ok(0)
}

/// `export-trace`: write the event log as Chrome/Perfetto `trace_event`
/// JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>), with
/// provenance flow arrows — each reclaim preemption linked back to the
/// victim-ranking decision that chose it, each loan-enabled scale-out
/// to its grant. Schema-validated before the command reports success.
fn export_trace_cmd(inv: &Invocation) -> CmdResult {
    let out = inv.value("--out").unwrap_or("trace.json");
    let (_, events) = read_log(inv)?;
    let trace = lyra_obs::export_provenance_trace(&events);
    let stats = lyra_obs::validate_chrome_trace(&trace).map_err(|e| {
        failed(format!(
            "export-trace: exported trace failed validation: {e}"
        ))
    })?;
    write_file(out, &trace)?;
    println!(
        "wrote {out}: {} events, {} tracks, {} span pairs, {} flow events",
        stats.events, stats.tracks, stats.span_pairs, stats.flow_events
    );
    Ok(0)
}

/// `events --filter job=<id>,kind=<kind>,cause=<cause>`: slice a JSONL
/// event log, printing the raw lines that match every filter term (a job
/// filter matches any event touching that job, audit records included;
/// a cause filter matches events naming that [`lyra_obs::DelayCause`]).
fn events_cmd(inv: &Invocation) -> CmdResult {
    let filter = inv.value("--filter").unwrap_or_default();
    let mut job: Option<u64> = None;
    let mut kind: Option<&str> = None;
    let mut cause: Option<lyra_obs::DelayCause> = None;
    for part in filter.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some(("job", v)) => job = Some(inv.convert("job=<id>", v)?),
            Some(("kind", v)) => {
                // Validate against the authoritative event-kind list so a
                // typo fails loudly instead of silently matching nothing.
                if !lyra_obs::KIND_NAMES.contains(&v) {
                    return Err(usage_err(format!(
                        "events: unknown event kind {v:?} (known kinds: {})",
                        lyra_obs::KIND_NAMES.join(", ")
                    )));
                }
                kind = Some(v);
            }
            Some(("cause", v)) => {
                // Same deal for the delay-cause taxonomy.
                cause = Some(lyra_obs::DelayCause::from_label(v).ok_or_else(|| {
                    usage_err(format!(
                        "events: unknown delay cause {v:?} (known causes: {})",
                        cause_labels().join(", ")
                    ))
                })?);
            }
            _ => {
                return Err(usage_err(format!(
                    "events: bad filter term {part:?} (use {FILTER})"
                )))
            }
        }
    }
    if job.is_none() && kind.is_none() && cause.is_none() {
        return Err(usage_err(format!("events: empty filter (use {FILTER})")));
    }
    let (jsonl, events) = read_log(inv)?;
    // A fresh run's events are printed as the lines its sink would hold.
    let jsonl = jsonl.unwrap_or_else(|| lyra_obs::to_jsonl(&events));
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    // A torn final line (crash-cut log) parses to one fewer event than
    // there are lines; the zip below then skips it.
    if lines.len() != events.len() {
        eprintln!(
            "events: warning: {} lines but {} parsed events (torn final line?)",
            lines.len(),
            events.len()
        );
    }
    let mut matched = 0usize;
    for (line, ev) in lines.iter().zip(&events) {
        let job_ok = job.is_none_or(|id| ev.event.touches_job(id));
        let kind_ok = kind.is_none_or(|k| ev.event.kind_name() == k);
        let cause_ok = cause.is_none_or(|c| ev.event.cause() == Some(c));
        if job_ok && kind_ok && cause_ok {
            println!("{line}");
            matched += 1;
        }
    }
    eprintln!("events: {matched} of {} lines matched", lines.len());
    Ok(0)
}

/// `timeline [--log <file.jsonl>] [--width <cols>]`: the sparkline
/// dashboard. Without `--log` it runs one small observed scenario and
/// charts the live telemetry; with `--log` it replays a recorded event
/// log, deriving the (smaller) series set the log supports, sampled at
/// each logged change of the epoch shape.
fn timeline_cmd(inv: &Invocation) -> CmdResult {
    use lyra_bench::timeline;
    let width = inv.parsed("--width", timeline::DEFAULT_WIDTH)?;
    let from_log = inv.value("--log").is_some();
    let telemetry = if from_log {
        timeline::telemetry_from_log(&read_log(inv)?.1)
    } else {
        observed_small_run(None)?.telemetry
    };
    print!(
        "{}",
        timeline::render_dashboard(&telemetry, width, from_log)
    );
    Ok(0)
}

fn golden_cmd(inv: &Invocation) -> CmdResult {
    let (bless, mutate) = (inv.has("--bless"), inv.has("--mutate"));
    if bless && mutate {
        return Err(usage_err("golden: --bless and --mutate are exclusive"));
    }
    Ok(lyra_bench::golden::run(bless, mutate))
}

fn ablate_cmd(inv: &Invocation) -> CmdResult {
    Ok(lyra_bench::ablate::run(
        inv.has("--smoke"),
        inv.parsed("--seed", 0)?,
        inv.value("--policy"),
        inv.value("--out"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Invocation<'static>, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(Box::leak(Box::new(args)))
    }

    #[test]
    fn ci_and_documented_invocations_parse() {
        for line in [
            // Every invocation in ci.sh.
            "smoke --log s.jsonl",
            "events --filter job=0,kind=JobStart --log s.jsonl",
            "blame --top 5 --log s.jsonl",
            "why 0 --log s.jsonl",
            "blame --top 5",
            "export-trace --log s.jsonl --out s.trace.json",
            "events --filter cause=no-such-cause --log s.jsonl",
            "events --filter cause=reclaim-preemption --log s.jsonl",
            "timeline",
            "timeline --log s.jsonl",
            "golden",
            "golden --mutate",
            "ablate --smoke --out a.txt",
            "ablate --policy no-such-policy",
            // The forms the README documents.
            "help",
            "--help",
            "list",
            "tab5",
            "--small tab5 --json out",
            "all --json results/",
            "fig10 --full",
            "plot results/fig10.json",
            "timeline --width 48",
            "golden --bless",
            "ablate --seed 7 --out sweep.txt",
        ] {
            assert!(parse_line(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn stray_missing_and_removed_arguments_are_usage_errors() {
        for line in [
            // Unknown flags and extra operands.
            "explain 5 --bogus",
            "why 3 --top 2",
            "smoke --bogus",
            "golden --bless extra",
            "attribute 0 --log f extra",
            "why 0 --bogus",
            "why 0 1",
            "list extra",
            "tab5 --bogus",
            "tab5 why",
            // Missing operands and values.
            "",
            "why",
            "why 0 --log",
            "plot",
            "events --log s.jsonl",
            "--small",
            // Names that are not subcommands.
            "explain 0",
            "attribute 0",
            "attribute --top 5",
            "export-provenance",
            "export-provenance --log s.jsonl --out p.json",
            "checkpoint --at 10",
            "checkpoint --at 3600 --out run.ckpt",
            "resume",
            "resume --ckpt run.ckpt",
            "crash-storm",
            "crash-storm --kills 10 --seed 1 --dir d",
            "prom",
            "prom --out s.prom",
            "perf",
            "perf --smoke",
        ] {
            let result = parse_line(line);
            assert!(matches!(result, Err(CliError::Usage(_))), "{line:?}");
        }
    }

    #[test]
    fn values_convert_or_fail_as_usage_errors() {
        let why = parse_line("why 17 --log f.jsonl").expect("parses");
        assert_eq!(
            why.convert::<u64>("<job-id>", why.operands[0]).expect("id"),
            17
        );
        assert_eq!(why.value("--log"), Some("f.jsonl"));
        let bad = why.convert::<u64>("<job-id>", "abc");
        assert!(matches!(bad, Err(CliError::Usage(_))));
        let blame = parse_line("blame --top 3 --top 4").expect("parses");
        assert_eq!(blame.parsed("--top", 10).expect("count"), 4, "last wins");
        let blame = parse_line("blame").expect("parses");
        assert_eq!(blame.parsed("--top", 10).expect("default"), 10);
        let json = parse_line("tab5 --json out").expect("parses");
        assert_eq!(json.value("--json"), Some("out"));
        // An experiment id after `--json` is an operand, not its directory.
        let json = parse_line("--json fig1 tab5").expect("parses");
        assert_eq!(
            (json.value("--json"), json.operands),
            (None, vec!["fig1", "tab5"])
        );
    }

    #[test]
    fn the_table_drives_usage_and_lookup() {
        let names: std::collections::BTreeSet<_> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(
            (COMMANDS.len(), names.len()),
            (11, 11),
            "11 distinct subcommands"
        );
        let usage = usage_text();
        for name in names {
            assert!(usage.contains(&format!("lyra-bench {name}")) && is_operand_like(name));
        }
        assert!(usage.contains("lyra-bench why <job-id> [--log <file.jsonl>]"));
        for gone in [
            "explain",
            "attribute",
            "export-provenance",
            "checkpoint",
            "resume",
            "crash-storm",
            "prom",
            "perf",
        ] {
            assert!(!usage.contains(&format!("lyra-bench {gone}")), "{gone}");
            assert!(!is_operand_like(gone), "{gone}");
            let Err(CliError::Usage(msg)) = parse_line(gone) else {
                panic!("{gone} parses");
            };
            assert!(msg.contains("unknown experiment or command"), "{gone}: {msg}");
        }
    }
}
