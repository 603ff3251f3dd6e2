#!/usr/bin/env sh
# Tier-1 gate: build, test, lint, docs, smoke, oracles. Run from the
# repo root.
set -eu

cargo build --release --workspace
cargo build --release --examples

# Workspace tests, with a total-count summary at the end. No pipeline
# here: plain sh has no pipefail, so `cargo test | tee` would report
# tee's exit status and a failing suite would slip through the gate.
test_log=$(mktemp)
if ! cargo test -q --workspace >"$test_log" 2>&1; then
  cat "$test_log"
  rm -f "$test_log"
  echo "ci: workspace tests failed" >&2
  exit 1
fi
cat "$test_log"
total_passed=$(grep -o '[0-9]* passed' "$test_log" | awk '{s += $1} END {print s + 0}')
rm -f "$test_log"

# Every #[ignore]d test must carry a TODO(issue#) marker on the same
# line, so disabled tests stay visibly tracked instead of rotting.
untracked=$(grep -rn '#\[ignore' crates/*/src crates/*/tests 2>/dev/null \
  | grep -v 'TODO(issue' || true)
if [ -n "$untracked" ]; then
  echo "ci: #[ignore]d test(s) without a TODO(issue#) marker:" >&2
  echo "$untracked" >&2
  exit 1
fi

cargo clippy --all-targets -- -D warnings

# Panic-site ratchet: production code may not gain unwrap/expect/
# panic!/unreachable! calls. Each file is counted up to its test module
# (a `#[cfg(test)]` line directly followed by `mod `); a `#[cfg(test)]`
# item in mid-file is counted through. Lower the limit when a call
# becomes a typed error.
panic_limit=46
panic_sites=$(find crates/*/src src -name '*.rs' | while read -r f; do
  awk '/^#\[cfg\(test\)\]$/ { getline nxt; if (nxt ~ /^mod /) exit; print; print nxt; next } { print }' "$f"
done | grep -cE '\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(' || true)
[ "$panic_sites" -le "$panic_limit" ] || {
  echo "ci: $panic_sites panic sites in production code, limit $panic_limit" >&2
  exit 1
}

# First-party rustdoc must build clean (vendored stand-ins are exempt).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p lyra -p lyra-core -p lyra-cluster -p lyra-sim -p lyra-trace \
  -p lyra-predictor -p lyra-elastic -p lyra-obs -p lyra-bench \
  -p lyra-oracle

# Bench smoke: one observed end-to-end run; exits non-zero unless the
# event log, span profile and delay attribution all came out non-empty,
# the telemetry's completed-jobs counter and JCT histogram count both
# equal the report's completed count, and the exported Chrome trace
# passes the trace_event schema check. The saved log then drives the log-replay
# tooling end-to-end.
smoke_dir=$(mktemp -d)
./target/release/lyra-bench smoke --log "$smoke_dir/smoke.jsonl"
./target/release/lyra-bench events --filter job=0,kind=JobStart \
  --log "$smoke_dir/smoke.jsonl" >/dev/null
./target/release/lyra-bench blame --top 5 --log "$smoke_dir/smoke.jsonl"

# Provenance smoke: the log-replay tooling must run end to end — `why`
# for a job known to exist (ranked causes, intervals with their causal
# chains, the audited decision chain), the `blame` rankings from two
# fresh same-seed runs (must be byte-identical), the filter's cause
# taxonomy validation (unknown cause must exit 2 and list the
# alternatives), and the trace export, whose provenance flow arrows
# must be present.
./target/release/lyra-bench why 0 --log "$smoke_dir/smoke.jsonl" >/dev/null
./target/release/lyra-bench blame --top 5 >"$smoke_dir/blame-a.txt"
./target/release/lyra-bench blame --top 5 >"$smoke_dir/blame-b.txt"
cmp "$smoke_dir/blame-a.txt" "$smoke_dir/blame-b.txt" || {
  echo "ci: blame from two same-seed runs is not byte-identical" >&2
  exit 1
}
./target/release/lyra-bench export-trace --log "$smoke_dir/smoke.jsonl" \
  --out "$smoke_dir/smoke.trace.json"
grep -q '"ph":"s"' "$smoke_dir/smoke.trace.json" || {
  echo "ci: export-trace wrote no provenance flow events" >&2
  exit 1
}
status=0
./target/release/lyra-bench events --filter cause=no-such-cause \
  --log "$smoke_dir/smoke.jsonl" >/dev/null 2>"$smoke_dir/cause-err.txt" || status=$?
[ "$status" -eq 2 ] || {
  echo "ci: events --filter cause=no-such-cause exited $status, want 2" >&2
  exit 1
}
grep -q 'known causes' "$smoke_dir/cause-err.txt" || {
  echo "ci: unknown-cause error does not list the taxonomy" >&2
  exit 1
}
./target/release/lyra-bench events --filter cause=reclaim-preemption \
  --log "$smoke_dir/smoke.jsonl" >/dev/null

# Argument strictness: a removed subcommand and a stray flag must each
# exit 2 with the usage text rather than run.
# (`$bad` is unquoted on purpose: it word-splits into the arguments.)
for bad in "explain 0" "why 0 --bogus"; do
  status=0
  ./target/release/lyra-bench $bad >/dev/null 2>"$smoke_dir/bad-err.txt" || status=$?
  [ "$status" -eq 2 ] && grep -q '^usage: ' "$smoke_dir/bad-err.txt" || {
    echo "ci: lyra-bench $bad exited $status without usage, want 2 with usage" >&2
    exit 1
  }
done

# Telemetry smoke: the sparkline dashboard must render from both a live
# run and a replayed log. The Prometheus exposition must declare every
# metric name once and carry the completed-jobs counter and the JCT
# histogram.
./target/release/lyra-bench timeline >/dev/null
./target/release/lyra-bench timeline --log "$smoke_dir/smoke.jsonl" >/dev/null
./target/release/lyra-bench prom --out "$smoke_dir/smoke.prom"
dup_types=$(grep '^# TYPE' "$smoke_dir/smoke.prom" | awk '{print $3}' | sort | uniq -d)
[ -z "$dup_types" ] || {
  echo "ci: Prometheus exposition declares a metric more than once: $dup_types" >&2
  exit 1
}
for family in '^lyra_sim_jobs_completed_total ' '^lyra_sim_jct_s_bucket{le="+Inf"} '; do
  grep -q "$family" "$smoke_dir/smoke.prom" || {
    echo "ci: Prometheus exposition lacks $family" >&2
    exit 1
  }
done
rm -rf "$smoke_dir"

# Perf gates: full observation (event log + telemetry sampling) must fit
# the telemetry overhead budget, the decision-provenance tracker must
# cost at most 5 % (+ slack) over plain observation, and a reclaim-churn
# probe fails if `core.reclaim` burns over 25 % of span self time. The
# overhead probes append to the history array in BENCH_scheduler.json.
# Simulator timing is `lyra-benchmark`'s job. `perf` takes no
# arguments: a stray one must exit 2 rather than run.
./target/release/lyra-bench perf
status=0
./target/release/lyra-bench perf --smoke >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "ci: perf --smoke exited $status, want 2" >&2
  exit 1
}

# Benchmark correctness check: every benchmark workload, shrunk, runs
# once observed and once unobserved (under a second). It fails if the
# observed run makes different decisions from the unobserved one, if
# delay attribution misses a job, if the provenance graph has a cycle or
# if the Chrome export is invalid, so an encode-path regression fails
# here, not only in the benchmark pipeline.
cargo run --release --offline --quiet --manifest-path lyra-benchmark/Cargo.toml -- --check

# Golden-trace gate: the pinned scenarios must reproduce the committed
# JSONL logs byte-for-byte (each case runs twice, so nondeterminism
# fails here too). `lyra-bench golden --bless` regenerates them after
# an intended behavioural change.
./target/release/lyra-bench golden

# Mutation smoke: flip one scheduler constant (phase-2 MCKP DP → greedy
# ablation) and prove the golden gate AND a differential oracle both
# fire — the gate's own test.
./target/release/lyra-bench golden --mutate

# Ablation gate: the policy × scenario-zoo sweep must be a pure
# function of its seed — run the smoke sweep twice and require
# byte-identical output — and a typo'd policy name must exit 2 with a
# typed error, not a panic.
ablate_dir=$(mktemp -d)
./target/release/lyra-bench ablate --smoke --out "$ablate_dir/a.txt" >/dev/null
./target/release/lyra-bench ablate --smoke --out "$ablate_dir/b.txt" >/dev/null
cmp "$ablate_dir/a.txt" "$ablate_dir/b.txt" || {
  echo "ci: ablate --smoke is not deterministic" >&2
  exit 1
}
status=0
./target/release/lyra-bench ablate --policy no-such-policy \
  >/dev/null 2>"$ablate_dir/err.txt" || status=$?
[ "$status" -eq 2 ] || {
  echo "ci: ablate --policy no-such-policy exited $status, want 2" >&2
  exit 1
}
grep -q 'unknown policy' "$ablate_dir/err.txt" || {
  echo "ci: ablate unknown-policy error message missing" >&2
  exit 1
}
rm -rf "$ablate_dir"

# Crash-storm gate: kill the faulted golden scenario at 10 seeded
# epochs, checkpoint the crash-point state through the durable file
# format (torn sink tail included), restore, and require the resumed
# run's event log, attribution table, report and JSONL sink to be
# byte-identical to the uninterrupted run's. Also proves corrupted/
# truncated/version-bumped checkpoints are refused with typed errors.
storm_dir=$(mktemp -d)
./target/release/lyra-bench crash-storm --kills 10 --seed 1 --dir "$storm_dir"
rm -rf "$storm_dir"

echo "ci: all gates passed (${total_passed} tests)"
