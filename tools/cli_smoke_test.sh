#!/usr/bin/env bash
# End-to-end smoke test for phoebe_cli: drives the generate -> train ->
# decide -> backtest loop on a tiny workload and asserts exit codes and
# non-empty, recognizable output. Registered as the `cli_smoke_test` ctest.
#
# Usage: cli_smoke_test.sh /path/to/phoebe_cli
set -u

CLI="${1:?usage: cli_smoke_test.sh /path/to/phoebe_cli}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

expect_exit() {
  # expect_exit <want_code> <label> -- cmd args...
  local want="$1" label="$2"
  shift 3
  "$@" >"$WORKDIR/stdout" 2>"$WORKDIR/stderr"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    fail "$label: exit code $got, wanted $want"
    sed 's/^/    /' "$WORKDIR/stderr" >&2
  fi
}

expect_stdout_contains() {
  local label="$1" needle="$2"
  if ! grep -q "$needle" "$WORKDIR/stdout"; then
    fail "$label: stdout does not contain '$needle'"
    head -5 "$WORKDIR/stdout" | sed 's/^/    /' >&2
  fi
}

expect_stdout_nonempty() {
  local label="$1"
  if [ ! -s "$WORKDIR/stdout" ]; then
    fail "$label: stdout is empty"
  fi
}

expect_stderr_contains() {
  local label="$1" needle="$2"
  if ! grep -q "$needle" "$WORKDIR/stderr"; then
    fail "$label: stderr does not contain '$needle'"
    head -5 "$WORKDIR/stderr" | sed 's/^/    /' >&2
  fi
}

SMALL=(--templates 12 --seed 3)

# Usage errors exit 2.
expect_exit 2 "no arguments" -- "$CLI"
expect_exit 2 "unknown subcommand" -- "$CLI" frobnicate

# Flag-parsing error paths: a typo must fail loudly (with a suggestion),
# never fall back to a default; bad typed values and bad enum values are
# usage errors too; --help succeeds and lists the registered flags.
expect_exit 2 "unknown flag" -- "$CLI" fleet "${SMALL[@]}" --tread 2
expect_stderr_contains "unknown flag" "did you mean '--threads'"
expect_exit 2 "bad int value" -- "$CLI" fleet "${SMALL[@]}" --threads abc
expect_stderr_contains "bad int value" "threads"
expect_exit 2 "missing value" -- "$CLI" fleet "${SMALL[@]}" --threads
expect_exit 2 "bad objective" -- "$CLI" fleet "${SMALL[@]}" --objective bogus
expect_stderr_contains "bad objective" "temp|recovery"
expect_exit 2 "positional argument" -- "$CLI" fleet "${SMALL[@]}" stray
expect_exit 0 "fleet --help" -- "$CLI" fleet --help
expect_stdout_contains "fleet --help" "flags:"
expect_stdout_contains "fleet --help" "metrics"

# generate: writes a non-empty CSV with the expected header.
expect_exit 0 "generate to file" -- \
  "$CLI" generate "${SMALL[@]}" --days 2 --out "$WORKDIR/trace.csv"
if [ ! -s "$WORKDIR/trace.csv" ]; then
  fail "generate: $WORKDIR/trace.csv is empty or missing"
fi
expect_exit 0 "generate to stdout" -- "$CLI" generate "${SMALL[@]}" --days 1
expect_stdout_nonempty "generate to stdout"

# inspect: per-stage table for one job.
expect_exit 0 "inspect" -- "$CLI" inspect "${SMALL[@]}" --day 0 --job 0
expect_stdout_contains "inspect" "stages"

# train: prints the model-quality table.
expect_exit 0 "train" -- "$CLI" train "${SMALL[@]}" --train-days 2
expect_stdout_contains "train" "R^2"
expect_stdout_contains "train" "exec time"

# decide: chooses a cut for one held-out job.
expect_exit 0 "decide" -- "$CLI" decide "${SMALL[@]}" --train-days 2 --job 0
expect_stdout_contains "decide" "job"
expect_exit 1 "decide out-of-range job" -- \
  "$CLI" decide "${SMALL[@]}" --train-days 2 --job 99999

# backtest: approach comparison table must include the oracle row.
expect_exit 0 "backtest" -- "$CLI" backtest "${SMALL[@]}" --train-days 2
expect_stdout_contains "backtest" "Optimal"
expect_stdout_contains "backtest" "Mid-Point"

# fleet: day-level driver; --threads 2 must produce the same report text as
# the serial run (the byte-identical contract, observed end to end).
expect_exit 0 "fleet serial" -- "$CLI" fleet "${SMALL[@]}" --train-days 2
expect_stdout_contains "fleet serial" "jobs admitted"
cp "$WORKDIR/stdout" "$WORKDIR/fleet_serial.out"
expect_exit 0 "fleet threaded" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --threads 2
if ! diff -q "$WORKDIR/fleet_serial.out" <(sed 's/2 threads/1 threads/' "$WORKDIR/stdout") >/dev/null; then
  fail "fleet: threaded report differs from serial report"
fi
expect_exit 0 "fleet multi-cut budgeted" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --num-cuts 2 --budget-gb 50 --threads 2
expect_stdout_contains "fleet multi-cut budgeted" "knapsack threshold"

# There is one inference path: the old scalar-scoring flag is gone and must
# be rejected like any unknown flag. An exact-mode template cache
# (--cache-bps 0) must be byte-neutral while reporting its hit/miss traffic.
expect_exit 2 "fleet no-batch" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --no-batch
expect_stderr_contains "fleet no-batch" "unknown flag '--no-batch'"
expect_exit 0 "fleet template-cache" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --template-cache 1024 --cache-bps 0
expect_stdout_contains "fleet template-cache" "cache hits/misses"
# The extra cache row re-pads the table, so compare with collapsed whitespace
# and the cache/separator rows dropped.
normalize_fleet() { grep -v -e "^cache " -e "^--" "$1" | tr -s ' '; }
if ! diff -q <(normalize_fleet "$WORKDIR/fleet_serial.out") \
             <(normalize_fleet "$WORKDIR/stdout") >/dev/null; then
  fail "fleet: exact-mode cached report differs from uncached report"
fi

# bundle round trip: train --out writes a loadable artifact, bundle-info
# reads it, and fleet --bundle must reproduce the in-process fleet report
# byte-for-byte (save -> load -> decide is bit-identical).
expect_exit 0 "train --out bundle" -- \
  "$CLI" train "${SMALL[@]}" --train-days 2 --out "$WORKDIR/model.phoebe"
if [ ! -s "$WORKDIR/model.phoebe" ]; then
  fail "train --out: $WORKDIR/model.phoebe is empty or missing"
fi
expect_exit 0 "bundle-info" -- "$CLI" bundle-info --in "$WORKDIR/model.phoebe"
expect_stdout_contains "bundle-info" "checksum"
expect_exit 1 "bundle-info on corrupt file" -- \
  "$CLI" bundle-info --in "$WORKDIR/trace.csv"
expect_exit 0 "fleet from bundle" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --bundle "$WORKDIR/model.phoebe"
if ! diff -q "$WORKDIR/fleet_serial.out" "$WORKDIR/stdout" >/dev/null; then
  fail "fleet: --bundle report differs from in-process report"
fi

# shard/merge: two shard processes over the same bundle, merged, must produce
# the same per-day JSON report as the unsharded run.
expect_exit 0 "fleet unsharded report" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --report "$WORKDIR/report_unsharded.jsonl"
expect_exit 0 "fleet shard 0/2" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --shard 0/2 --out "$WORKDIR/shard0.blob"
expect_exit 0 "fleet shard 1/2" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --shard 1/2 --out "$WORKDIR/shard1.blob"
expect_exit 0 "fleet merge" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" \
  --merge "$WORKDIR/shard0.blob,$WORKDIR/shard1.blob" \
  --report "$WORKDIR/report_merged.jsonl"
expect_stdout_contains "fleet merge" "(concatenated shard reports)"
if ! diff -q "$WORKDIR/report_unsharded.jsonl" "$WORKDIR/report_merged.jsonl" >/dev/null; then
  fail "fleet: merged shard report differs from unsharded report"
fi

# Budgeted, cached runs carry no shard-side reports: the merge replays the
# admission knapsack and the template cache serially, and must still
# reproduce the unsharded report byte for byte.
FLEET_REPLAY=(fleet "${SMALL[@]}" --train-days 2 --days 2
  --bundle "$WORKDIR/model.phoebe" --budget-gb 50 --template-cache 64)
expect_exit 0 "fleet budgeted cached unsharded" -- \
  "$CLI" "${FLEET_REPLAY[@]}" --report "$WORKDIR/report_replay_unsharded.jsonl"
for s in 0 1; do
  expect_exit 0 "fleet budgeted cached shard $s/2" -- \
    "$CLI" "${FLEET_REPLAY[@]}" --shard "$s/2" --out "$WORKDIR/replay_shard$s.blob"
done
expect_exit 0 "fleet budgeted cached merge" -- \
  "$CLI" "${FLEET_REPLAY[@]}" \
  --merge "$WORKDIR/replay_shard0.blob,$WORKDIR/replay_shard1.blob" \
  --report "$WORKDIR/report_replay_merged.jsonl"
expect_stdout_contains "fleet budgeted cached merge" "(merged from shards)"
if ! diff -q "$WORKDIR/report_replay_unsharded.jsonl" \
             "$WORKDIR/report_replay_merged.jsonl" >/dev/null; then
  fail "fleet: replayed budgeted+cached merge differs from unsharded report"
fi

# telemetry export: --metrics writes per-day lines plus a cumulative 'run'
# line, and must be byte-neutral — the JSON report with telemetry on is
# identical to the report without it.
expect_exit 0 "fleet with metrics" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 --threads 2 \
  --bundle "$WORKDIR/model.phoebe" --report "$WORKDIR/report_metrics.jsonl" \
  --metrics "$WORKDIR/telemetry.jsonl"
if ! diff -q "$WORKDIR/report_unsharded.jsonl" "$WORKDIR/report_metrics.jsonl" >/dev/null; then
  fail "fleet: report with --metrics differs from report without"
fi
if [ "$(wc -l < "$WORKDIR/telemetry.jsonl")" -ne 3 ]; then
  fail "fleet --metrics: expected 2 day lines + 1 run line"
fi
if ! grep -q '"scope":"run"' "$WORKDIR/telemetry.jsonl"; then
  fail "fleet --metrics: missing cumulative run line"
fi
if ! grep -q 'fleet.phase.decide.seconds' "$WORKDIR/telemetry.jsonl"; then
  fail "fleet --metrics: missing decide phase histogram"
fi

# fleet-ab error paths: a single arm is not a comparison; a bad --arm key or
# value must fail loudly.
expect_exit 2 "fleet-ab single arm" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --bundle "$WORKDIR/model.phoebe"
expect_stderr_contains "fleet-ab single arm" ">= 2 arms"
expect_exit 2 "fleet-ab bad arm key" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --arm bogus=1
expect_stderr_contains "fleet-ab bad arm key" "name|source|cuts|cache|bps"
expect_exit 2 "fleet-ab bad arm source" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --arm source=nonsense

# fleet-ab zero diff: two arms serving the same bundle must report zero
# decision and admission flips.
expect_exit 0 "fleet-ab identical bundles" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --bundle "$WORKDIR/model.phoebe" \
  --report "$WORKDIR/ab_same.txt"
if grep "^delta" "$WORKDIR/ab_same.txt" | grep -qv "decision_flips 0 admission_flips 0"; then
  fail "fleet-ab: identical bundles reported a non-zero diff"
fi

# fleet-ab arm-0 identity: the baseline arm's per-day JSON report must be
# byte-identical to the standalone `fleet --report` run under the same
# bundle and config (report_unsharded.jsonl from above).
expect_exit 0 "fleet-ab arm reports" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 \
  --arm-reports "$WORKDIR/ab_arm" --report "$WORKDIR/ab_paired.txt"
if ! diff -q "$WORKDIR/report_unsharded.jsonl" "$WORKDIR/ab_arm0.jsonl" >/dev/null; then
  fail "fleet-ab: arm-0 report differs from the standalone fleet report"
fi
if [ ! -s "$WORKDIR/ab_arm1.jsonl" ]; then
  fail "fleet-ab: arm-1 report file is empty or missing"
fi
if ! head -1 "$WORKDIR/ab_paired.txt" | grep -q "phoebe_ab_report 1"; then
  fail "fleet-ab: paired report is missing its header"
fi

# fleet-ab determinism: a threaded re-run must reproduce the paired report
# byte for byte.
expect_exit 0 "fleet-ab threaded" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 --threads 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 \
  --report "$WORKDIR/ab_paired_t2.txt"
if ! diff -q "$WORKDIR/ab_paired.txt" "$WORKDIR/ab_paired_t2.txt" >/dev/null; then
  fail "fleet-ab: threaded paired report differs from serial"
fi

# fleet-ab shard/merge: every arm's decide phase ships as one `arm` section
# per day in the blob; the merge must reproduce the unsharded paired report
# byte for byte.
expect_exit 0 "fleet-ab shard 0/2" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 \
  --shard 0/2 --out "$WORKDIR/ab_shard0.blob"
expect_exit 0 "fleet-ab shard 1/2" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 \
  --shard 1/2 --out "$WORKDIR/ab_shard1.blob"
if ! head -1 "$WORKDIR/ab_shard0.blob" | grep -q "phoebe_shard 4"; then
  fail "fleet-ab: shard blob is not version 4"
fi
expect_exit 0 "fleet-ab merge" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 \
  --merge "$WORKDIR/ab_shard0.blob,$WORKDIR/ab_shard1.blob" \
  --report "$WORKDIR/ab_paired_merged.txt"
if ! diff -q "$WORKDIR/ab_paired.txt" "$WORKDIR/ab_paired_merged.txt" >/dev/null; then
  fail "fleet-ab: merged paired report differs from unsharded"
fi

# The merge checks every arm's bundle checksum and the arm count, not just
# arm 0's: blobs decided under bundles A,B must not merge into an A,A run,
# and a three-arm blob must not merge into a two-arm run or into `fleet`.
expect_exit 0 "train second bundle" -- \
  "$CLI" train "${SMALL[@]}" --train-days 3 --out "$WORKDIR/model_b.phoebe"
for s in 0 1; do
  expect_exit 0 "fleet-ab shard $s/2 under bundles A,B" -- \
    "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
    --bundle "$WORKDIR/model.phoebe" --bundle "$WORKDIR/model_b.phoebe" \
    --shard "$s/2" --out "$WORKDIR/ab_b_shard$s.blob"
done
expect_exit 1 "fleet-ab merge under another arm-1 bundle" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --bundle "$WORKDIR/model.phoebe" \
  --merge "$WORKDIR/ab_b_shard0.blob,$WORKDIR/ab_b_shard1.blob"
expect_stderr_contains "fleet-ab merge under another arm-1 bundle" "arm 1 was decided under bundle"
expect_exit 0 "fleet-ab three-arm shard" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 --arm name=threecut,cuts=3 \
  --shard 0/1 --out "$WORKDIR/ab_three_arms.blob"
expect_exit 1 "fleet-ab merge of a three-arm blob" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=twocut,cuts=2 \
  --merge "$WORKDIR/ab_three_arms.blob"
expect_stderr_contains "fleet-ab merge of a three-arm blob" "carries 3 arm(s)"
expect_exit 1 "fleet merge of a three-arm blob" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --merge "$WORKDIR/ab_three_arms.blob"
expect_stderr_contains "fleet merge of a three-arm blob" "carries 3 arm(s)"

# scenario layer: --scenario baseline is the identity (byte-identical to the
# default run), a hostile preset runs end to end, and a bad value fails
# loudly listing the presets.
expect_exit 0 "fleet scenario baseline" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --scenario baseline \
  --report "$WORKDIR/report_scenario_baseline.jsonl"
if ! diff -q "$WORKDIR/report_unsharded.jsonl" \
             "$WORKDIR/report_scenario_baseline.jsonl" >/dev/null; then
  fail "fleet: --scenario baseline report differs from the default run"
fi
expect_exit 0 "fleet scenario flash-crowd" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --scenario flash-crowd
expect_stdout_contains "fleet scenario flash-crowd" "jobs admitted"
expect_exit 2 "fleet bad scenario" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --scenario nosuch
expect_stderr_contains "fleet bad scenario" "neither a preset"
expect_stderr_contains "fleet bad scenario" "flash-crowd"

# a scenario file: the round-tripping text format is a first-class input.
cat > "$WORKDIR/custom.scenario" <<'EOF'
phoebe_scenario 1
name smoke-burst
event burst step 3 3 5
end_scenario
EOF
expect_exit 0 "fleet scenario file" -- \
  "$CLI" fleet "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --scenario "$WORKDIR/custom.scenario"
expect_stdout_contains "fleet scenario file" "jobs admitted"

# fleet-ab scenario arms: an arm can decide a differently-generated workload
# for the same day index (saving/cost deltas; flip diffs need a shared
# workload). An empty or unknown per-arm scenario fails loudly.
expect_exit 0 "fleet-ab scenario arm" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=crowd,scenario=flash-crowd \
  --report "$WORKDIR/ab_scenario.txt"
if ! grep -q "^arm 1 crowd" "$WORKDIR/ab_scenario.txt"; then
  fail "fleet-ab: scenario arm missing from the paired report"
fi
expect_exit 2 "fleet-ab empty arm scenario" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --arm name=x,scenario=
expect_stderr_contains "fleet-ab empty arm scenario" "needs a value"
expect_exit 2 "fleet-ab bad arm scenario" -- \
  "$CLI" fleet-ab "${SMALL[@]}" --train-days 2 --days 2 \
  --bundle "$WORKDIR/model.phoebe" --arm name=x,scenario=nosuch
expect_stderr_contains "fleet-ab bad arm scenario" "neither a preset"

# trace round trip through the CLI surface.
expect_exit 0 "trace-export" -- \
  "$CLI" trace-export "${SMALL[@]}" --days 1 --out "$WORKDIR/trace.txt"
expect_exit 0 "trace-info" -- "$CLI" trace-info --in "$WORKDIR/trace.txt"
expect_stdout_contains "trace-info" "jobs"
expect_exit 2 "trace-info without --in" -- "$CLI" trace-info

# serve error paths first: they must fail fast, before any socket exists.
expect_exit 2 "serve without --bundle" -- "$CLI" serve
expect_stderr_contains "serve without --bundle" "requires --bundle"
expect_exit 2 "serve bad port" -- \
  "$CLI" serve --bundle "$WORKDIR/model.phoebe" --port notaport
expect_exit 1 "serve corrupt bundle" -- "$CLI" serve --bundle "$WORKDIR/trace.csv"
expect_stderr_contains "serve corrupt bundle" "cannot serve '$WORKDIR/trace.csv'"
expect_exit 2 "serve-client without --port" -- "$CLI" serve-client --op ping

# serve round trip: start the daemon on an ephemeral port (found via
# --port-file), then ping / decide / reload / decide / shutdown. A reload of
# the same artifact must not change a byte of the decide output, and the
# daemon must exit 0 with a telemetry line counting the requests.
"$CLI" serve --bundle "$WORKDIR/model.phoebe" --port-file "$WORKDIR/port.txt" \
  --max-seconds 120 --metrics "$WORKDIR/serve_telemetry.jsonl" \
  2>"$WORKDIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORKDIR/port.txt" ] && break
  sleep 0.1
done
if [ ! -s "$WORKDIR/port.txt" ]; then
  fail "serve: daemon never wrote its port file"
  sed 's/^/    /' "$WORKDIR/serve.log" >&2
  kill "$SERVE_PID" 2>/dev/null
else
  PORT="$(cat "$WORKDIR/port.txt")"
  expect_exit 0 "serve-client ping" -- "$CLI" serve-client --port "$PORT" --op ping
  expect_stdout_contains "serve-client ping" "pong"
  expect_exit 0 "serve-client decide" -- \
    "$CLI" serve-client --port "$PORT" --op decide "${SMALL[@]}" --day 2 --job 0
  expect_stdout_contains "serve-client decide" "decision"
  expect_stdout_contains "serve-client decide" "job 0"
  cp "$WORKDIR/stdout" "$WORKDIR/decide_before.out"
  expect_exit 0 "serve-client reload" -- \
    "$CLI" serve-client --port "$PORT" --op reload
  expect_stdout_contains "serve-client reload" "reloaded"
  expect_exit 0 "serve-client decide after reload" -- \
    "$CLI" serve-client --port "$PORT" --op decide "${SMALL[@]}" --day 2 --job 0
  if ! diff -q "$WORKDIR/decide_before.out" "$WORKDIR/stdout" >/dev/null; then
    fail "serve: decide bytes changed across a reload of the same bundle"
  fi
  expect_exit 0 "serve-client shutdown" -- \
    "$CLI" serve-client --port "$PORT" --op shutdown
  expect_stdout_contains "serve-client shutdown" "bye"
  if ! wait "$SERVE_PID"; then
    fail "serve: daemon exited non-zero after shutdown"
    sed 's/^/    /' "$WORKDIR/serve.log" >&2
  fi
  if ! grep -q "listening on 127.0.0.1" "$WORKDIR/serve.log"; then
    fail "serve: daemon log is missing the listen banner"
  fi
  if ! grep -q "stopped after 1 reload" "$WORKDIR/serve.log"; then
    fail "serve: daemon log did not count exactly one reload"
  fi
  if ! grep -q "serve.requests" "$WORKDIR/serve_telemetry.jsonl"; then
    fail "serve --metrics: telemetry line is missing serve.requests"
  fi
fi

# lifecycle error paths: missing --out-dir and invalid policy knobs are
# usage errors (exit 2) that fail fast before any work runs.
expect_exit 2 "lifecycle without --out-dir" -- "$CLI" lifecycle "${SMALL[@]}" --days 2
expect_stderr_contains "lifecycle without --out-dir" "requires --out-dir"
expect_exit 2 "lifecycle bad policy flag" -- \
  "$CLI" lifecycle "${SMALL[@]}" --out-dir "$WORKDIR/lc_bad" --policy-train-window 0
expect_stderr_contains "lifecycle bad policy flag" "train_window_days"
expect_exit 2 "lifecycle shallow retention" -- \
  "$CLI" lifecycle "${SMALL[@]}" --out-dir "$WORKDIR/lc_bad" --retention-days 1
expect_stderr_contains "lifecycle shallow retention" "retention_days"
expect_exit 2 "lifecycle bad objective" -- \
  "$CLI" lifecycle "${SMALL[@]}" --out-dir "$WORKDIR/lc_bad" --objective bogus
expect_exit 0 "lifecycle --help" -- "$CLI" lifecycle --help
expect_stdout_contains "lifecycle --help" "policy-min-r2"
expect_stdout_contains "lifecycle --help" "shadow"

# lifecycle happy path: the continuous-operation loop bootstraps, retrains on
# age, and leaves the full artifact set; the promotion log records the
# bootstrap promotion; telemetry exports lifecycle.* series.
LC_RUN=(lifecycle "${SMALL[@]}" --days 4 --policy-max-age 2 --policy-min-history 2 \
  --policy-train-window 3 --backtest-window 2 --shadow)
expect_exit 0 "lifecycle run" -- \
  "$CLI" "${LC_RUN[@]}" --out-dir "$WORKDIR/lc1" --metrics "$WORKDIR/lc_telemetry.jsonl"
expect_stdout_contains "lifecycle run" "retrain (bootstrap)"
expect_stdout_contains "lifecycle run" "promoted"
for f in promotion.log day_reports.jsonl current.phoebe; do
  if [ ! -s "$WORKDIR/lc1/$f" ]; then
    fail "lifecycle: $WORKDIR/lc1/$f is empty or missing"
  fi
done
if ! head -1 "$WORKDIR/lc1/promotion.log" | grep -q "phoebe_promotion_log 1"; then
  fail "lifecycle: promotion.log is missing its header"
fi
if ! grep -q "reason bootstrap verdict promoted" "$WORKDIR/lc1/promotion.log"; then
  fail "lifecycle: promotion.log is missing the bootstrap record"
fi
if [ "$(wc -l < "$WORKDIR/lc1/day_reports.jsonl")" -ne 4 ]; then
  fail "lifecycle: expected one day-report line per day"
fi
if ! grep -q "lifecycle.days" "$WORKDIR/lc_telemetry.jsonl"; then
  fail "lifecycle --metrics: telemetry is missing lifecycle.days"
fi
if ! grep -q '"scope":"run"' "$WORKDIR/lc_telemetry.jsonl"; then
  fail "lifecycle --metrics: missing cumulative run line"
fi

# Candidate-architecture canary: --candidate-pipeline small exercises the
# promotion path (the bootstrap always promotes), and crippled candidates —
# one near-zero-learning-rate stump per model — must lose every post-bootstrap
# canary, exercising the rejection path; a bad preset is a usage error.
expect_exit 2 "lifecycle bad candidate-pipeline" -- \
  "$CLI" lifecycle "${SMALL[@]}" --out-dir "$WORKDIR/lc_bad" --candidate-pipeline huge
expect_stderr_contains "lifecycle bad candidate-pipeline" "default|small|crippled"
expect_exit 0 "lifecycle small candidate" -- \
  "$CLI" lifecycle "${SMALL[@]}" --days 4 --policy-max-age 2 --policy-min-history 2 \
  --policy-train-window 3 --backtest-window 2 --candidate-pipeline small \
  --out-dir "$WORKDIR/lc_small"
expect_stdout_contains "lifecycle small candidate" "retrain (bootstrap)"
expect_stdout_contains "lifecycle small candidate" "promoted"
expect_exit 0 "lifecycle crippled candidate" -- \
  "$CLI" lifecycle "${SMALL[@]}" --days 6 --policy-max-age 2 --policy-min-history 2 \
  --policy-train-window 3 --backtest-window 2 --candidate-pipeline crippled \
  --out-dir "$WORKDIR/lc_crippled"
expect_stdout_contains "lifecycle crippled candidate" "rejected"
if ! grep -q "verdict rejected" "$WORKDIR/lc_crippled/promotion.log"; then
  fail "lifecycle: crippled candidate's rejection is missing from promotion.log"
fi

# Determinism end to end: a threaded, exact-cached, metrics-off re-run must
# reproduce every artifact byte (bundles included — same checksums, same
# filenames, same serialized form).
expect_exit 0 "lifecycle rerun threaded+cached" -- \
  "$CLI" "${LC_RUN[@]}" --threads 2 --template-cache 64 --out-dir "$WORKDIR/lc2"
if ! diff -rq "$WORKDIR/lc1" "$WORKDIR/lc2" >/dev/null; then
  fail "lifecycle: threaded+cached artifacts differ from serial run"
  diff -rq "$WORKDIR/lc1" "$WORKDIR/lc2" | head -5 | sed 's/^/    /' >&2
fi

# serve picks up a lifecycle promotion: serve current.phoebe, overwrite it by
# running the loop on drifted data into the same out-dir, SIGHUP the daemon,
# and the next decide must answer from the new bundle (the raw payload embeds
# the answering bundle's checksum, so the bytes must change).
"$CLI" serve --bundle "$WORKDIR/lc1/current.phoebe" \
  --port-file "$WORKDIR/lc_port.txt" --max-seconds 120 \
  2>"$WORKDIR/lc_serve.log" &
LC_SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORKDIR/lc_port.txt" ] && break
  sleep 0.1
done
if [ ! -s "$WORKDIR/lc_port.txt" ]; then
  fail "lifecycle serve: daemon never wrote its port file"
  sed 's/^/    /' "$WORKDIR/lc_serve.log" >&2
  kill "$LC_SERVE_PID" 2>/dev/null
else
  LC_PORT="$(cat "$WORKDIR/lc_port.txt")"
  expect_exit 0 "lifecycle serve decide (old bundle)" -- \
    "$CLI" serve-client --port "$LC_PORT" --op decide "${SMALL[@]}" --day 0 --job 0
  cp "$WORKDIR/stdout" "$WORKDIR/lc_decide_old.out"
  # A different workload seed trains a different model, so the promoted
  # current.phoebe is guaranteed to carry a new checksum.
  expect_exit 0 "lifecycle promote onto served path" -- \
    "$CLI" lifecycle --templates 12 --seed 5 --days 4 --policy-max-age 2 \
    --policy-min-history 2 --policy-train-window 3 --backtest-window 2 \
    --out-dir "$WORKDIR/lc1"
  kill -HUP "$LC_SERVE_PID"
  RELOADED=0
  for _ in $(seq 1 100); do
    "$CLI" serve-client --port "$LC_PORT" --op decide "${SMALL[@]}" --day 0 --job 0 \
      >"$WORKDIR/lc_decide_new.out" 2>/dev/null
    if ! diff -q "$WORKDIR/lc_decide_old.out" "$WORKDIR/lc_decide_new.out" >/dev/null; then
      RELOADED=1
      break
    fi
    sleep 0.1
  done
  if [ "$RELOADED" -ne 1 ]; then
    fail "lifecycle serve: decide bytes never changed after SIGHUP on a promoted bundle"
  fi
  expect_exit 0 "lifecycle serve shutdown" -- \
    "$CLI" serve-client --port "$LC_PORT" --op shutdown
  if ! wait "$LC_SERVE_PID"; then
    fail "lifecycle serve: daemon exited non-zero after shutdown"
    sed 's/^/    /' "$WORKDIR/lc_serve.log" >&2
  fi
  if ! grep -q "stopped after 1 reload" "$WORKDIR/lc_serve.log"; then
    fail "lifecycle serve: daemon did not count exactly one reload"
  fi
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES smoke-test assertion(s) failed" >&2
  exit 1
fi
echo "cli smoke test passed"
