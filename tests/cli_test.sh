#!/usr/bin/env bash
# End-to-end exercise of the targad CLI: generate -> train -> score ->
# evaluate, plus failure-path checks. Usage: cli_test.sh <path-to-targad>.
set -u

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1"; exit 1; }

# Exit-report lookups by key. metric <file> <key> prints the value of the
# first "key=value" token in <file> ("-" reads stdin); at_least <file>
# <key> <min> checks that the value is present and >= min.
metric() {
  awk -v k="$2=" '{for (i = 1; i <= NF; i++) if (index($i, k) == 1) {
                    print substr($i, length(k) + 1); exit}}' "$1"
}
at_least() {
  local v
  v=$(metric "$1" "$2")
  [ -n "$v" ] && [ "$v" -ge "$3" ]
}

# Happy path.
"$CLI" generate --profile kdd --scale 0.03 --seed 3 --out data \
  || fail "generate"
[ -f data_train.csv ] || fail "train csv missing"
[ -f data_test.csv ] || fail "test csv missing"

"$CLI" train --train data_train.csv --model m.model --epochs 30 --seed 3 \
  || fail "train"
[ -s m.model ] || fail "model file empty"

"$CLI" score --model m.model --in data_test.csv --out scores.csv \
  || fail "score"
rows=$(($(wc -l < scores.csv) - 1))
expected=$(($(wc -l < data_test.csv) - 1))
[ "$rows" -eq "$expected" ] || fail "score row count $rows != $expected"

out=$("$CLI" evaluate --scores scores.csv --truth data_test.csv) \
  || fail "evaluate"
echo "$out"
case "$out" in
  AUPRC=*AUROC=*) ;;
  *) fail "unexpected evaluate output" ;;
esac

# Serving path: micro-batched concurrent scoring must be bit-identical to
# the serial score output above.
"$CLI" serve --model m.model --in data_test.csv --out serve_scores.csv \
  --workers 4 --batch 16 2>serve_metrics.txt || fail "serve"
diff -q scores.csv serve_scores.csv \
  || fail "serve scores differ from serial score output"
[ "$(metric serve_metrics.txt requests_completed)" = "$expected" ] \
  || fail "serve metrics report missing"

# Serving from stdin to stdout.
"$CLI" serve --model m.model < data_test.csv > serve_stdout.csv \
  2>/dev/null || fail "serve stdin"
diff -q scores.csv serve_stdout.csv || fail "serve stdin scores differ"

# --dtype float64 (explicit) serves the text model frozen at float64:
# FrozenScorer's record walk, still bit-identical to the serial score
# output of the pipeline itself.
"$CLI" serve --model m.model --dtype float64 --in data_test.csv \
  --out serve_f64.csv 2>/dev/null || fail "serve --dtype float64"
diff -q scores.csv serve_f64.csv || fail "float64 serve scores differ"

# --dtype float32 serves the frozen plan: scores must round-trip within the
# calibration tolerance of the float64 output (1e-4 on [0,1] scores).
"$CLI" serve --model m.model --dtype float32 --in data_test.csv \
  --out serve_f32.csv 2>serve_f32_metrics.txt || fail "serve --dtype float32"
rows32=$(($(wc -l < serve_f32.csv) - 1))
[ "$rows32" -eq "$expected" ] || fail "float32 serve row count"
paste -d, <(tail -n +2 scores.csv) <(tail -n +2 serve_f32.csv) \
  | awk -F, 'BEGIN{bad=0} {d=$1-$2; if (d<0) d=-d; if (d>1e-4) bad++}
             END{exit bad}' \
  || fail "float32 serve scores drift past 1e-4"
grep -q "dtype float32" serve_f32_metrics.txt \
  || fail "serve metrics missing dtype"

# An unknown dtype is rejected up front.
"$CLI" serve --model m.model --dtype float16 --in data_test.csv \
  --out /dev/null >/dev/null 2>&1 && fail "bad dtype accepted"

# --refresh-ms: a background timer re-polls artifact mtimes and hot-swaps
# changed files while the stream is live. Bumping the model's mtime
# mid-stream must be picked up (>= 1 republish), and the scores — same
# artifact contents — must stay bit-identical to the serial output.
{
  head -1 data_test.csv
  tail -n +2 data_test.csv | head -10
  sleep 0.3
  touch m.model
  sleep 0.3
  tail -n +12 data_test.csv
} | "$CLI" serve --model m.model --refresh-ms 20 \
  > refresh_scores.csv 2>refresh_metrics.txt || fail "serve --refresh-ms"
diff -q scores.csv refresh_scores.csv || fail "refresh serve scores differ"
at_least refresh_metrics.txt reg_refresh_polls 1 \
  && at_least refresh_metrics.txt reg_refreshes 1 \
  || fail "refresh timer never republished the touched artifact"

# A damaged model file is read once, not at every poll, and a failing
# poll still counts another model's republish. A damaged broken.targad is
# moved into the watched directory mid-stream (whole, so no poll sees it
# half written) and default.targad is touched right after it. The first
# poll that sees broken.targad reports its error; later polls skip the
# unchanged file, so exactly one refresh: error line is printed, and the
# touched default.targad shows up in the republished count.
mkdir refresh_dir
cp m.model refresh_dir/default.targad
{
  head -1 data_test.csv
  tail -n +2 data_test.csv | head -10
  sleep 0.3
  echo "not a model" > broken_model.tmp
  mv broken_model.tmp refresh_dir/broken.targad
  touch refresh_dir/default.targad
  sleep 0.3
  tail -n +12 data_test.csv
} | "$CLI" serve --models refresh_dir --refresh-ms 20 \
  > refresh_mixed_scores.csv 2>refresh_mixed_metrics.txt \
  || fail "serve --refresh-ms beside a broken model"
diff -q scores.csv refresh_mixed_scores.csv \
  || fail "refresh serve scores differ beside a broken model"
[ "$(grep -c '^refresh: ' refresh_mixed_metrics.txt)" -eq 1 ] \
  || fail "an unchanged broken model was reported more than once (or never)"
at_least refresh_mixed_metrics.txt reg_refreshes 1 \
  && at_least refresh_mixed_metrics.txt reg_refresh_errors 1 \
  || fail "a poll that failed on one model lost another's republish"

# A non-positive refresh interval is rejected up front.
"$CLI" serve --model m.model --refresh-ms 0 --in data_test.csv \
  --out /dev/null >/dev/null 2>&1 && fail "refresh-ms 0 accepted"
"$CLI" serve --model m.model --refresh-ms -5 --in data_test.csv \
  --out /dev/null >/dev/null 2>&1 && fail "negative refresh-ms accepted"

# Multi-model routing: register the artifact under two names via --models
# and route every row to the second name with a leading model= cell.
mkdir models_dir
cp m.model models_dir/default.targad
cp m.model models_dir/shadow.targad
awk -F, 'NR==1 {print; next} {print "model=shadow," $0}' data_test.csv \
  > routed_test.csv
"$CLI" serve --models models_dir --in routed_test.csv --out serve_routed.csv \
  2>routed_metrics.txt || fail "serve model routing"
diff -q scores.csv serve_routed.csv || fail "routed scores differ"
[ "$(grep '^  model shadow: ' routed_metrics.txt | metric - scored)" \
  = "$expected" ] || fail "per-model metrics missing routed model"

# A row routed to an unknown model fails; the stream stops at that row's
# error, exiting non-zero.
printf 'model=missing-model,' > bad_route.csv
head -2 data_test.csv | tail -1 >> bad_route.csv
head -1 data_test.csv | cat - bad_route.csv > bad_routed_test.csv
"$CLI" serve --models models_dir --in bad_routed_test.csv \
  --out /dev/null >/dev/null 2>&1 && fail "unknown routed model accepted"

# Flat frozen artifacts: freeze -> inspect -> serve from the .tgz1. Both
# serves parse the same text pipeline and freeze it at float32 — one in
# process, one through the artifact — so the loaded artifact's scores must
# be bit-identical to the --dtype float32 output above.
"$CLI" freeze --model m.model --out m.tgz1 --dtype float32 || fail "freeze"
[ -s m.tgz1 ] || fail "frozen artifact empty"
inspect_out=$("$CLI" inspect --artifact m.tgz1) || fail "inspect"
echo "$inspect_out" | grep -q "targad flat artifact v2" \
  || fail "inspect missing format line"
echo "$inspect_out" | grep -q "dtype float32" || fail "inspect missing dtype"
echo "$inspect_out" | grep -q "checksum ok" || fail "inspect missing checksum"

# A truncated artifact must be rejected, not served.
head -c 200 m.tgz1 > broken.tgz1
"$CLI" inspect --artifact broken.tgz1 >/dev/null 2>&1 \
  && fail "truncated artifact accepted by inspect"

mkdir artifact_dir
cp m.tgz1 artifact_dir/default.tgz1
"$CLI" serve --models artifact_dir --in data_test.csv --out serve_tgz1.csv \
  2>tgz1_metrics.txt || fail "serve from .tgz1"
diff -q serve_f32.csv serve_tgz1.csv \
  || fail ".tgz1 serve scores differ from in-process float32 freeze"

# --warm 1 with two artifacts forces warm-tier evictions; the exit report
# must carry the registry tiering counters.
cp m.tgz1 artifact_dir/other.tgz1
"$CLI" serve --models artifact_dir --warm 1 --in data_test.csv \
  --out warm_scores.csv 2>warm_metrics.txt || fail "serve --warm"
diff -q serve_f32.csv warm_scores.csv || fail "--warm serve scores differ"
at_least warm_metrics.txt reg_evictions 1 \
  && at_least warm_metrics.txt reg_loads 2 \
  || fail "warm-capacity serve recorded no evictions/loads"

# A non-positive warm capacity is rejected up front.
"$CLI" serve --model m.model --warm 0 --in data_test.csv \
  --out /dev/null >/dev/null 2>&1 && fail "warm 0 accepted"

# Graceful stdio drain: SIGTERM while the input pipe is still open must
# stop reading, resolve every in-flight row, write its score, and exit 0.
mkfifo drain_fifo
"$CLI" serve --model m.model < drain_fifo > drain_scores.csv \
  2>drain_metrics.txt &
SERVE_PID=$!
exec 9>drain_fifo
head -4 data_test.csv >&9   # header + 3 rows, pipe stays open
sleep 1
kill -TERM "$SERVE_PID"
drained=1
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || { drained=0; break; }
  sleep 0.1
done
exec 9>&-
rm -f drain_fifo
[ "$drained" -eq 0 ] || fail "stdio serve did not exit after SIGTERM"
wait "$SERVE_PID"; [ $? -eq 0 ] || fail "stdio drain exited non-zero"
drain_rows=$(($(wc -l < drain_scores.csv) - 1))
[ "$drain_rows" -eq 3 ] || fail "stdio drain lost rows: got $drain_rows of 3"
diff <(head -4 scores.csv) drain_scores.csv \
  || fail "stdio drain scores differ from serial output"
grep -q "drain: stopped early" drain_metrics.txt \
  || fail "stdio drain marker missing"

# TCP front-end smoke: ephemeral port, PING/SCORE/STATS/QUIT over
# /dev/tcp, score bit-identical to the serial path, SIGTERM drain.
"$CLI" serve --model m.model --tcp 0 2>tcp_metrics.txt &
TCP_PID=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         tcp_metrics.txt)
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || fail "tcp serve never reported its port"
feature_row=$(awk 'BEGIN{FS=",";OFS=","} NR==2 {NF=NF-1; print}' \
              data_test.csv)
serial_score=$(sed -n '2p' scores.csv)
exec 8<>/dev/tcp/127.0.0.1/"$port" || fail "tcp connect"
printf 'PING\nSCORE default %s\nSTATS\nQUIT\n' "$feature_row" >&8
{ read -r pong; read -r score_reply; read -r stats_reply; read -r bye; } <&8
exec 8>&- 8<&-
[ "$pong" = "PONG" ] || fail "tcp PING reply: $pong"
[ "$score_reply" = "OK $serial_score" ] \
  || fail "tcp score '$score_reply' != 'OK $serial_score'"
case "$stats_reply" in
  "OK accepted="*rows_in=*) ;;
  *) fail "tcp STATS reply unexpected: $stats_reply" ;;
esac
# The STATS line carries the registry tiering counters (reg_loads >= 1:
# the default model was loaded at startup).
case "$stats_reply" in
  *reg_hits=*reg_misses=*reg_evictions=*reg_loads=*) ;;
  *) fail "tcp STATS missing registry counters: $stats_reply" ;;
esac
[ "$bye" = "OK bye" ] || fail "tcp QUIT reply: $bye"
kill -TERM "$TCP_PID"
tcp_down=1
for _ in $(seq 1 100); do
  kill -0 "$TCP_PID" 2>/dev/null || { tcp_down=0; break; }
  sleep 0.1
done
[ "$tcp_down" -eq 0 ] || fail "tcp serve did not drain on SIGTERM"
wait "$TCP_PID"; [ $? -eq 0 ] || fail "tcp serve exited non-zero"
grep -q "targad: drained" tcp_metrics.txt || fail "tcp drain marker missing"
[ "$(metric tcp_metrics.txt rows_in)" = 1 ] || fail "tcp net metrics missing"

# --tcp excludes the stdio flags.
"$CLI" serve --model m.model --tcp 0 --in data_test.csv >/dev/null 2>&1 \
  && fail "tcp with --in accepted"

# Unknown flags are rejected, and the error names the valid ones.
err=$("$CLI" serve --model m.model --bogus-flag 1 2>&1) \
  && fail "unknown flag accepted"
case "$err" in
  *"unknown flag --bogus-flag"*"--model"*) ;;
  *) fail "unknown-flag error unhelpful: $err" ;;
esac
"$CLI" train --train data_train.csv --model x --scale 0.5 >/dev/null 2>&1 \
  && fail "flag from wrong subcommand accepted"

# Numeric flag values are validated before the command runs: a value that
# does not parse, a negative size, a zero in-flight cap and a port above
# 65535 each exit 1 with an error naming the flag and its value.
expect_bad_value() {  # <flag> <value>: serve must reject it.
  err=$("$CLI" serve --model m.model "$1" "$2" </dev/null 2>&1 >/dev/null)
  rc=$?
  [ "$rc" -eq 1 ] || fail "serve $1 $2 exited $rc, want 1"
  case "$err" in
    *"'$2'"*"$1"*) ;;
    *) fail "serve $1 $2: error does not name the flag and value: $err" ;;
  esac
}
expect_bad_value --workers abc
expect_bad_value --workers -1
expect_bad_value --batch -5
expect_bad_value --queue -1
expect_bad_value --max-line -1
expect_bad_value --max-inflight 0
expect_bad_value --tcp 70000
expect_bad_value --workers 99999999999

# Failure paths must exit non-zero with a clean message.
"$CLI" bogus-subcommand >/dev/null 2>&1 && fail "bogus subcommand accepted"
"$CLI" train --train missing.csv --model x >/dev/null 2>&1 \
  && fail "missing csv accepted"
"$CLI" score --model missing.model --in data_test.csv --out s.csv \
  >/dev/null 2>&1 && fail "missing model accepted"
"$CLI" generate --profile nonsense >/dev/null 2>&1 \
  && fail "bad profile accepted"

echo "cli_test PASSED"
exit 0
