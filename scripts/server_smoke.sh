#!/usr/bin/env bash
# server_smoke.sh — CI smoke test for the network serving layer.
#
# Starts twmd, drives a scripted session through sqlsh -connect
# (create a table, load rows, run the paper's summary UDF, store a
# model, score with the scalar UDF, inspect sys.sessions), checks that
# one statement's trace ID lines up across the client's EXPLAIN
# ANALYZE output, sys.traces/sys.spans, and the daemon's structured
# log, then shuts the daemon down with SIGTERM and requires a clean
# exit. A storage leg then runs a daemon over a data directory twice:
# writes short of a 2048-row chunk per partition stay in the row log
# and seal nothing, and after a restart block scans read them, and an
# insert after them, without a single fallback and without writing a
# chunk. The first daemon also takes
# the write leg: a self INSERT ... SELECT terminates and doubles the
# table, and a failing INSERT ... SELECT reports its error and leaves
# its target exactly as it was. A catalog leg kills the daemon with
# SIGKILL after DDL and requires the restarted daemon to find exactly
# the tables and view it had, also with junk appended to catalog.log.
# A seal leg kills the daemon with SIGKILL after INSERTs that seal
# chunks, and requires the restarted daemon to serve the same row
# counts, sys.partitions, sys.segments and sums.
set -euo pipefail

ADDR="${TWMD_ADDR:-127.0.0.1:7791}"
LOG="$(mktemp)"
DIR="$(mktemp -d)"
trap 'kill "$TWMD_PID" 2>/dev/null || true; rm -rf "$LOG" "$DIR"' EXIT

go build -o /tmp/smoke-twmd ./cmd/twmd
go build -o /tmp/smoke-sqlsh ./cmd/sqlsh

# -slow-query 1us marks every statement slow (retained + logged with
# its trace_id); -trace-sample 1 retains healthy traces too.
/tmp/smoke-twmd -addr "$ADDR" -max-statements 8 -slow-query 1us -trace-sample 1 2>"$LOG" &
TWMD_PID=$!

wait_for_listener() {
  for _ in $(seq 1 50); do
    if /tmp/smoke-sqlsh -connect "$ADDR" -c "SELECT 1 + 1" >/dev/null 2>&1; then
      return
    fi
    sleep 0.1
  done
}
wait_for_listener

sql() { /tmp/smoke-sqlsh -connect "$ADDR" -user ci "$@"; }

echo "== create + load =="
sql -c "CREATE TABLE X (i BIGINT, X1 DOUBLE, X2 DOUBLE, Y DOUBLE)"
sql -c "INSERT INTO X VALUES (1, 1.0, 2.0, 5.0)"
sql -c "INSERT INTO X VALUES (2, 2.0, 1.0, 4.0)"
sql -c "INSERT INTO X VALUES (3, 3.0, 3.0, 9.0)"

echo "== summary UDF over the wire =="
NLQ="$(sql -c "SELECT nlq_list(2, 'triang', X1, X2) FROM X")"
echo "$NLQ"
grep -q "2;triang;3" <<<"$NLQ" # d=2, triangular layout, n=3

echo "== store a model + score with the scalar UDF =="
# One-row BETA table in the layout score.SaveLinReg writes: b0 is the
# intercept, b1..bd the coefficients. yhat = 1 + X1 + X2.
sql -c "CREATE TABLE BETA (b0 DOUBLE, b1 DOUBLE, b2 DOUBLE)"
sql -c "INSERT INTO BETA VALUES (1.0, 1.0, 1.0)"
SCORES="$(sql -c "SELECT X.i, linearregscore(X.X1, X.X2, b0, b1, b2) AS yhat FROM X CROSS JOIN BETA ORDER BY i")"
echo "$SCORES"
grep -q "^1 | 4$" <<<"$SCORES"  # row i=1: 1 + 1.0 + 2.0

echo "== sessions are visible =="
SESS="$(sql -c "SELECT user_name, current_sql FROM sys.sessions")"
echo "$SESS"
grep -q "ci" <<<"$SESS"

echo "== summary catalog is queryable over the wire =="
sql -c "SELECT table_name, state, n FROM sys.summaries"

echo "== plan cache: repeated SELECT text is one cached plan =="
# One repl session repeats a SELECT. The server plans the text once and
# serves every repeat from its plan cache: sys.prepared, which lists
# the cache, holds one row for the text with the executions on it, and
# engine_plan_cache_hits moves.
hits() { sql -c "SELECT value FROM sys.metrics WHERE name = 'engine_plan_cache_hits'" | sed -n 3p; }
HITS0="$(hits)"
PREP="$({
  for _ in 1 2 3 4 5; do echo "SELECT X1 FROM X WHERE i = 1;"; done
  echo "SELECT sql_text, executions FROM sys.prepared;"
} | /tmp/smoke-sqlsh -connect "$ADDR" -user ci)"
echo "$PREP"
ROWS="$(echo "$PREP" | grep "^SELECT X1 FROM X WHERE i = 1 | ")"
test "$(echo "$ROWS" | wc -l)" -eq 1
echo "$ROWS" | awk -F ' [|] ' '$2 >= 4 { ok = 1 } END { exit !ok }'
HITS1="$(hits)"
echo "engine_plan_cache_hits: $HITS0 -> $HITS1"
awk -v a="$HITS0" -v b="$HITS1" 'BEGIN { exit !(b > a) }'

echo "== one trace id across client, sys.traces and the daemon log =="
EXPLAIN="$(sql -c "EXPLAIN ANALYZE SELECT X1, X2 FROM X")"
echo "$EXPLAIN"
TID="$(echo "$EXPLAIN" | sed -n 's/^-- trace: //p')"
test -n "$TID" # EXPLAIN ANALYZE must print the stamped trace id
TRACES="$(sql -c "SELECT trace_id, class FROM sys.traces")"
grep -q "$TID" <<<"$TRACES"
SPANS="$(sql -c "SELECT trace_id, name FROM sys.spans")"
TRACE_SPANS="$(grep "$TID" <<<"$SPANS")"
grep -q "server" <<<"$TRACE_SPANS" # server span joined the tree
grep -q "\"trace_id\":\"$TID\"" "$LOG"          # slow-query log line carries it

echo "== trace counters moved =="
TRACE_METRICS="$(sql -c "SELECT name, value FROM sys.metrics" | grep engine_trace)"
echo "$TRACE_METRICS"
grep -q "engine_trace_retained_total" <<<"$TRACE_METRICS"

echo "== graceful shutdown =="
kill -TERM "$TWMD_PID"
wait "$TWMD_PID"
grep -q '"msg":"bye"' "$LOG"

echo "== storage: writes short of a chunk stay in the row log =="
/tmp/smoke-twmd -addr "$ADDR" -dir "$DIR" -partitions 3 2>"$LOG" &
TWMD_PID=$!
wait_for_listener
sql -c "CREATE TABLE S (a DOUBLE, b DOUBLE)"
sql -c "INSERT INTO S VALUES (1, 2), (3, 4), (5, 6), (7, 8), (9, 10)"
segments_of() { sql -c "SELECT partition, sealed_rows, sealed_bytes, tail_rows FROM sys.segments WHERE table_name = '$1' ORDER BY partition"; }
SEGS="$(segments_of s)"
echo "$SEGS"
test "$(echo "$SEGS" | grep -c ' | 0 | 0 | ')" -eq 3 # nothing sealed
if ls "$DIR"/*.seg >/dev/null 2>&1; then
  echo "writes short of a chunk created chunk files:"; ls "$DIR"; exit 1
fi

echo "== writes: a self INSERT ... SELECT terminates and doubles the table =="
# timeout: a statement that deadlocks on its own table's lock must fail
# the job in seconds, not hang it.
sqlt() { timeout 20 /tmp/smoke-sqlsh -connect "$ADDR" -user ci "$@"; }
count() { sql -c "SELECT count(*) FROM $1" | sed -n 3p; }
sql -c "CREATE TABLE W (i BIGINT, v DOUBLE)"
sql -c "INSERT INTO W VALUES (0, 1), (1, 2), (2, 3), (3, 4)"
N=4
while [ "$N" -lt 4096 ]; do # the last statement copies 2 048 rows
  sqlt -c "INSERT INTO W SELECT i + $N, v FROM W" >/dev/null
  N=$((N * 2))
  test "$(count W)" -eq "$N"
done

echo "== writes: a failing INSERT ... SELECT leaves its target untouched =="
sql -c "CREATE TABLE W2 (i BIGINT, v DOUBLE)"
sql -c "INSERT INTO W2 VALUES (-1, 0), (-2, 0), (-3, 0), (-4, 0), (-5, 0)"
parts_of_w2() { sql -c "SELECT partition, num_rows FROM sys.partitions WHERE table_name = 'w2' ORDER BY partition"; }
BEFORE="$(parts_of_w2)"
# i runs 0..4095, so only the last row divides by zero.
if OUT="$(sqlt -c "INSERT INTO W2 SELECT i, 1 / (i - 4095) FROM W" 2>&1)"; then
  echo "failing INSERT ... SELECT succeeded: $OUT"; exit 1
fi
echo "$OUT"
grep -q "division by zero" <<<"$OUT"
test "$(count W2)" -eq 5
diff <(echo "$BEFORE") <(parts_of_w2)
sqlt -c "INSERT INTO W2 SELECT i, v FROM W" >/dev/null # and the target still takes a write
test "$(count W2)" -eq 4101
kill -TERM "$TWMD_PID"
wait "$TWMD_PID"

echo "== storage: restarted, block scans read the row log without a fallback =="
/tmp/smoke-twmd -addr "$ADDR" -dir "$DIR" -partitions 3 2>"$LOG" &
TWMD_PID=$!
wait_for_listener
# A system table is never offered blocks: a sys.* read counts no
# fallback, so reading the counter does not move it.
fallbacks() { sql -c "SELECT sum(value) FROM sys.metrics WHERE name = 'engine_columnar_fallbacks_total'" | sed -n 3p; }
block_scan() {
  local before after
  before="$(fallbacks)"
  grep -q "^$1$" <<<"$(sql -c "SELECT a + b FROM S")"
  after="$(fallbacks)"
  test -n "$before" -a "$before" = "$after" # every partition was read as blocks
}
tail_rows() { sql -c "SELECT sum(tail_rows) FROM sys.segments WHERE table_name = '$1'" | sed -n 3p; }
block_scan 19
sql -c "INSERT INTO S VALUES (11, 12), (13, 14)"
block_scan 27
test "$(tail_rows s)" = 7
test "$(echo "$(segments_of s)" | grep -c ' | 0 | 0 | ')" -eq 3 # scans seal nothing
kill -TERM "$TWMD_PID"
wait "$TWMD_PID"

echo "== catalog: DDL survives kill -9; junk after the last log record is a torn tail =="
start_on_dir() {
  /tmp/smoke-twmd -addr "$ADDR" -dir "$DIR" -partitions 3 2>"$LOG" &
  TWMD_PID=$!
  wait_for_listener
}
kill_9() {
  kill -KILL "$TWMD_PID"
  wait "$TWMD_PID" || true # killed: no clean exit to require
}
# The K tables with their row counts, then the view's rows, without
# headers and row-count footers.
k_catalog() {
  sql -c "SELECT name, num_rows FROM sys.tables WHERE name = 'k1' OR name = 'k2' OR name = 'k3' ORDER BY name" | sed -e '1,2d' -e '/^([0-9]* rows)$/d'
  sql -c "SELECT x FROM KV ORDER BY x" | sed -e '1,2d' -e '/^([0-9]* rows)$/d'
}
start_on_dir
sql -c "CREATE TABLE K1 (a DOUBLE)"
sql -c "INSERT INTO K1 VALUES (1), (2)"
sql -c "CREATE TABLE K2 (b DOUBLE)"
sql -c "CREATE VIEW KV AS SELECT a * 2 AS x FROM K1"
sql -c "DROP TABLE K2"
WANT="$(k_catalog)"
echo "$WANT"
test "$(echo "$WANT" | tr '\n' ' ')" = "k1 | 2 2 4 "
kill_9
start_on_dir
diff <(echo "$WANT") <(k_catalog)
ls "$DIR"/k2.* >/dev/null 2>&1 && { echo "dropped table K2 left files"; exit 1; }
sql -c "CREATE TABLE K3 (c DOUBLE)"
WANT="$(k_catalog)"
kill_9
test -s "$DIR/catalog.log" # K3's record, not yet folded into catalog.json
printf 'junk after the last record' >>"$DIR/catalog.log"
start_on_dir
diff <(echo "$WANT") <(k_catalog)
test "$(count K3)" = 0

echo "== seal: rows sealed into chunks survive kill -9, each exactly once =="
# W holds 4096 rows, 1365 or so a partition: the second copy carries
# every partition past 2048 rows, so its commit seals a chunk in each,
# and the single-row INSERTs after it land in the tails.
sql -c "CREATE TABLE G (i BIGINT, v DOUBLE)"
sqlt -c "INSERT INTO G SELECT i, v FROM W" >/dev/null
sqlt -c "INSERT INTO G SELECT i + 4096, v * 2 FROM W" >/dev/null
for k in 1 2 3 4; do sql -c "INSERT INTO G VALUES ($((8191 + k)), 0.5)"; done
g_state() {
  sql -c "SELECT count(*), sum(i), sum(v) FROM G"
  sql -c "SELECT partition, num_rows FROM sys.partitions WHERE table_name = 'g' ORDER BY partition"
  segments_of g
}
WANT="$(g_state)"
echo "$WANT"
test "$(count G)" -eq 8196
test "$(echo "$(segments_of g)" | grep -c ' | 2048 | ')" -eq 3 # one chunk sealed in every partition
test "$(tail_rows g)" -eq $((8196 - 3 * 2048))
ls "$DIR"/g.p00{0,1,2}.seg >/dev/null
kill_9
start_on_dir
diff <(echo "$WANT") <(g_state)
kill -TERM "$TWMD_PID"
wait "$TWMD_PID"
test ! -s "$DIR/catalog.log" # the open folded the log into the snapshot
echo "server smoke: ok"
