#!/usr/bin/env bash
# Runs the chaos soak: seeded fault injection against the serving
# stack, asserting the PR 8 resilience invariants — cached reads stay
# available under overload, acknowledged commits survive injected
# crashes, the server returns to healthy once faults stop, and nothing
# (goroutines, in-flight slots) leaks. CI runs the smoke mode as a
# blocking step.
#
# Two layers:
#
#  1. the in-process soak (TestChaosSoak, under -race): chaos at the
#     pipeline stage boundaries and the WAL fault points on the
#     fault-injecting in-memory filesystem, with a crash-image
#     recovery check;
#  2. a live-binary drill: qaserve boots with -chaos armed (finite
#     Limits, fixed seed), absorbs a mixed answer/update workload while
#     faults fire — the wal.append rule must fire at least once, under
#     /v1/update — must answer everything cleanly once the rules run
#     dry, and must survive a kill -9 with the last acknowledged
#     update intact; the reboot runs with -debug-addr and must serve
#     pprof on that listener only;
#  3. a sharded drill (PR 10): qaserve refuses -shards with -data-dir
#     and a -chaos rule for a point that does not exist, then boots
#     with -shards 3 and a chaos rule killing shard 1's reads; requests without
#     allow_partial must answer 503 "shard unavailable", requests with
#     it must answer degraded 200s stamped shards_answered=2, and once
#     the rule runs dry the server must answer undegraded again.
#
# Usage: scripts/chaos.sh [smoke]
#
#   smoke   the CI configuration: one soak run plus the drill. Without
#           the argument the soak repeats 3x (shaking out scheduling-
#           dependent leaks the single pass might miss).
set -euo pipefail
cd "$(dirname "$0")/.."

count=3
[ "${1:-}" = "smoke" ] && count=1

echo "== chaos soak (in-process, -race, count=$count) =="
go test -race -run '^TestChaosSoak$|^TestShardChaosSoak$' -count="$count" ./internal/qaserve/

echo "== chaos drill (live binary) =="
go build -o /tmp/qaserve-chaos ./cmd/qaserve
DATA_DIR="$(mktemp -d)"
ADDR=127.0.0.1:8123
SPEC='stage.answer:error:0.3::4,stage.triplex:panic:0.2::2,wal.append:error:0.5::3'

/tmp/qaserve-chaos -addr "$ADDR" -data-dir "$DATA_DIR" -cache 64 \
  -chaos "$SPEC" -chaos-seed 42 &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT

wait_ready() {
  for _ in $(seq 1 200); do
    curl -fs "http://$ADDR/readyz" >/dev/null 2>&1 && return 0
    sleep 0.3
  done
  echo "qaserve never became ready" >&2
  return 1
}
update() {
  curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/update" \
    -H 'Content-Type: application/sparql-update' \
    --data-binary "PREFIX res: <http://dbpedia.org/resource/>
PREFIX dbont: <http://dbpedia.org/ontology/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
DELETE DATA { res:Michael_Jordan dbont:height \"$1\"^^xsd:double } ;
INSERT DATA { res:Michael_Jordan dbont:height \"$2\"^^xsd:double }"
}
ask() {
  curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/answer" \
    -d "{\"question\":\"$1\"}"
}

wait_ready

# Mixed workload while the finite fault rules burn down. Individual
# 500s are the injections doing their job; anything else is a bug.
# Every question is textually unique so it misses the answer cache and
# walks the full pipeline past the armed stage fault points.
height=1.98
for i in $(seq 1 30); do
  code="$(ask "How tall is Michael Jordan? (drill $i)")"
  case "$code" in 200|500) ;; *) echo "answer $i: HTTP $code" >&2; exit 1 ;; esac
  if [ $((i % 3)) = 0 ]; then
    next="2.$((10 + i))"
    code="$(update "$height" "$next")"
    case "$code" in
      200) height="$next" ;;
      500) ;; # injected: nothing applied, nothing logged
      *) echo "update $i: HTTP $code" >&2; exit 1 ;;
    esac
  fi
done

# Rules exhausted (4+2+3 injections max over 40+ fault-point visits):
# the server must now answer everything, first try, and stay writable.
for q in "How tall is Michael Jordan?" "Which book is written by Orhan Pamuk?"; do
  code="$(ask "$q")"
  [ "$code" = 200 ] || { echo "post-chaos answer: HTTP $code" >&2; exit 1; }
done
code="$(update "$height" 2.99)"
[ "$code" = 200 ] || { echo "post-chaos update: HTTP $code" >&2; exit 1; }
curl -fs "http://$ADDR/readyz" | grep -q '"writable":true' \
  || { echo "post-chaos readyz not writable" >&2; exit 1; }
metrics="$(curl -fs "http://$ADDR/metrics")"
grep -q 'qaserve_chaos_injections_total' <<<"$metrics" \
  || { echo "injections missing from /metrics" >&2; exit 1; }
# The WAL fault points read the injector from the /v1/update request's
# context: an update path that stopped attaching it would leave them
# silently disarmed, so the drill's wal.append rule must have fired.
grep -Eq '^qaserve_chaos_injections_total\{point="wal\.append",kind="error"\} [1-9][0-9]*$' <<<"$metrics" \
  || { echo "no wal.append injection on /metrics: the update path ran unarmed" >&2; exit 1; }

# Crash hard and recover: the acknowledged 2.99 must come back.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
DEBUG_LOG="$(mktemp)"
/tmp/qaserve-chaos -addr "$ADDR" -data-dir "$DATA_DIR" -cache 64 \
  -debug-addr 127.0.0.1:0 2> >(tee "$DEBUG_LOG" >&2) &
PID=$!
wait_ready
curl -fs -X POST -d '{"question":"How tall is Michael Jordan?"}' "http://$ADDR/v1/answer" \
  | grep -q '"answers":\["2.99"\]' \
  || { echo "acked update lost across the crash" >&2; exit 1; }

# -debug-addr: pprof answers on the listener the server announced, and
# the public one knows nothing under /debug/.
DEBUG_ADDR="$(sed -n 's/^qaserve: debug listener on \([^ ]*\) .*/\1/p' "$DEBUG_LOG")"
rm -f "$DEBUG_LOG"
[ -n "$DEBUG_ADDR" ] || { echo "no debug listener announced" >&2; exit 1; }
curl -fs "http://$DEBUG_ADDR/debug/pprof/cmdline" | tr '\0' ' ' | grep -q -- '-debug-addr' \
  || { echo "pprof cmdline missing on $DEBUG_ADDR" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/pprof/cmdline")"
[ "$code" = 404 ] || { echo "public listener answered /debug/pprof/cmdline with HTTP $code" >&2; exit 1; }

kill "$PID"
wait "$PID" 2>/dev/null || true
trap 'rm -rf "$DATA_DIR"' EXIT

echo "== sharded drill (3 shards, shard 1 killed by chaos) =="
# -shards refuses durable mode: sharded serving is in-memory only.
if /tmp/qaserve-chaos -addr "$ADDR" -shards 2 -data-dir "$DATA_DIR" 2>/dev/null; then
  echo "-shards with -data-dir should have been rejected" >&2
  exit 1
fi
# -chaos refuses a rule for a point that does not exist (shard.hedge
# went with hedging): exit 1, before the listener comes up.
code=0
out="$(/tmp/qaserve-chaos -addr "$ADDR" -chaos 'shard.hedge:error:1' 2>&1)" || code=$?
if [ "$code" != 1 ] || [[ "$out" == *'listening on'* ]]; then
  echo "-chaos shard.hedge:error:1: exit $code, want 1 before listening: $out" >&2
  exit 1
fi

# Shard 1's reads error with prob 1 until the 9-hit budget runs dry —
# enough for the outage assertions, few enough that recovery does not
# wait on breaker cooldowns (one request latches the failed shard
# after a single domain call, so each one burns at most a few hits).
/tmp/qaserve-chaos -addr "$ADDR" -shards 3 -cache 64 \
  -chaos 'shard.query.1:error:1::9' -chaos-seed 7 &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT
wait_ready

ask_body() { # question allow_partial -> body (appends "|HTTP code")
  curl -s -w '|%{http_code}' -X POST "http://$ADDR/v1/answer" \
    -d "{\"question\":\"$1\",\"allow_partial\":$2}"
}

# Opt-out: the dead shard must refuse the answer, not degrade it.
out="$(ask_body "Which book is written by Orhan Pamuk?" false)"
case "$out" in
  *'"shard unavailable"'*'|503') ;;
  *) echo "opt-out during outage: $out (want 503 shard unavailable)" >&2; exit 1 ;;
esac

# Opt-in: degraded 200s from the two surviving shards, stamped.
degraded_seen=0
for i in $(seq 1 5); do
  out="$(ask_body "Which book is written by Orhan Pamuk? (sharded $i)" true)"
  case "$out" in
    *'"degraded":true'*'"shards_total":3'*'"shards_answered":2'*'|200')
      degraded_seen=1; break ;;
    *'|200') ;; # rule already dry: healthy answer, acceptable
    *) echo "opt-in during outage: $out" >&2; exit 1 ;;
  esac
done
[ "$degraded_seen" = 1 ] || { echo "no degraded answer observed during the outage" >&2; exit 1; }

# Recovery: the rule runs dry; fresh questions must answer undegraded
# (shards_answered back to 3 and no degraded stamp) without opt-in.
recovered=0
for i in $(seq 1 30); do
  out="$(ask_body "Which book is written by Orhan Pamuk? (recovery $i)" false)"
  case "$out" in
    *'"degraded":true'*) sleep 0.5 ;;
    *'"shards_total":3'*'"shards_answered":3'*'|200') recovered=1; break ;;
    *'|503') sleep 0.5 ;; # breaker cooldown still draining
    *) echo "recovery probe: $out" >&2; exit 1 ;;
  esac
done
[ "$recovered" = 1 ] || { echo "sharded server never recovered" >&2; exit 1; }

# The ledger: partial answers counted, per-shard breaker state exported,
# and /healthz reports the shard fan-out.
metrics="$(curl -fs "http://$ADDR/metrics")"
echo "$metrics" | grep -q 'qaserve_shard_partial_answers_total [1-9]' \
  || { echo "partial answers missing from /metrics" >&2; exit 1; }
echo "$metrics" | grep -q 'qaserve_shard_breaker_state{shard="1"}' \
  || { echo "breaker state missing from /metrics" >&2; exit 1; }
curl -fs "http://$ADDR/healthz" | grep -q '"shards":3' \
  || { echo "healthz missing the shard count" >&2; exit 1; }

kill "$PID"
wait "$PID" 2>/dev/null || true
trap 'rm -rf "$DATA_DIR"' EXIT
echo "chaos soak + drills passed"
