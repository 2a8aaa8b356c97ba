#!/usr/bin/env bash
# End-to-end exercise of cmd/pgcd: start the daemon, run a campaign, prove
# the warm-cache re-submit simulates nothing, SIGTERM it mid-campaign,
# restart over the same state directory, and assert the interrupted
# campaign resumes to completion, serving its checkpointed cells from the
# result cache instead of recomputing them.
#
# Needs: go, curl, jq. Run from the repo root:  bash scripts/pgcd_e2e.sh
set -euo pipefail

PORT="${PGCD_PORT:-18437}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
BIN="$TMP/pgcd"
STATE="$TMP/state"
CACHE="$TMP/cache"
LOG="$TMP/pgcd.log"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

say() { echo "pgcd-e2e: $*"; }
die() {
  echo "pgcd-e2e: FAIL: $*" >&2
  [ -f "$LOG" ] && { echo "--- daemon log tail ---" >&2; tail -20 "$LOG" >&2; }
  exit 1
}

say "building pgcd"
go build -o "$BIN" ./cmd/pgcd

start_daemon() {
  "$BIN" -listen "127.0.0.1:$PORT" -state "$STATE" -cache "$CACHE" \
    -workers 1 -jobs 1 -drain-grace 300ms >>"$LOG" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$PID" 2>/dev/null || die "daemon exited during startup"
    sleep 0.1
  done
  die "daemon did not become ready on $BASE"
}

start_daemon
say "daemon ready (pid $PID)"

# --- 1. a small campaign completes and reports its accounting ------------
SMALL_CELLS='[{"id":"c0","workload":"spec.stream_s00"},{"id":"c1","workload":"spec.pagehop_s00"}]'
RESP=$(curl -fsS "$BASE/v1/campaigns" \
  -d "{\"id\":\"small\",\"cells\":$SMALL_CELLS,\"wait_ms\":60000}")
[ "$(jq -r .state <<<"$RESP")" = "done" ] || die "small campaign not done: $RESP"
[ "$(jq -r .result.simulated <<<"$RESP")" = "2" ] || die "small campaign: expected 2 simulated cells: $RESP"
say "small campaign done (2 cells simulated)"

# --- 2. warm re-submit: zero simulations, served from the cache ----------
RESP=$(curl -fsS "$BASE/v1/campaigns" \
  -d "{\"id\":\"small-warm\",\"cells\":$SMALL_CELLS}")
[ "$(jq -r .state <<<"$RESP")" = "done" ] || die "warm re-submit not served inline: $RESP"
[ "$(jq -r .result.simulated <<<"$RESP")" = "0" ] || die "warm re-submit simulated something: $RESP"
[ "$(jq -r .result.cache_hits <<<"$RESP")" = "2" ] || die "warm re-submit: expected 2 cache hits: $RESP"
say "warm re-submit returned without simulating (2 cache hits)"

# --- 3. SIGTERM mid-campaign: graceful drain, exit 0, checkpointed -------
SLOW_CELLS=$(for i in 0 1 2 3 4 5; do
  printf '%s{"id":"s%d","workload":"spec.stream_s00","config":{"WarmupInstrs":%d,"SimInstrs":1600000}}' \
    "$([ "$i" -gt 0 ] && echo ,)" "$i" $((400000 + i))
done)
RESP=$(curl -fsS "$BASE/v1/campaigns" -d "{\"id\":\"slow\",\"cells\":[$SLOW_CELLS]}")
[ "$(jq -r .state <<<"$RESP")" = "queued" ] || die "slow campaign not queued: $RESP"

for _ in $(seq 1 300); do
  DONE=$(curl -fsS "$BASE/v1/campaigns/slow" | jq -r .progress.done)
  [ "$DONE" -ge 1 ] 2>/dev/null && break
  sleep 0.2
done
[ "$DONE" -ge 1 ] || die "slow campaign made no progress to interrupt"
say "slow campaign mid-flight ($DONE/6 cells done) — sending SIGTERM"

kill -TERM "$PID"
if wait "$PID"; then RC=0; else RC=$?; fi
PID=""
[ "$RC" -eq 0 ] || die "daemon exited $RC on SIGTERM, want 0 (graceful drain)"
STATE_ON_DISK=$(jq -r .state "$STATE/jobs/slow.json")
[ "$STATE_ON_DISK" = "interrupted" ] || die "slow job persisted as '$STATE_ON_DISK', want interrupted"
say "drained: exit 0, job checkpointed as interrupted"

# --- 4. restart: the interrupted campaign resumes to completion ----------
start_daemon
say "daemon restarted (pid $PID) — waiting for recovery to finish the job"
for _ in $(seq 1 600); do
  ST=$(curl -fsS "$BASE/v1/campaigns/slow" | jq -r .state)
  case "$ST" in done|failed|canceled|interrupted) break ;; esac
  sleep 0.2
done
[ "$ST" = "done" ] || die "recovered job ended as '$ST', want done"

RESP=$(curl -fsS "$BASE/v1/campaigns/slow/result")
HITS=$(jq -r .result.cache_hits <<<"$RESP")
TOTAL=$(jq -r '.result.simulated + .result.cache_hits' <<<"$RESP")
[ "$HITS" -ge 1 ] || die "recovered job served $HITS cells from the cache, want >= 1 (checkpointed before SIGTERM): $RESP"
[ "$TOTAL" -eq 6 ] || die "recovered job accounts $TOTAL cells (simulated + cache_hits), want 6: $RESP"
say "recovery served $HITS checkpointed cell(s) from the cache; all 6 cells accounted"

kill -TERM "$PID" && wait "$PID" || true
PID=""
say "PASS"
