#!/usr/bin/env bash
# Fleet smoke: boot a coordinator over three real miraged workers (each with
# its own persistent store) plus one standalone reference node, then assert
# the fleet contract from the outside —
#   * every sharded response is byte-identical to the single node's, and so
#     are a figure and the 400 for a run body with an unknown field,
#   * a request sent without an ID gets one from the coordinator, and its
#     proxy log line and the serving worker's request line share it,
#   * killing a worker mid-run costs no request: the coordinator fails over
#     on the transport error and the prober logs a "ring re-shard",
#   * the restarted worker re-enters the ring warm: it serves the keys it
#     owned before the kill from its disk store (X-Cache: disk),
#   * the coordinator's own healthz and Prometheus surfaces hold up,
#   * a worker-only flag given to a coordinator is refused, not ignored.
# CI runs this in the fleet-smoke job and uploads the logs on failure; it is
# equally runnable locally: ./scripts/fleet_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
HOST="127.0.0.1"
COORD="$HOST:18190"
REF="$HOST:18194"
WORKER_PORTS=(18191 18192 18193)
WORKERS="http://$HOST:${WORKER_PORTS[0]},http://$HOST:${WORKER_PORTS[1]},http://$HOST:${WORKER_PORTS[2]}"
PEER_AUTH="fleet-smoke-secret"
WORKDIR="$(mktemp -d)"

echo "== build"
go build -o miraged-fleet ./cmd/miraged

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -f miraged-fleet
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

wait_healthz() { # addr log
  for _ in $(seq 1 50); do
    if curl -sf "http://$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "healthz on $1 never came up" >&2
  cat "$2" >&2
  exit 1
}

start_worker() { # index port -> appends pid
  mkdir -p "$WORKDIR/store-$1"
  ./miraged-fleet -addr "$HOST:$2" -store-dir "$WORKDIR/store-$1" \
    -peers "$WORKERS" -peer-auth "$PEER_AUTH" \
    -log-format json 2>"fleet-worker-$1.log" &
  PIDS+=($!)
}

echo "== a coordinator refuses worker-only flags"
if timeout 10 ./miraged-fleet -coordinator -addr "$HOST:18195" -workers "$WORKERS" \
  -store-dir "$WORKDIR/ignored" 2>"$WORKDIR/mode.err"; then
  echo "coordinator accepted -store-dir" >&2; exit 1
fi
grep -q -- '-store-dir does not apply' "$WORKDIR/mode.err" || {
  echo "coordinator did not name -store-dir:" >&2; cat "$WORKDIR/mode.err" >&2; exit 1
}

echo "== start 3 workers + reference node"
for i in 0 1 2; do
  start_worker "$i" "${WORKER_PORTS[$i]}"
done
./miraged-fleet -addr "$REF" -log-format json 2>"fleet-ref.log" &
PIDS+=($!)
for i in 0 1 2; do wait_healthz "$HOST:${WORKER_PORTS[$i]}" "fleet-worker-$i.log"; done
wait_healthz "$REF" "fleet-ref.log"

echo "== start coordinator on $COORD"
./miraged-fleet -coordinator -addr "$COORD" -workers "$WORKERS" \
  -probe-interval 200ms -hedge-min 2s -hedge-max 20s \
  -log-format json 2>"fleet.log" &
COORD_PID=$!
PIDS+=($COORD_PID)
wait_healthz "$COORD" "fleet.log"

run_body() { # seed
  printf '{"mix": ["bzip2"], "seed": "%s", "target_insts": 50000, "interval_cycles": 5000}' "$1"
}

drive() { # seed out_body out_headers base
  curl -sf -D "$3" -o "$2" -H 'Content-Type: application/json' \
    -d "$(run_body "$1")" "http://$4/v1/run"
}

shard_of() { # headers file
  tr -d '\r' <"$1" | awk 'tolower($1) == "x-mirage-shard:" {print $2}'
}

# Phase 1: drive seeds through the fleet until the middle worker owns at
# least one (so the warm-restart phase has a key to prove itself with), and
# record the single-node reference bytes for every seed.
echo "== phase 1: shard, and record the single-node reference"
KILLED_URL="http://$HOST:${WORKER_PORTS[1]}"
SEEDS=()
KILLED_SEED=""
KILLED_KEYS=0
for s in $(seq 1 40); do
  SEED="smoke-$s"
  SEEDS+=("$SEED")
  drive "$SEED" "$WORKDIR/ref-$SEED.json" "$WORKDIR/h-ref-$SEED" "$REF"
  drive "$SEED" "$WORKDIR/fleet-$SEED.json" "$WORKDIR/h-$SEED" "$COORD"
  cmp -s "$WORKDIR/ref-$SEED.json" "$WORKDIR/fleet-$SEED.json" || {
    echo "seed $SEED: fleet bytes diverge from single node" >&2; exit 1
  }
  SHARD="$(shard_of "$WORKDIR/h-$SEED")"
  [ -n "$SHARD" ] || { echo "seed $SEED: no X-Mirage-Shard header" >&2; exit 1; }
  if [ "$SHARD" = "$KILLED_URL" ]; then
    KILLED_KEYS=$((KILLED_KEYS + 1))
    [ -n "$KILLED_SEED" ] || KILLED_SEED="$SEED"
  fi
  # Enough seeds once the worker we are about to kill owns one.
  if [ -n "$KILLED_SEED" ] && [ "$s" -ge 12 ]; then break; fi
done
[ -n "$KILLED_SEED" ] || {
  echo "worker $KILLED_URL owned none of ${#SEEDS[@]} keys — ring badly unbalanced" >&2
  exit 1
}
echo "   ${#SEEDS[@]} seeds byte-identical; $KILLED_URL owns $KILLED_SEED"

# One ID per request fleet-wide: curl sends none, so the coordinator mints
# it, forwards it to the worker, and both log lines carry it.
echo "== the coordinator's and the worker's log lines share a request ID"
JOIN_SEED="${SEEDS[0]}"
JOIN_ID="$(tr -d '\r' <"$WORKDIR/h-$JOIN_SEED" | awk 'tolower($1) == "x-request-id:" {print $2}')"
[ -n "$JOIN_ID" ] || { echo "seed $JOIN_SEED: coordinator reply has no X-Request-ID" >&2; exit 1; }
JOIN_SHARD="$(shard_of "$WORKDIR/h-$JOIN_SEED")"
JOIN_LOG=""
for i in 0 1 2; do
  if [ "http://$HOST:${WORKER_PORTS[$i]}" = "$JOIN_SHARD" ]; then JOIN_LOG="fleet-worker-$i.log"; fi
done
[ -n "$JOIN_LOG" ] || { echo "seed $JOIN_SEED: shard $JOIN_SHARD is no known worker" >&2; exit 1; }
has_line() { # log msg request_id
  python3 - "$@" <<'PY'
import json, sys
path, msg, rid = sys.argv[1:]
with open(path) as f:
    for line in f:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("msg") == msg and rec.get("request_id") == rid:
            sys.exit(0)
sys.exit(1)
PY
}
# Each process logs after its reply is on the wire: give the lines a moment.
for _ in $(seq 1 25); do
  if has_line fleet.log proxy "$JOIN_ID" && has_line "$JOIN_LOG" request "$JOIN_ID"; then break; fi
  sleep 0.2
done
has_line fleet.log proxy "$JOIN_ID" || {
  echo "no coordinator proxy line with request_id $JOIN_ID" >&2; cat fleet.log >&2; exit 1
}
has_line "$JOIN_LOG" request "$JOIN_ID" || {
  echo "$JOIN_LOG has no request line with request_id $JOIN_ID" >&2; cat "$JOIN_LOG" >&2; exit 1
}

# The coordinator parses job requests as the workers do: a figure routes
# like any job, and a body no worker accepts routes unkeyed to a worker
# whose canonical 400 comes back untouched.
echo "== a figure and a rejected run pass through byte-identical"
curl -sf -o "$WORKDIR/ref-figure.json" "http://$REF/v1/figures/table-2?scale=tiny"
curl -sf -o "$WORKDIR/fleet-figure.json" "http://$COORD/v1/figures/table-2?scale=tiny"
cmp -s "$WORKDIR/ref-figure.json" "$WORKDIR/fleet-figure.json" || {
  echo "figure table-2: fleet bytes diverge from single node" >&2; exit 1
}
BAD_BODY='{"mix": ["bzip2"], "bogus": 1}'
for node in ref fleet; do
  addr="$REF"
  [ "$node" = fleet ] && addr="$COORD"
  CODE="$(curl -s -o "$WORKDIR/$node-bad.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$BAD_BODY" "http://$addr/v1/run")"
  [ "$CODE" = "400" ] || { echo "$node: unknown-field run got status $CODE, want 400" >&2; exit 1; }
done
cmp -s "$WORKDIR/ref-bad.json" "$WORKDIR/fleet-bad.json" || {
  echo "unknown-field run: fleet 400 body diverges from single node" >&2; exit 1
}

# The store write-through is asynchronous with respect to the response;
# make sure the worker persisted its keys before the kill, or the warm
# restart has nothing to be warm from.
for _ in $(seq 1 50); do
  PUTS="$(curl -sf "$KILLED_URL/debug/statusz" | awk '$1 == "store_puts:" {print $2}')"
  if [ "${PUTS:-0}" -ge "$KILLED_KEYS" ]; then break; fi
  sleep 0.2
done
[ "${PUTS:-0}" -ge "$KILLED_KEYS" ] || {
  echo "worker store absorbed $PUTS/$KILLED_KEYS puts before kill" >&2; exit 1
}

echo "== phase 2: kill $KILLED_URL mid-run (SIGKILL, no drain)"
kill -9 "${PIDS[1]}" 2>/dev/null || true
wait "${PIDS[1]}" 2>/dev/null || true
# No probe has run yet for some of these: the first requests hit the corpse
# and must fail over on the transport error without surfacing an error.
for SEED in "${SEEDS[@]}"; do
  drive "$SEED" "$WORKDIR/after-$SEED.json" "$WORKDIR/h-after-$SEED" "$COORD" || {
    echo "seed $SEED lost to the worker kill" >&2; cat "fleet.log" >&2; exit 1
  }
  cmp -s "$WORKDIR/ref-$SEED.json" "$WORKDIR/after-$SEED.json" || {
    echo "seed $SEED: bytes diverged after worker kill" >&2; exit 1
  }
done
for _ in $(seq 1 50); do
  if grep -q 'ring re-shard' "fleet.log"; then break; fi
  sleep 0.2
done
grep -q 'ring re-shard' "fleet.log" || {
  echo "coordinator never logged the re-shard" >&2; cat "fleet.log" >&2; exit 1
}

echo "== phase 3: restart the worker on its store directory"
start_worker 1 "${WORKER_PORTS[1]}"
wait_healthz "$HOST:${WORKER_PORTS[1]}" "fleet-worker-1.log"
RESHARDS_NEEDED=2 # eviction + re-entry are both membership transitions
for _ in $(seq 1 50); do
  if [ "$(grep -c 'ring re-shard' "fleet.log")" -ge "$RESHARDS_NEEDED" ]; then break; fi
  sleep 0.2
done
[ "$(grep -c 'ring re-shard' "fleet.log")" -ge "$RESHARDS_NEEDED" ] || {
  echo "restarted worker never re-entered the ring" >&2; cat "fleet.log" >&2; exit 1
}
drive "$KILLED_SEED" "$WORKDIR/warm.json" "$WORKDIR/h-warm" "$COORD"
cmp -s "$WORKDIR/ref-$KILLED_SEED.json" "$WORKDIR/warm.json" || {
  echo "warm restart: bytes diverged" >&2; exit 1
}
WARM_SHARD="$(shard_of "$WORKDIR/h-warm")"
[ "$WARM_SHARD" = "$KILLED_URL" ] || {
  echo "restarted worker did not reclaim its key (served by $WARM_SHARD)" >&2; exit 1
}
grep -qi '^X-Cache: disk' <(tr -d '\r' <"$WORKDIR/h-warm") || {
  echo "restarted worker did not serve from disk:" >&2
  cat "$WORKDIR/h-warm" >&2
  exit 1
}

echo "== phase 4: coordinator surfaces"
curl -sf "http://$COORD/v1/healthz" | grep -q '"coordinator"' || {
  echo "coordinator healthz missing role" >&2; exit 1
}
curl -sf "http://$COORD/v1/metrics?format=prometheus" | grep -q '^fleet_requests ' || {
  echo "coordinator exposition missing fleet_requests" >&2; exit 1
}
# The peering surface is locked down: the coordinator never proxies
# /internal/*, and workers refuse peer reads without the shared secret.
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD/internal/peer/cache?key=x")"
[ "$CODE" = "404" ] || { echo "coordinator proxied /internal/ (status $CODE)" >&2; exit 1; }
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$HOST:${WORKER_PORTS[0]}/internal/peer/cache?key=x")"
[ "$CODE" = "403" ] || { echo "worker served an unauthenticated peer read (status $CODE)" >&2; exit 1; }

rm -f fleet.log fleet-ref.log fleet-worker-*.log
echo "== fleet smoke passed (${#SEEDS[@]} keys, 1 kill, 1 warm restart)"
