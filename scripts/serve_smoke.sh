#!/usr/bin/env bash
# Serve smoke: boot miraged, drive one real request through it, then assert
# the observability surfaces hold their contracts —
#   * every stderr line is valid JSON (the structured access/lifecycle log),
#   * the /v1/run response carries an X-Request-ID and the access log has a
#     matching cache=miss leader line,
#   * /v1/metrics?format=prometheus parses as text exposition 0.0.4 with
#     well-formed `# TYPE` lines and no duplicate series,
#   * /debug/requests/trace is a Chrome-trace JSON array with simulate spans,
#     and the run's `request` event agrees with its access-log line on
#     request_id, route, status, cache and role,
#   * /debug/statusz renders,
#   * /v1/metrics JSON counts the request (server.requests >= 1) and holds
#     the simulation's run totals (core0.insts > 0, a cluster.wall_cycles
#     gauge), and /debug/pprof/cmdline answers 200: the live replacements
#     for a metrics file and a CPU-profile file.
# miraged boots with every worker flag the request path reads set to a
# non-default value, so a flag that stops parsing fails here.
# CI runs this in the serve-smoke job and uploads serve.log/metrics.prom on
# failure; it is equally runnable locally: ./scripts/serve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
LOG="serve.log"

echo "== build"
go build -o miraged-smoke ./cmd/miraged

cleanup() {
  if [ -n "${SRV_PID:-}" ] && kill -0 "$SRV_PID" 2>/dev/null; then
    kill "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
  fi
  rm -f miraged-smoke
}
trap cleanup EXIT

echo "== start miraged on $ADDR"
./miraged-smoke -addr "$ADDR" -log-format json -log-level debug \
  -timeout 30s -max-timeout 2m -drain-timeout 5s -parallel 1 -pprof-http \
  -cache-entries 64 -cache-bytes 16777216 2>"$LOG" &
SRV_PID=$!

for i in $(seq 1 50); do
  if curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SRV_PID" 2>/dev/null; then
    echo "miraged exited during startup:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
curl -sf "$BASE/v1/healthz" >/dev/null || { echo "healthz never came up" >&2; cat "$LOG" >&2; exit 1; }

echo "== drive one /v1/run"
RUN_HEADERS="$(mktemp)"
curl -sf -D "$RUN_HEADERS" -o run.json \
  -H 'Content-Type: application/json' \
  -H 'X-Request-ID: smoke-run-1' \
  -d '{"mix": ["bzip2"], "target_insts": 50000, "interval_cycles": 5000}' \
  "$BASE/v1/run"
grep -qi '^X-Request-ID: smoke-run-1' "$RUN_HEADERS" || {
  echo "response did not echo X-Request-ID:" >&2; cat "$RUN_HEADERS" >&2; exit 1
}
rm -f "$RUN_HEADERS" run.json

echo "== scrape surfaces"
curl -sf "$BASE/v1/metrics?format=prometheus" -o metrics.prom
curl -sf "$BASE/debug/statusz" | grep -q "active_requests:" || { echo "statusz malformed" >&2; exit 1; }
curl -sf "$BASE/debug/requests/trace" -o trace.json
curl -sf "$BASE/v1/metrics" -o metrics.json
CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/cmdline")"
[ "$CODE" = "200" ] || { echo "/debug/pprof/cmdline answered $CODE with -pprof-http" >&2; exit 1; }

echo "== stop miraged"
kill "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
unset SRV_PID

echo "== validate"
python3 - <<'PY'
import json, re, sys

# 1. Every log line is valid JSON; the smoke request shows up as a leader miss.
run_line = None
with open("serve.log") as f:
    for n, line in enumerate(f, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"serve.log:{n} is not JSON: {line!r} ({e})")
        if rec.get("msg") == "request" and rec.get("request_id") == "smoke-run-1":
            run_line = rec
            for field, want in [("route", "run"), ("cache", "miss"), ("role", "leader"), ("status", 200)]:
                if rec.get(field) != want:
                    sys.exit(f"access log line {field}={rec.get(field)!r}, want {want!r}: {rec}")
if run_line is None:
    sys.exit("no access-log line for smoke-run-1")

# 2. Prometheus exposition: well-formed TYPE lines, every sample declared,
#    no duplicate (name, labels) series, finite values.
name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
typed, series = {}, set()
with open("metrics.prom") as f:
    for n, line in enumerate(f, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not name_re.match(parts[2]) or parts[3] not in ("counter", "gauge", "histogram"):
                sys.exit(f"metrics.prom:{n} malformed TYPE line: {line!r}")
            if parts[2] in typed:
                sys.exit(f"metrics.prom:{n} duplicate TYPE for {parts[2]}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
        if not m:
            sys.exit(f"metrics.prom:{n} malformed sample: {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        float(value)  # must parse
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and typed.get(name[: -len(suffix)]) == "histogram":
                base = name[: -len(suffix)]
                break
        if base not in typed:
            sys.exit(f"metrics.prom:{n} sample {name} has no TYPE declaration")
        if (name, labels) in series:
            sys.exit(f"metrics.prom:{n} duplicate series {name}{labels}")
        series.add((name, labels))
needed = ["server_requests", "server_requests_ok", "server_http_latency_us_run"]
for want in needed:
    if want not in typed:
        sys.exit(f"metrics.prom missing expected metric {want} (have {sorted(typed)[:20]}...)")

# 3. The trace export is a Chrome-trace array containing the run's spans.
with open("trace.json") as f:
    events = json.load(f)
if not isinstance(events, list) or not events:
    sys.exit("trace.json is not a non-empty JSON array")
names = {ev.get("name") for ev in events if isinstance(ev, dict)
         and isinstance(ev.get("args"), dict) and ev["args"].get("request_id") == "smoke-run-1"}
for want in ("request", "admission", "simulate", "encode"):
    if want not in names:
        sys.exit(f"trace.json missing span {want!r} for smoke-run-1 (have {sorted(n for n in names if n)})")

# 4. The run's "request" trace event carries its access-log line's fields.
request_args = [ev["args"] for ev in events if isinstance(ev, dict) and ev.get("name") == "request"
                and isinstance(ev.get("args"), dict) and ev["args"].get("request_id") == "smoke-run-1"]
if len(request_args) != 1:
    sys.exit(f"trace.json has {len(request_args)} request events for smoke-run-1, want 1")
for field in ("request_id", "route", "status", "cache", "role"):
    if request_args[0].get(field) != run_line.get(field):
        sys.exit(f"request event {field}={request_args[0].get(field)!r}, access log has {run_line.get(field)!r}")

# 5. The JSON metrics counted the request, and the simulation published its
#    run totals into the server registry when it ended.
with open("metrics.json") as f:
    metrics = json.load(f)
requests = metrics["counters"].get("server.requests", 0)
if requests < 1:
    sys.exit(f"metrics.json server.requests = {requests}, want >= 1")
insts = metrics["counters"].get("core0.insts", 0)
if insts <= 0:
    sys.exit(f"metrics.json core0.insts = {insts}, want > 0")
if "cluster.wall_cycles" not in metrics.get("gauges", {}):
    sys.exit("metrics.json has no cluster.wall_cycles gauge")

print("serve smoke OK:", len(series), "series,", len(events), "trace events")
PY

rm -f metrics.prom metrics.json trace.json serve.log
echo "== serve smoke passed"
