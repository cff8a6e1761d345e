#!/usr/bin/env bash
# serve-smoke: end-to-end exercise of the experiment service.
#
# Builds nocd and nocload, boots nocd with the experiment cache and run
# ledger enabled, then drives three load phases:
#
#   1. prime   — submit a fast spec once and wait, filling the cache
#   2. coalesce — burst ~20 identical slow-spec submissions; all but one
#                 must coalesce onto the single in-flight job
#   3. cached  — replay the fast spec at 200 req/s for 3s; the server
#                must sustain >= MIN_RPS because every job is answered
#                from the content-addressed cache
#
# Afterwards it scrapes /metrics and asserts the coalesce and cache-hit
# counters moved and checks the ledger recorded runs. Then
#
#   4. retention — replay the fast spec at 400 req/s for 4s, so more than
#                MAX_FINISHED jobs have finished: GET /jobs must list at
#                most MAX_FINISHED, the first job id must answer 410 with
#                the expiry text, and nocd's peak RSS (VmHWM) must stay
#                under MAX_HWM_MIB
#
# and finally it SIGTERMs the server and requires a clean drain ("shut
# down cleanly").
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_RPS=${MIN_RPS:-100}
# internal/service's maxFinished: how many finished jobs nocd keeps.
MAX_FINISHED=512
# nocd's VmHWM after phase 4, three runs each on a 2-vCPU container:
# 19, 20 and 21 MiB when every job was kept, 15, 15 and 15 MiB keeping
# MAX_FINISHED. The bound sits between the two.
MAX_HWM_MIB=18
tmp=$(mktemp -d)
nocd_pid=""
cleanup() {
  [ -n "$nocd_pid" ] && kill -9 "$nocd_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "== serve-smoke: building nocd and nocload =="
go build -o "$tmp/nocd" ./cmd/nocd
go build -o "$tmp/nocload" ./cmd/nocload

# A fast spec (cached instantly on repeat) and a slow one (in flight long
# enough for a burst of twins to coalesce onto it: ~1.3 s on a 2-vCPU
# container). The slow one is a batch run because it keeps no per-packet
# samples: a 3M-cycle open-loop spec took 6 s and alone lifted nocd's peak
# RSS to 78 MiB, hiding whatever phase 4 measures.
cat >"$tmp/fast.json" <<'EOF'
{"kind":"openloop","network":{"Topology":"mesh4x4","VCs":2,"BufDepth":16,"RouterDelay":1,"Routing":"dor","Arb":"rr","Pattern":"uniform","Sizes":"single","Seed":11},"rate":0.1,"warmup":200,"measure":100000,"drainLimit":50000}
EOF
cat >"$tmp/slow.json" <<'EOF'
{"kind":"batch","network":{"Topology":"mesh4x4","VCs":2,"BufDepth":16,"RouterDelay":1,"Routing":"dor","Arb":"rr","Pattern":"uniform","Sizes":"single","Seed":12},"b":40000,"m":4}
EOF

echo "== serve-smoke: starting nocd =="
"$tmp/nocd" -addr 127.0.0.1:0 -cache -cache-dir "$tmp/expcache" \
  -ledger "$tmp/runs.jsonl" >"$tmp/nocd.log" 2>&1 &
nocd_pid=$!

addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's|^nocd listening on \(http://.*\)$|\1|p' "$tmp/nocd.log")
  [ -n "$addr" ] && break
  kill -0 "$nocd_pid" 2>/dev/null || { cat "$tmp/nocd.log"; echo "serve-smoke: nocd died on startup"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { cat "$tmp/nocd.log"; echo "serve-smoke: nocd never reported its address"; exit 1; }
echo "   nocd at $addr (pid $nocd_pid)"

echo "== serve-smoke: phase 1 — prime the cache =="
"$tmp/nocload" -addr "$addr" -spec "$tmp/fast.json" -rps 10 -duration 0.3s -wait

echo "== serve-smoke: phase 2 — coalescing burst (identical slow spec) =="
"$tmp/nocload" -addr "$addr" -spec "$tmp/slow.json" -rps 40 -duration 0.5s -wait

echo "== serve-smoke: phase 3 — cached throughput gate (>= ${MIN_RPS} req/s) =="
"$tmp/nocload" -addr "$addr" -spec "$tmp/fast.json" -rps 200 -duration 3s \
  -wait -min-rps "$MIN_RPS"

echo "== serve-smoke: checking /metrics counters =="
curl -fsS "$addr/metrics" >"$tmp/metrics.txt"
metric() { awk -v m="$1" '$1 == m { print $2 }' "$tmp/metrics.txt"; }
coalesced=$(metric service_jobs_coalesced)
cache_hits=$(metric expcache_hits)
submitted=$(metric service_jobs_submitted)
done_jobs=$(metric service_jobs_done)
echo "   jobs_submitted=$submitted jobs_done=$done_jobs jobs_coalesced=$coalesced expcache_hits=$cache_hits"
[ -n "$coalesced" ] && [ "$coalesced" -ge 1 ] || {
  echo "serve-smoke: expected service_jobs_coalesced >= 1 (got '${coalesced:-missing}')"; exit 1; }
[ -n "$cache_hits" ] && [ "$cache_hits" -ge 1 ] || {
  echo "serve-smoke: expected expcache_hits >= 1 (got '${cache_hits:-missing}')"; exit 1; }

ledger_runs=$(wc -l <"$tmp/runs.jsonl")
[ "$ledger_runs" -ge 1 ] || { echo "serve-smoke: ledger is empty"; exit 1; }
echo "   ledger recorded $ledger_runs run(s)"

echo "== serve-smoke: phase 4 — retention (more than $MAX_FINISHED finished jobs) =="
"$tmp/nocload" -addr "$addr" -spec "$tmp/fast.json" -rps 400 -duration 4s -wait
finished=$(curl -fsS "$addr/metrics" | awk '$1 ~ /^service_jobs_(done|failed|canceled)$/ { n += $2 } END { print n + 0 }')
listed=$(curl -fsS "$addr/jobs" | grep -c '"id":' || true)
gone=$(curl -sS -o "$tmp/gone.json" -w '%{http_code}' "$addr/jobs/job-000001")
hwm_kib=$(awk '$1 == "VmHWM:" { print $2 }' "/proc/$nocd_pid/status")
echo "   finished=$finished listed=$listed job-000001=$gone VmHWM=$((hwm_kib / 1024)) MiB (bound $MAX_HWM_MIB)"
[ "$finished" -gt "$MAX_FINISHED" ] || {
  echo "serve-smoke: only $finished jobs finished, want more than $MAX_FINISHED"; exit 1; }
[ "$listed" -le "$MAX_FINISHED" ] || {
  echo "serve-smoke: GET /jobs lists $listed jobs, want at most $MAX_FINISHED"; exit 1; }
[ "$gone" = 410 ] && grep -q 'job-000001 expired' "$tmp/gone.json" || {
  cat "$tmp/gone.json"; echo "serve-smoke: GET /jobs/job-000001 = $gone, want 410 and the expiry text"; exit 1; }
[ "$hwm_kib" -le $((MAX_HWM_MIB * 1024)) ] || {
  echo "serve-smoke: nocd VmHWM $((hwm_kib / 1024)) MiB, want at most $MAX_HWM_MIB"; exit 1; }

echo "== serve-smoke: SIGTERM drain =="
kill -TERM "$nocd_pid"
for _ in $(seq 1 100); do
  kill -0 "$nocd_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$nocd_pid" 2>/dev/null; then
  cat "$tmp/nocd.log"
  echo "serve-smoke: nocd did not exit within 10s of SIGTERM"
  exit 1
fi
wait "$nocd_pid" 2>/dev/null || true
nocd_pid=""
grep -q "shut down cleanly" "$tmp/nocd.log" || {
  cat "$tmp/nocd.log"; echo "serve-smoke: no clean-shutdown message"; exit 1; }

echo "serve-smoke: OK"
