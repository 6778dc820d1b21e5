#!/usr/bin/env bash
# Runs the federation-relevant benchmark binaries and composes their JSON
# into one report, BENCH_federation.json at the repo root:
#
#   server_scaling    — multi-segment sharding, connection scaling, and the
#                       hot-segment read benchmark with lock caching
#   commit_durability — WAL cost per sync policy (latency + throughput)
#   failover          — replicated-commit throughput (rf=1 vs standalone)
#                       and directory time-to-promote after a primary death
#
# It then composes a second report, BENCH_payload.json, from the payload
# pipeline modes of the same binaries:
#
#   commit_durability --payload      — journal bytes raw vs stored, commit
#                                      latency, checkpoint count, and
#                                      recover() time (snapshot + journal)
#                                      per {compression x compressibility}
#                                      cell
#   server_scaling --update-bytes    — update bytes raw vs on-the-wire in
#                                      both directions for a client pair,
#                                      same matrix (the setting is the
#                                      server's; clients always compress)
#
# Each binary already emits a JSON array; the report is an object keyed by
# bench name so downstream tooling can diff runs field-by-field.
#
# Usage: scripts/bench_all.sh [build-dir]
#   IW_BENCH_CYCLES    commit cycles for commit_durability/failover (2000/1000)
#   IW_BENCH_SECONDS   seconds per server_scaling point (default its own)
#   IW_BENCH_ROUNDS    rounds per update-bytes cell (default 64)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT="BENCH_federation.json"

cmake --build "$BUILD" -j "$JOBS" \
      --target server_scaling commit_durability failover

SCALING_ARGS=()
if [ -n "${IW_BENCH_SECONDS:-}" ]; then
  SCALING_ARGS+=(--seconds "$IW_BENCH_SECONDS")
fi

echo "== server_scaling ==" >&2
SCALING_JSON="$("$BUILD"/bench/server_scaling "${SCALING_ARGS[@]}")"
echo "== commit_durability ==" >&2
DURABILITY_JSON="$("$BUILD"/bench/commit_durability \
    "${IW_BENCH_CYCLES:-2000}")"
echo "== failover ==" >&2
FAILOVER_JSON="$("$BUILD"/bench/failover "${IW_BENCH_CYCLES:-1000}")"

{
  echo '{'
  echo '  "report": "federation",'
  echo "  \"generated_by\": \"scripts/bench_all.sh\","
  echo '  "server_scaling":'
  printf '%s' "$SCALING_JSON" | sed 's/^/  /'
  echo ','
  echo '  "commit_durability":'
  printf '%s' "$DURABILITY_JSON" | sed 's/^/  /'
  echo ','
  echo '  "failover":'
  printf '%s' "$FAILOVER_JSON" | sed 's/^/  /'
  echo '}'
} > "$OUT"

# Fail loudly if any binary emitted malformed JSON rather than shipping a
# broken report.
python3 -c "import json,sys; json.load(open('$OUT'))" 2>/dev/null ||
  python3 -m json.tool "$OUT" > /dev/null

echo "wrote $OUT" >&2

PAYLOAD_OUT="BENCH_payload.json"
echo "== commit_durability --payload ==" >&2
PAYLOAD_DURABILITY_JSON="$("$BUILD"/bench/commit_durability --payload \
    "${IW_BENCH_CYCLES:-2000}")"
echo "== server_scaling --update-bytes ==" >&2
UPDATE_BYTES_JSON="$("$BUILD"/bench/server_scaling --update-bytes \
    --rounds "${IW_BENCH_ROUNDS:-64}")"

{
  echo '{'
  echo '  "report": "payload",'
  echo "  \"generated_by\": \"scripts/bench_all.sh\","
  echo '  "payload_durability":'
  printf '%s' "$PAYLOAD_DURABILITY_JSON" | sed 's/^/  /'
  echo ','
  echo '  "update_bytes":'
  printf '%s' "$UPDATE_BYTES_JSON" | sed 's/^/  /'
  echo '}'
} > "$PAYLOAD_OUT"

python3 -c "import json,sys; json.load(open('$PAYLOAD_OUT'))" 2>/dev/null ||
  python3 -m json.tool "$PAYLOAD_OUT" > /dev/null

echo "wrote $PAYLOAD_OUT" >&2
