#!/usr/bin/env bash
# End-to-end smoke test of the dataset lifecycle: import fixture datasets
# into a segment store with cmd/prfstore, start cmd/prfserve on the store
# (-store, -admin-token), and certify that the store-served HTTP answers are
# byte-identical to `prfserve -oneshot` parsing the same source files
# directly — the whole encode → persist → reopen → lazy-materialize path
# must be invisible in the responses. Then exercises the admin endpoints:
# auth gates, POST replacement (generation bump + per-generation cache
# counter reset + new answers), a POST re-import of a CRLF, fully quoted
# CSV (it must answer as the LF original), DELETE (typed 404 afterwards),
# and a final offline `prfstore verify` over everything the server wrote.
#
# Usage: scripts/store_smoke.sh
# Runs in CI (store-smoke job) and locally; needs only go, curl and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

token="store-smoke-$$"
auth=(-H "Authorization: Bearer $token")
json=(-H 'Content-Type: application/json')

echo "== build"
go build -o "$tmp/prfserve" ./cmd/prfserve
go build -o "$tmp/prfstore" ./cmd/prfstore
go run ./cmd/datagen -kind iip -n 500 -seed 7 > "$tmp/iip.csv"
go run ./cmd/datagen -kind iip -n 400 -seed 11 > "$tmp/iip2.csv"
cat > "$tmp/sensors.csv" <<'EOF'
score,probability,group
120,0.4,s1
130,0.7,s2
80,0.3,s2
95,0.4,s3
110,0.6,s3
105,1.0,
EOF
# The same x-relation as a spreadsheet export would write it: CRLF line
# endings and every field quoted.
awk '{ n = split($0, f, ","); line = ""; for (i = 1; i <= n; i++) line = line (i > 1 ? "," : "") "\"" f[i] "\""; printf "%s\r\n", line }' \
  "$tmp/sensors.csv" > "$tmp/sensors-crlf.csv"
# A six-variable Markov chain with tied scores and a zero conditional.
cat > "$tmp/chain.json" <<'EOF'
{"scores": [30, 20, 10, 25, 20, 5],
 "pairs": [[[0.30, 0.20], [0.10, 0.40]],
           [[0.28, 0.12], [0.42, 0.18]],
           [[0.35, 0.35], [0.05, 0.25]],
           [[0.10, 0.30], [0.20, 0.40]],
           [[0.30, 0.00], [0.20, 0.50]]]}
EOF

echo "== import segments offline"
"$tmp/prfstore" -store "$tmp/segs" import iip ind "$tmp/iip.csv"
"$tmp/prfstore" -store "$tmp/segs" import sensors xrel "$tmp/sensors.csv"
"$tmp/prfstore" -store "$tmp/segs" import chain chain "$tmp/chain.json"
"$tmp/prfstore" -store "$tmp/segs" verify
"$tmp/prfstore" -store "$tmp/segs" list

echo "== start server on the store"
"$tmp/prfserve" -store "$tmp/segs" -admin-token "$token" \
  -listen 127.0.0.1:0 -addr-file "$tmp/addr" &
server_pid=$!
for _ in $(seq 1 50); do
  [ -s "$tmp/addr" ] && break
  sleep 0.1
done
addr="$(head -n1 "$tmp/addr")"
[ -n "$addr" ] || { echo "server did not write its address" >&2; exit 1; }
curl -sf "http://$addr/healthz" > /dev/null
echo "   listening on $addr"

# check NAME REQUEST_JSON ONESHOT_DATA_FLAGS...: the store-served HTTP
# answer must be byte-identical to -oneshot parsing the source file
# directly (no store involved).
check() {
  local name="$1" req="$2"
  shift 2
  printf '%s' "$req" > "$tmp/req.json"
  curl -sf "${json[@]}" "http://$addr/rank" -d @"$tmp/req.json" > "$tmp/got.json"
  "$tmp/prfserve" "$@" -oneshot -req "$tmp/req.json" > "$tmp/want.json"
  if ! diff -u "$tmp/want.json" "$tmp/got.json"; then
    echo "FAIL: $name: store-served response differs from direct parse" >&2
    exit 1
  fi
  echo "   ok: $name"
}

echo "== store-served answers vs direct parse"
check "ind prfe values"  '{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.95}}' -data "iip=ind:$tmp/iip.csv"
check "ind prfe top-k"   '{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.95, "output": "topk", "k": 10}}' -data "iip=ind:$tmp/iip.csv"
check "ind exp-rank"     '{"dataset": "iip", "query": {"metric": "erank", "output": "ranking"}}' -data "iip=ind:$tmp/iip.csv"
check "xrel prfe top-k"  '{"dataset": "sensors", "query": {"metric": "prfe", "alpha": 0.9, "output": "topk", "k": 3}}' -data "sensors=xrel:$tmp/sensors.csv"
check "chain pt(h)"      '{"dataset": "chain", "query": {"metric": "pth", "h": 2}}' -data "chain=chain:$tmp/chain.json"
check "chain pt(h) h>n"  '{"dataset": "chain", "query": {"metric": "pth", "h": 9, "output": "ranking"}}' -data "chain=chain:$tmp/chain.json"
check "chain prfomega"   '{"dataset": "chain", "query": {"metric": "prfomega", "weights": [1, 0.5, 0.25]}}' -data "chain=chain:$tmp/chain.json"
check "chain median-rank" '{"dataset": "chain", "query": {"metric": "medianrank", "output": "ranking"}}' -data "chain=chain:$tmp/chain.json"

echo "== admin auth gates"
expect_status() {
  local name="$1" want="$2" got
  got="$(cat)"
  [ "$got" = "$want" ] || { echo "FAIL: $name: status $got, want $want" >&2; exit 1; }
  echo "   ok: $name ($want)"
}
curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/datasets/iip?kind=ind" --data-binary @"$tmp/iip2.csv" \
  | expect_status "import without token" 401
curl -s -o /dev/null -w '%{http_code}' -H 'Authorization: Bearer wrong' -X DELETE "http://$addr/datasets/iip" \
  | expect_status "delete with wrong token" 401
curl -s -o /dev/null -w '%{http_code}' "${auth[@]}" -X PUT "http://$addr/datasets/iip" \
  | expect_status "wrong method on dataset path" 405

echo "== cache counters before the swap"
# Warm the caches: the repeated check() queries above already hit them.
curl -sf "${json[@]}" "http://$addr/rank" -d '{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.95}}' > /dev/null
stats="$(curl -sf "http://$addr/stats")"
gen1="$(printf '%s' "$stats" | jq -r '.datasets.iip.generation')"
hits1="$(printf '%s' "$stats" | jq -r '.datasets.iip.byte_cache.hits // 0')"
[ "$gen1" = 1 ] || { echo "FAIL: generation $gen1 before swap, want 1" >&2; exit 1; }
[ "$hits1" -gt 0 ] || { echo "FAIL: warm dataset reports no byte-cache hits" >&2; exit 1; }
echo "   ok: generation 1 serving with byte-cache hits = $hits1"

echo "== POST replacement: atomic swap to generation 2"
curl -sf "${auth[@]}" -X POST "http://$addr/datasets/iip?kind=ind" --data-binary @"$tmp/iip2.csv" > "$tmp/import.json"
jq -e '.generation == 2 and .kind == "ind"' "$tmp/import.json" > /dev/null || {
  echo "FAIL: unexpected import response: $(cat "$tmp/import.json")" >&2; exit 1; }
stats="$(curl -sf "http://$addr/stats")"
gen2="$(printf '%s' "$stats" | jq -r '.datasets.iip.generation')"
hits2="$(printf '%s' "$stats" | jq -r '.datasets.iip.byte_cache.hits // 0')"
[ "$gen2" = 2 ] || { echo "FAIL: generation $gen2 after swap, want 2" >&2; exit 1; }
[ "$hits2" = 0 ] || { echo "FAIL: byte-cache counters survived the swap (hits=$hits2)" >&2; exit 1; }
echo "   ok: generation 2 serving with fresh cache counters"
# The swapped-in view answers for the replacement file, not the original.
check "replacement answers"  '{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.95, "output": "topk", "k": 10}}' -data "iip=ind:$tmp/iip2.csv"
curl -sf "${auth[@]}" "http://$addr/datasets/iip/info" | jq -e '.generation == 2 and .tuples == 400' > /dev/null || {
  echo "FAIL: /datasets/iip/info does not reflect the swap" >&2; exit 1; }
echo "   ok: info endpoint reflects the swap"

echo "== POST re-import of a CRLF, fully quoted CSV"
curl -sf "${auth[@]}" -X POST "http://$addr/datasets/sensors?kind=xrel" --data-binary @"$tmp/sensors-crlf.csv" \
  | jq -e '.generation == 2 and .tuples == 6' > /dev/null || {
  echo "FAIL: CRLF re-import of sensors was not generation 2 with 6 tuples" >&2; exit 1; }
check "crlf re-import answers as the LF original" '{"dataset": "sensors", "query": {"metric": "prfe", "alpha": 0.9, "output": "topk", "k": 3}}' -data "sensors=xrel:$tmp/sensors.csv"

echo "== DELETE: typed 404 afterwards"
curl -sf "${auth[@]}" -X DELETE "http://$addr/datasets/sensors" > /dev/null
resp="$(curl -s "${json[@]}" "http://$addr/rank" -d '{"dataset": "sensors", "query": {"metric": "prfe", "alpha": 0.9}}')"
printf '%s' "$resp" | jq -e '.code == "unknown_dataset"' > /dev/null || {
  echo "FAIL: query after delete was not the typed 404: $resp" >&2; exit 1; }
curl -s -o /dev/null -w '%{http_code}' "${auth[@]}" -X DELETE "http://$addr/datasets/sensors" \
  | expect_status "double delete" 404
echo "   ok: deleted dataset answers unknown_dataset"

echo "== offline verify of the store the server wrote"
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
"$tmp/prfstore" -store "$tmp/segs" verify
"$tmp/prfstore" -store "$tmp/segs" info iip | jq -e '.generation == 2' > /dev/null || {
  echo "FAIL: stored segment is not generation 2" >&2; exit 1; }

echo
echo "store smoke: all checks passed"
