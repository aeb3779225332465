#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: build cmd/prfserve, start it
# on fixture datasets (an independent CSV and an x-relation CSV), curl a
# PRFe query, a top-k query and a batch α-sweep, and assert the HTTP JSON
# responses are byte-identical to Engine.Rank run in-process (the
# `prfserve -oneshot` path evaluates the same request straight through the
# engine, no HTTP, no cache). Also diffs the gzip-negotiated response
# (after decompression) and the streamed response (after reassembly)
# against the buffered body, checks the error statuses (including the 415
# Content-Type gate) and that the response-byte cache — each dataset's one
# cache — registers hits for repeated queries.
#
# Usage: scripts/serve_smoke.sh
# Runs in CI (serve-smoke job) and locally; needs only go and curl.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmp/prfserve" ./cmd/prfserve
go run ./cmd/datagen -kind iip -n 500 -seed 7 > "$tmp/iip.csv"
cat > "$tmp/sensors.csv" <<'EOF'
score,probability,group
120,0.4,s1
130,0.7,s2
80,0.3,s2
95,0.4,s3
110,0.6,s3
105,1.0,
EOF
data_flags=(-data "iip=ind:$tmp/iip.csv" -data "sensors=xrel:$tmp/sensors.csv")

echo "== start server"
"$tmp/prfserve" "${data_flags[@]}" -listen 127.0.0.1:0 -addr-file "$tmp/addr" &
server_pid=$!
for _ in $(seq 1 50); do
  [ -s "$tmp/addr" ] && break
  sleep 0.1
done
addr="$(head -n1 "$tmp/addr")"
[ -n "$addr" ] || { echo "server did not write its address" >&2; exit 1; }
curl -sf "http://$addr/healthz" > /dev/null
echo "   listening on $addr"

# POST bodies must declare their media type now that the server enforces it.
json=(-H 'Content-Type: application/json')

# check NAME REQUEST_JSON [ENDPOINT]: curl the request and diff the body
# against the in-process evaluation of the same request.
check() {
  local name="$1" req="$2" endpoint="${3:-rank}"
  printf '%s' "$req" > "$tmp/req.json"
  curl -sf "${json[@]}" "http://$addr/$endpoint" -d @"$tmp/req.json" > "$tmp/got.json"
  "$tmp/prfserve" "${data_flags[@]}" -oneshot -req "$tmp/req.json" > "$tmp/want.json"
  if ! diff -u "$tmp/want.json" "$tmp/got.json"; then
    echo "FAIL: $name: HTTP response differs from in-process Engine.Rank" >&2
    exit 1
  fi
  # The repeated (now cache-served) request must stay byte-identical.
  curl -sf "${json[@]}" "http://$addr/$endpoint" -d @"$tmp/req.json" > "$tmp/got2.json"
  cmp -s "$tmp/got.json" "$tmp/got2.json" || {
    echo "FAIL: $name: cached repeat differs from first answer" >&2; exit 1; }
  echo "   ok: $name"
}

echo "== queries: HTTP vs in-process engine"
check "prfe values"            '{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.95}}'
check "prfe top-k"             '{"dataset": "iip", "query": {"metric": "prfe", "alpha": 0.95, "output": "topk", "k": 10}}'
check "batch α-sweep"          '{"dataset": "iip", "query": {"metric": "prfe", "alphas": [0.2, 0.5, 0.8, 0.95], "output": "ranking"}}' rankbatch
check "x-relation prfe top-k"  '{"dataset": "sensors", "query": {"metric": "prfe", "alpha": 0.9, "output": "topk", "k": 3}}'
check "pt(h) ranking"          '{"dataset": "iip", "query": {"metric": "pth", "h": 20, "output": "ranking"}}'

echo "== wire variants: gzip and streamed vs buffered"
sweep='{"dataset": "iip", "query": {"metric": "prfe", "alphas": [0.2, 0.5, 0.8, 0.95], "output": "ranking"}}'
printf '%s' "$sweep" > "$tmp/sweep.json"
curl -sf "${json[@]}" "http://$addr/rankbatch" -d @"$tmp/sweep.json" > "$tmp/buffered.json"
# gzip negotiated: the raw bytes on the wire are a gzip stream; after
# decompression they must be byte-identical to the buffered body.
curl -sf "${json[@]}" -H 'Accept-Encoding: gzip' -D "$tmp/gz.headers" \
  "http://$addr/rankbatch" -d @"$tmp/sweep.json" -o "$tmp/body.gz"
grep -qi '^content-encoding: gzip' "$tmp/gz.headers" || {
  echo "FAIL: gzip was not negotiated:" >&2; cat "$tmp/gz.headers" >&2; exit 1; }
gzip -dc "$tmp/body.gz" > "$tmp/gunzipped.json"
diff -u "$tmp/buffered.json" "$tmp/gunzipped.json" || {
  echo "FAIL: gunzipped response differs from buffered body" >&2; exit 1; }
echo "   ok: gzip round trip is byte-identical after decompression"
# streamed: chunked per-grid-point emission; the reassembled body must be
# byte-identical to the buffered one.
printf '%s' "${sweep%\}}, \"stream\": true}" > "$tmp/stream.json"
curl -sf "${json[@]}" -D "$tmp/stream.headers" \
  "http://$addr/rankbatch" -d @"$tmp/stream.json" > "$tmp/streamed.json"
grep -qi '^transfer-encoding: chunked' "$tmp/stream.headers" || {
  echo "FAIL: streamed response was not chunked:" >&2; cat "$tmp/stream.headers" >&2; exit 1; }
diff -u "$tmp/buffered.json" "$tmp/streamed.json" || {
  echo "FAIL: reassembled stream differs from buffered body" >&2; exit 1; }
echo "   ok: streamed round trip is byte-identical after reassembly"

echo "== error statuses"
expect_status() {
  local name="$1" want="$2" got
  got="$(cat)"
  [ "$got" = "$want" ] || { echo "FAIL: $name: status $got, want $want" >&2; exit 1; }
  echo "   ok: $name ($want)"
}
curl -s -o /dev/null -w '%{http_code}' "${json[@]}" "http://$addr/rank" -d '{"dataset": "nope", "query": {"metric": "prfe"}}' \
  | expect_status "unknown dataset" 404
curl -s -o /dev/null -w '%{http_code}' "${json[@]}" "http://$addr/rank" -d '{"dataset": "iip", ' \
  | expect_status "malformed JSON" 400
curl -s -o /dev/null -w '%{http_code}' "${json[@]}" "http://$addr/rank" -d '{"dataset": "iip", "query": {"metric": "magic"}}' \
  | expect_status "unknown metric" 400
curl -s -o /dev/null -w '%{http_code}' -X GET "http://$addr/rank" \
  | expect_status "wrong method" 405
# curl -d without a header posts x-www-form-urlencoded: the typed 415 gate.
curl -s -o /dev/null -w '%{http_code}' "http://$addr/rank" -d '{"dataset": "iip", "query": {"metric": "prfe"}}' \
  | expect_status "non-JSON content type" 415

echo "== cache counters"
stats="$(curl -sf "http://$addr/stats")"
echo "$stats" | grep -q '"hits":' || { echo "FAIL: /stats has no hit counters: $stats" >&2; exit 1; }
# Every check() repeated its query once, so hits must be strictly positive.
hits="$(printf '%s' "$stats" | sed -n 's/.*"hits":[[:space:]]*\([0-9][0-9]*\).*/\1/p' | head -n1)"
[ -n "$hits" ] && [ "$hits" -gt 0 ] || { echo "FAIL: cache reported no hits: $stats" >&2; exit 1; }
echo "   ok: cache hits = $hits"
echo "$stats" | grep -q '"byte_cache"' || { echo "FAIL: /stats has no byte_cache block: $stats" >&2; exit 1; }
bhits="$(printf '%s' "$stats" | jq '[.datasets[].byte_cache.hits] | add')"
[ -n "$bhits" ] && [ "$bhits" -gt 0 ] || { echo "FAIL: byte cache reported no hits: $stats" >&2; exit 1; }
echo "   ok: byte-cache hits = $bhits"

echo "== graceful shutdown"
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo
echo "serve smoke: all checks passed"
