#!/bin/sh
# Serve smoke test (`make serve-smoke`; also run by scripts/ci.sh): boot
# `repro serve` in the background on an ephemeral port, curl /v1/healthz,
# run one solve to completion, verify the second identical POST is served
# from the cache byte-identically (no solve span in its trace), verify the
# candidate tier (same geometry under different budgets answers immediately
# with cache_tier=candidates), check /v1/metrics reflects both tiers'
# hit/miss counts, then shut down cleanly via SIGTERM and assert the
# graceful-exit message and that none of the server's solver processes
# outlives it.
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SERVE_DIR="${TMPDIR:-/tmp}/repro_serve_smoke"
rm -rf "$SERVE_DIR" && mkdir -p "$SERVE_DIR"
python -m repro solve --seed 3 --devices 1 --chargers 1 \
    --save "$SERVE_DIR/scenario.json" > /dev/null
python -c "
import json, sys
d = sys.argv[1]
with open(d + '/scenario.json') as f:
    scenario = json.load(f)
with open(d + '/request.json', 'w') as f:
    json.dump({'scenario': scenario}, f)
" "$SERVE_DIR"

python -m repro serve --port 0 --pool-size 2 --quiet > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's|.*http://[^:]*:\([0-9][0-9]*\).*|\1|p' "$SERVE_DIR/serve.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "repro serve did not start"; cat "$SERVE_DIR/serve.log"; exit 1; }
BASE="http://127.0.0.1:$PORT"

curl -sf "$BASE/v1/healthz" | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['status'] == 'ok', doc
assert doc['workers_alive'] == 2, doc
print('serve healthz ok (workers=%d)' % doc['workers_alive'])
"

# First solve: accepted + polled to completion.
JOB=$(curl -sf -X POST "$BASE/v1/solve" -H 'Content-Type: application/json' \
    --data-binary @"$SERVE_DIR/request.json" | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['state'] == 'queued', doc
print(doc['id'])
")
python -c "
import json, sys, time, urllib.request
base, job = sys.argv[1], sys.argv[2]
for _ in range(300):
    with urllib.request.urlopen(f'{base}/v1/jobs/{job}') as r:
        doc = json.load(r)
    if doc['state'] in ('done', 'failed', 'timeout', 'cancelled'):
        break
    time.sleep(0.1)
assert doc['state'] == 'done', doc
json.dump(doc['result'], open(sys.argv[3] + '/first_result.json', 'w'), sort_keys=True)
print('serve solve ok (utility=%.4f)' % doc['result']['utility'])
" "$BASE" "$JOB" "$SERVE_DIR"

# Second identical solve: must be a synchronous cache hit, byte-identical.
curl -sf -X POST "$BASE/v1/solve" -H 'Content-Type: application/json' \
    --data-binary @"$SERVE_DIR/request.json" | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['cached'] is True and doc['state'] == 'done', doc
assert 'solve' not in [sp['name'] for sp in doc['trace']], doc['trace']
first = json.load(open(sys.argv[1] + '/first_result.json'))
assert json.dumps(doc['result'], sort_keys=True) == json.dumps(first, sort_keys=True)
print('serve cache round-trip ok (byte-identical, no solve span)')
" "$SERVE_DIR"

# Candidate tier: same geometry, different budgets.  The full cache cannot
# match, but extraction must be reused — expect an immediate (HTTP 200)
# done job tagged cache_tier=candidates.
python -c "
import json, sys
d = sys.argv[1]
with open(d + '/scenario.json') as f:
    scenario = json.load(f)
scenario['budgets'] = {k: v + 1 for k, v in scenario['budgets'].items()}
with open(d + '/request_budgets.json', 'w') as f:
    json.dump({'scenario': scenario}, f)
" "$SERVE_DIR"
curl -sf -X POST "$BASE/v1/solve" -H 'Content-Type: application/json' \
    --data-binary @"$SERVE_DIR/request_budgets.json" | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['state'] == 'done', doc
assert doc.get('cache_tier') == 'candidates', doc
print('serve candidate-tier ok (cache_tier=%s)' % doc['cache_tier'])
"

curl -sf "$BASE/v1/metrics" | python -c "
import json, sys
doc = json.load(sys.stdin)
c = doc['metrics']['counters']
assert doc['cache']['hits'] >= 1 and doc['cache']['misses'] >= 1, doc['cache']
assert c.get('serve.jobs.done', 0) >= 1, c
assert c.get('cache.candidates.hits', 0) >= 1, c
assert doc['candidate_cache']['entries'] >= 1, doc['candidate_cache']
print('serve metrics ok (hits=%d misses=%d candidate_hits=%d)'
      % (doc['cache']['hits'], doc['cache']['misses'], c['cache.candidates.hits']))
"

CHILDREN=$(pgrep -P "$SERVE_PID" || true)
[ "$(echo "$CHILDREN" | wc -w)" -eq 2 ] || { echo "expected 2 solver processes, got: $CHILDREN"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q "repro serve stopped" "$SERVE_DIR/serve.log"
for pid in $CHILDREN; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "solver process $pid outlived the server"; exit 1
    fi
done
if grep -q "Traceback" "$SERVE_DIR/serve.log"; then
    echo "traceback in the server log"; cat "$SERVE_DIR/serve.log"; exit 1
fi
echo "serve shutdown clean (no solver process left)"
