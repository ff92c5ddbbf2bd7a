#!/bin/sh
# Tier-1 gate: full test suite, the extraction-scaling and cache-reuse
# benches in smoke mode (tiny scenarios; assert the benches complete,
# emit well-formed meta-stamped JSON and — for the cache bench — produce
# byte-identical warm results, not any particular speedup), an observability
# smoke run: a traced multi-worker solve whose JSONL trace must validate
# against the repro.trace/v1 schema (every line parses, required keys
# present, root span covers child spans), and a serve smoke run: boot
# `repro serve`, health-check it over HTTP, verify a cached solve
# round-trip (second POST must be served from cache, byte-identical),
# then shut it down cleanly via SIGTERM.
#
# Static gates run first (fail fast, cheapest signals): the project
# analyzer (docs/static-analysis.md) over src/repro — run twice, with the
# JSON report asserted byte-identical across runs and kept under
# ${CI_ARTIFACTS_DIR:-/tmp} — the DET determinism gate over the published
# entry points (benchmarks/, examples/), then the strict-typing gate
# (scripts/typecheck.sh).
#
# After tier-1 the intersection-kernel property tests, the extraction
# digests and the batched-position corpus re-run under the Hypothesis
# "ci" profile (more examples), and
# three examples that read the candidate-set API run to completion.
#
# The serve stress test (tests/serve/test_stress.py) is the runtime check
# of the leaf-lock design; after tier-1 it runs ten more times in a row,
# together with the solver-process fault tests (tests/serve/test_solvers.py:
# a killed solver process, cancel and timeout of running cold solves).
#
# The differential smoke (repro.variation, docs/variation.md) generates
# a bounded corpus of seeded scenarios across every registered family
# and checks one solver invariant per scenario; the run must be clean,
# every scenario distinct, and a second run with the same seed must
# reproduce the exact same provenance stamps (stamps_digest equality).
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

ARTIFACTS="${CI_ARTIFACTS_DIR:-/tmp}"
mkdir -p "$ARTIFACTS"

# Lint gate + artifact.  The JSON report is part of the analyzer's
# determinism contract: a second run over the same tree must serialize
# byte-for-byte identically.
python -m repro.analysis src/repro --format json > "$ARTIFACTS/lint-report.json"
python -m repro.analysis src/repro --format json > "$ARTIFACTS/lint-report.rerun.json"
cmp "$ARTIFACTS/lint-report.json" "$ARTIFACTS/lint-report.rerun.json"
rm -f "$ARTIFACTS/lint-report.rerun.json"
echo "lint ok (report deterministic, artifact in $ARTIFACTS)"

# The figure scripts are part of the reproducibility surface: hold
# benchmarks/ and examples/ to the same determinism rules as the core.
python -m repro.analysis benchmarks examples --select DET

sh scripts/typecheck.sh

python -m pytest -x -q

# The batch intersection kernels must equal their scalar oracles bit for
# bit, the two kernel sets each other (the masked line-of-sight path
# included), the boundary families the scalar coverability conditions,
# the pair-sparse coverability and power kernels their dense forms,
# positions and candidate sets their recorded digests (the position corpora
# included), the batched position pass the per-task one on the scene corpus,
# the batched hole rays and arcs their scalar sources and the near-slot
# margin the kernels' drift, and every hostile
# solve request must end as a 400, a 429 or a queued job: re-run these
# modules under the Hypothesis "ci" profile (more examples; see
# tests/conftest.py).  Tier-1 above keeps the default example counts.
HYPOTHESIS_PROFILE=ci python -m pytest tests/geometry/test_intersection_kernels.py \
    tests/backend/test_equivalence.py tests/model/test_boundary_families.py \
    tests/model/test_sparse_kernels.py tests/core/test_extraction_digest.py tests/core/test_position_batches.py \
    tests/core/test_position_corpus_digest.py tests/core/test_position_feeders.py \
    tests/serve/test_submit_fuzz.py -x -q

# These examples call the solver, extraction and candidate-set API
# (`solve_hipo`, `build_candidate_set`, `parallel_positions_by_type`,
# `HIPOSolution.candidate_set`); no test runs them.
for example in quickstart distributed_extraction redeployment_and_fairness; do
    python "examples/$example.py" > /dev/null
done
echo "examples ok (quickstart, distributed_extraction, redeployment_and_fairness)"

for i in 1 2 3 4 5 6 7 8 9 10; do
    python -m pytest tests/serve/test_stress.py tests/serve/test_solvers.py -q
done
echo "serve stress and solver-process fault tests ok (10 runs)"

# Benchmark self-test: every per-layer timing target of benchmarks/perf
# still resolves and the smoke workloads match their golden outputs.
python -m pytest benchmarks/perf -q

SMOKE_OUT="${TMPDIR:-/tmp}/bench_extraction_smoke.json"
python benchmarks/bench_extraction_scaling.py --smoke --out "$SMOKE_OUT"
python -c "
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['meta']['schema'] == 'repro.bench/v1', doc.get('meta')
assert doc['meta']['cpu_count'] and doc['meta']['python'], doc['meta']
print('smoke bench JSON ok (meta stamped)')
" "$SMOKE_OUT"

CACHE_OUT="${TMPDIR:-/tmp}/bench_cache_smoke.json"
python benchmarks/bench_cache_reuse.py --smoke --out "$CACHE_OUT"
python -c "
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['meta']['schema'] == 'repro.bench/v1', doc.get('meta')
assert doc['byte_identical'] is True, doc
assert doc['warm']['cache']['hits'] >= doc['sweep']['points'], doc['warm']
print('cache-reuse smoke bench ok (warm byte-identical)')
" "$CACHE_OUT"

VARY_OUT="${TMPDIR:-/tmp}/vary_smoke.json"
VARY_OUT2="${TMPDIR:-/tmp}/vary_smoke_rerun.json"
VARY_REPROS="${TMPDIR:-/tmp}/vary_smoke_repros"
python -m repro.variation --families all --budget 60 --seed 20260808 \
    --eps 0.4 --out "$VARY_REPROS" --quiet --json > "$VARY_OUT"
python -m repro.variation --families all --budget 60 --seed 20260808 \
    --eps 0.4 --out "$VARY_REPROS" --quiet --json > "$VARY_OUT2"
python -c "
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a['schema'] == 'repro.variation.report/v1', a.get('schema')
assert a['ok'] is True, a['violations']
assert a['scenarios'] >= 60 and a['distinct_scenarios'] == a['scenarios'], a
assert len(a['families_seen']) >= 5, a['families_seen']
assert a['stamps_digest'] == b['stamps_digest'], 'non-deterministic corpus'
print('variation differential smoke ok (clean, distinct, deterministic)')
" "$VARY_OUT" "$VARY_OUT2"

TRACE_OUT="${TMPDIR:-/tmp}/repro_trace_smoke.jsonl"
python -m repro solve --seed 3 --devices 1 --chargers 1 --workers 2 \
    --trace "$TRACE_OUT" --metrics --timings --json > /dev/null
python -m repro.obs.validate "$TRACE_OUT"

sh scripts/serve_smoke.sh
