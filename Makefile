PYTHONPATH_PREFIX = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint typecheck bench-smoke bench-scaling bench-cache serve serve-smoke vary-smoke ci

test:
	$(PYTHONPATH_PREFIX) python -m pytest -x -q

lint:
	$(PYTHONPATH_PREFIX) python -m repro.analysis src/repro

typecheck:
	sh scripts/typecheck.sh

serve:
	$(PYTHONPATH_PREFIX) python -m repro serve --port 8080

serve-smoke:
	sh scripts/serve_smoke.sh

bench-smoke:
	$(PYTHONPATH_PREFIX) python benchmarks/bench_extraction_scaling.py --smoke --out /tmp/bench_extraction_smoke.json

bench-scaling:
	$(PYTHONPATH_PREFIX) python benchmarks/bench_extraction_scaling.py

bench-cache:
	$(PYTHONPATH_PREFIX) python benchmarks/bench_cache_reuse.py --smoke --out /tmp/bench_cache_smoke.json

vary-smoke:
	$(PYTHONPATH_PREFIX) python -m repro.variation --families all --budget 150 \
		--seed 20260808 --eps 0.35 --out /tmp/vary-repros --quiet

ci:
	sh scripts/ci.sh
