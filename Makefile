.PHONY: install test bench bench-serving examples verify loc clean

# Run from the checkout, as the tier-1 command does: no install needed.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	python setup.py develop || pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# The serving benchmark of BENCHMARK.json: 4 workloads x 3 repetitions
# through a real `repro-search serve`, then the traced runs (~8 min).
bench-serving:
	python3 benchmarks/serving/run.py --out report.json

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; python $$f > /dev/null || exit 1; \
	done; echo "all examples ran"

verify:
	python -c "from repro.testing import run_differential_trials as r; \
	           rep = r(trials=500); assert rep.passed, rep.summary(); \
	           print(rep.summary())"
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	python -c "from repro.workloads.inexlike import InexSpec, generate_collection as g; \
	           from repro.storage.shards import build_index; \
	           build_index(g(InexSpec(articles=6, nodes_per_article=80)), '$$tmp/idx', shards=3)" && \
	python -m repro.cli index inspect "$$tmp/idx" --verify --json > "$$tmp/inspect.json" && \
	python -c "import json; from repro.storage.shards import FORMAT_VERSION as v; \
	           d = json.load(open('$$tmp/inspect.json')); \
	           assert d['format_version'] == v and not d['verification']['failures'], d; \
	           assert all(s['terms'] for s in d['directories'].values()), d; \
	           print(f'index inspect: format v{v},', d['verification']['documents'], \
	                 'document(s) and', len(d['directories']), 'term directories verified')" && \
	python -c "from repro.workloads.inexlike import InexSpec, generate_collection as g; \
	           from repro.collection.mutable import MutableDocumentCollection as M; \
	           from repro.storage.mutation import fsck; from repro.core.query import Query; \
	           query = Query.of('needle', 'thread'); \
	           docs = g(InexSpec(articles=7, nodes_per_article=80, planted_fraction=1.0)); \
	           names = docs.names(); live = M.create('$$tmp/live'); \
	           [live.add(docs.document(n), n, commit=False) for n in names[:6]]; live.commit(); \
	           hits = len(live.search(query)); \
	           live.add(docs.document(names[6]), names[0]); \
	           assert len(live.search(query)) > 0 < hits; \
	           delta = live.shard_stats()['delta']; live.close(); \
	           assert delta['carried'] == 5 and delta['materialized'] <= 1, delta; \
	           report = fsck('$$tmp/live'); assert report['healthy'], report['issues']; \
	           print('mutable index: a one-document replace carried', delta['carried'], \
	                 'of 6 delta documents and decoded', delta['materialized'], '- fsck healthy')"

# The figures ROADMAP.md quotes after every PR: lines of src/repro and
# of each top-level package (single modules included).
loc:
	@find src/repro -name '*.py' | xargs cat | wc -l | xargs printf '%6d src/repro\n'
	@for p in src/repro/*/ src/repro/*.py; do \
		find $$p -name '*.py' | xargs cat | wc -l | xargs printf "%6d $$p\n"; \
	done | sort -rn

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
