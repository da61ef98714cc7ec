"""End-to-end check of the live metrics endpoint.

Spawns the real ``repro-search serve`` CLI in a subprocess over a
generated corpus, scrapes ``/healthz`` and ``/metrics`` over HTTP while
feeding it a query on stdin, and verifies the scrape reflects the
evaluated query — the closest thing to a ``curl`` smoke test that still
runs inside the suite.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.workloads.inexlike import InexSpec, generate_collection
from repro.xmltree.serializer import document_to_xml

REPO_ROOT = Path(__file__).resolve().parents[2]
URL_PATTERN = re.compile(r"http://127\.0\.0\.1:\d+")
DEADLINE = 30.0


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        assert response.status == 200
        return response.read().decode("utf-8")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    with generate_collection(
            InexSpec(articles=4, nodes_per_article=100, seed=11)) as corpus:
        for name in corpus.names():
            path = directory / f"{name}.xml"
            path.write_text(document_to_xml(corpus.document(name)),
                            encoding="utf-8")
    return directory


def test_serve_endpoint_over_http(corpus_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         str(corpus_dir), "--port", "0", "--slow-query-ms", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env,
        cwd=str(REPO_ROOT))
    try:
        banner = process.stderr.readline()
        match = URL_PATTERN.search(banner)
        assert match, f"no server URL announced: {banner!r}"
        base = match.group(0)

        assert _get(base + "/healthz") == "ok\n"
        before = _get(base + "/metrics")
        assert "repro_queries_total" not in before  # nothing ran yet

        process.stdin.write("needle thread\n")
        process.stdin.flush()
        deadline = time.monotonic() + DEADLINE
        while True:
            varz = json.loads(_get(base + "/varz"))
            if varz["flight_recorder"]["profiles"] > 0:
                break
            assert time.monotonic() < deadline, "query never recorded"
            time.sleep(0.05)

        after = _get(base + "/metrics")
        assert "# TYPE repro_queries_total counter" in after
        total = re.search(r"^repro_queries_total (\d+)", after,
                          re.MULTILINE)
        assert total and int(total.group(1)) > 0
        ring = varz["flight_recorder"]
        assert ring["slow"] == ring["profiles"] and ring["slow_ms"] == 0
        # No --profile-* flag on the command line: the debug endpoints
        # answer on a plain `serve DIR`.
        snapshot = json.loads(_get(base + "/debug/flightrecorder"))
        assert snapshot["counts"]["recorded"] == ring["recorded"]
        trace = json.loads(_get(base + "/debug/trace/"
                                + snapshot["traces"][0]))
        assert trace["traceEvents"]

        # communicate() closes stdin, signalling EOF to the serve loop.
        stdout, _ = process.communicate(timeout=DEADLINE)
        assert process.returncode == 0
        assert "answer(s)" in stdout
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


@pytest.mark.timeout(60)
def test_cold_pool_answers_its_first_http_query(corpus_dir, tmp_path):
    """``serve --index … --workers 2`` with no stdin line: the pool is
    forked at start-up from the main thread, so the first ``POST
    /query`` is answered.  (Forked lazily by that request's handler
    thread while the main thread sat in ``stdin.readline``, the workers
    hung closing their inherited stdin and the request never returned.)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    index = tmp_path / "idx"
    subprocess.run([sys.executable, "-m", "repro.cli", "index", "build",
                    str(corpus_dir), str(index)], check=True, env=env,
                   cwd=str(REPO_ROOT), stdout=subprocess.DEVNULL)
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--index",
         str(index), "--workers", "2", "--port", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=str(REPO_ROOT),
        start_new_session=True)  # so a failure can kill the workers too
    try:
        match = URL_PATTERN.search(process.stderr.readline())
        assert match, "no server URL announced"
        request = urllib.request.Request(
            match.group(0) + "/query",
            data=json.dumps({"query": "needle"}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            body = json.loads(response.read())
        assert body["answers"] > 0 and body["matched_documents"]
        # The stdin loop still works on the warm pool, then EOF stops it.
        stdout, _ = process.communicate("needle\n", timeout=DEADLINE)
        assert process.returncode == 0
        assert "answer(s)" in stdout
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
