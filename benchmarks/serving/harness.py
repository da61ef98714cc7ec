"""Workloads, repetitions and the noise guard.

A *repetition* is: build a fresh index from the XML directory with the
CLI, spawn a fresh ``serve`` on it, answer a first query (that much is
``setup_s``), check a cover set of queries unpaginated, warm up, then
drive the workload's traffic for the timed interval with tracing off.
A workload's reported value is the median over its repetitions (the
minimum for set-up times: see ``Run.summary``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass

from inputs import make_inputs, write_corpus
from load import Client, Load, Samples, percentile
from oracle import Oracle, load_golden
from server import REPO_ROOT, Server, directory_bytes, run_cli

__all__ = ["DEFAULT_SEED", "Workload", "WORKLOADS", "NoiseGuard", "Run",
           "run_rep", "shaped", "load_spec", "machine"]

DEFAULT_SEED = 1
WARMUP_S = 0.5
SETUP_METRICS = ("setup_s", "cli.index_build_s", "cli.serve_ready_s")


@dataclass(frozen=True)
class Workload:
    """How one workload is served and loaded (its inputs: inputs.py)."""

    name: str
    connections: int                # closed-loop query connections
    serve_args: tuple = ()
    writable: bool = False
    ingest_rate: float = 0.0        # open-loop /ingest per second
    pooled: bool = False


# One query connection each: the three deep workloads share corpus and
# request stream too, so they differ in the serving mode alone.  (Two
# concurrent query connections trip an unlocked-LRU race in the program
# about once in forty runs; see the README's baseline findings.)
WORKLOADS = {w.name: w for w in (
    Workload("ro_selective", connections=1),
    Workload("ro_join_heavy", connections=1),
    Workload("pool_join_heavy", connections=1,
             serve_args=("--workers", "2"), pooled=True),
    Workload("rw_mixed_ingest", connections=1, serve_args=("--writable",),
             writable=True, ingest_rate=0.5),
)}


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def shaped(declared: list[dict], values: dict) -> dict:
    """The declared metrics, by name, each with its value and unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# -- noise guard -------------------------------------------------------------

def _steal_ticks() -> tuple[int, int]:
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


class NoiseGuard:
    """A fixed pure-Python spin, timed around every repetition.

    The spin does the same work each time, so a slow one means the
    machine (a noisy neighbour, CPU steal) and not the program.
    """

    THRESHOLD = 1.25

    def __init__(self) -> None:
        self.minimum = math.inf
        self._steal = _steal_ticks()

    def spin_ms(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(600_000):
            x += i * i % 7
        elapsed = (time.perf_counter() - start) * 1000.0
        self.minimum = min(self.minimum, elapsed)
        return elapsed

    def steal_pct(self) -> float:
        """Share of CPU time stolen since the previous call."""
        previous, self._steal = self._steal, _steal_ticks()
        total = self._steal[1] - previous[1]
        return 100.0 * (self._steal[0] - previous[0]) / total if total else 0.0

    def noisy(self, spin_ms: float) -> bool:
        return spin_ms > self.THRESHOLD * self.minimum


# -- one repetition -----------------------------------------------------------

def start_server(workload: Workload, index_dir: str, inputs) -> Server:
    server = Server("--index", index_dir, *workload.serve_args)
    if workload.pooled and not server.stdin_query(inputs.queries[0]):
        # A pool first forked from an HTTP handler thread deadlocks (see
        # exec.cold_pool_first_query_ok), so fork it from the stdin loop.
        tail = server.stderr_tail()
        server.kill()
        raise RuntimeError(f"pool warm-up query got no answer: {tail}")
    return server


def _first_query(server: Server, load: Load, samples: Samples) -> None:
    client = Client(server.host, server.port)
    load.send(client, load.inputs.streams["plain"][0], samples)
    client.close()


def _scrape_shed(server: Server) -> float:
    client = Client(server.host, server.port)
    text = client.get("/metrics")
    client.close()
    return sum(float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
               if line.startswith("repro_guard_shed_total"))


def run_rep(workload: Workload, inputs, oracle: Oracle, xml_dir: str,
            rep_dir: str, seconds: float, *, durability: bool,
            verify_all: bool = False, probe=None) -> dict:
    """Fresh index, fresh server, warm-up, one timed interval.

    ``durability`` adds the restart check afterwards; ``verify_all``
    checks every distinct query unpaginated instead of a cover set;
    ``probe(server, load)`` may add values while the server is up.
    Returns the repetition's metric values and its ``Samples``; the
    index stays in ``rep_dir`` for the caller to use or remove.
    """
    index_dir = os.path.join(rep_dir, "index")
    checks = Samples()
    started = time.perf_counter()
    if workload.writable:
        run_cli("index", "ingest", index_dir, xml_dir, "--create")
    else:
        run_cli("index", "build", xml_dir, index_dir)
    built = time.perf_counter()
    server = start_server(workload, index_dir, inputs)
    try:
        load = Load(inputs, oracle, server.host, server.port,
                    connections=workload.connections,
                    ingest_rate=workload.ingest_rate)
        _first_query(server, load, checks)
        ready = time.perf_counter()
        load.verify(inputs.queries + [inputs.empty_query] if verify_all
                    else oracle.cover(), checks)
        load.run(WARMUP_S)
        cpu_before = server.cpu_seconds()
        interval_start = time.perf_counter()
        samples = load.run(seconds)
        elapsed = time.perf_counter() - interval_start
        cpu = server.cpu_seconds() - cpu_before
        if samples.failed:
            samples.failures.append("server stderr: " + server.stderr_tail())
        values = {
            "setup_s": ready - started,
            "cli.index_build_s": built - started,
            "cli.serve_ready_s": ready - built,
            "throughput_rps": samples.completed / elapsed,
            "server_rss_mb": server.peak_rss_mb(),
            "server_cpu_ms_per_request":
                1000.0 * cpu / max(1, samples.completed),
            "obs.server.shed_total": _scrape_shed(server),
        }
        if probe is not None:
            values.update(probe(server, load))
    finally:
        # No goodbye: acknowledged writes must survive a kill, and a
        # crashed index is what the restart below has to recover.
        server.kill()
    values["disk_bytes_per_xml_byte"] = (directory_bytes(index_dir)
                                         / inputs.xml_bytes)
    for prefix, series in (("query", samples.plain_ms),
                           ("stream", samples.stream_ms),
                           ("ingest", samples.ingest_ms)):
        if series:
            values[f"{prefix}_p50_ms"] = percentile(series, 50)
            values[f"{prefix}_p95_ms"] = percentile(series, 95)
    if samples.first_hit_ms:
        values["stream_first_hit_p50_ms"] = percentile(
            samples.first_hit_ms, 50)
    if samples.ingest_late_ms:
        values["storage.mutation.ingest_late_ms"] = percentile(
            samples.ingest_late_ms, 50)
    if samples.response_bytes:
        values["obs.server.response_bytes"] = statistics.mean(
            samples.response_bytes)
    values["error_rate"] = samples.failed / max(1, samples.attempted)
    if durability:
        values["restart_s"] = _restart(workload, load, oracle, index_dir,
                                       checks)
    samples.absorb(checks)
    return {"values": values, "samples": samples}


def _restart(workload: Workload, load: Load, oracle: Oracle,
             index_dir: str, checks: Samples) -> float:
    """Restart on the killed server's directory; seconds until answered.

    WAL recovery is part of it on a writable index.  The restarted
    server must serve every acknowledged write and no removed document
    (the cover set, unpaginated, against the final state), and a
    writable index must pass ``fsck``.
    """
    started = time.perf_counter()
    server = start_server(workload, index_dir, load.inputs)
    try:
        again = Load(load.inputs, oracle, server.host, server.port,
                     connections=1)
        again.writes_acked = again.writes_sent = load.writes_acked
        _first_query(server, again, checks)
        restart_s = time.perf_counter() - started
        again.verify(oracle.cover(), checks)
    finally:
        server.kill()
    if workload.writable:
        from repro.storage.mutation import fsck
        checks.attempted += 1
        if not fsck(index_dir)["healthy"]:
            checks.fail("fsck: index is not healthy after the run")
    return restart_s


# -- a workload across its repetitions ----------------------------------------

class Run:
    """Inputs, oracle and repetitions of one workload for one seed."""

    def __init__(self, workload: Workload, seed: int, mode: str,
                 work_dir: str) -> None:
        self.workload, self.seed, self.mode = workload, seed, mode
        self.inputs = make_inputs(workload.name, seed, mode)
        self.oracle = Oracle(self.inputs)
        self.dir = os.path.join(work_dir, workload.name)
        self.xml_dir = os.path.join(self.dir, "xml")
        write_corpus(self.inputs.corpus, self.xml_dir)
        self.reps: list[dict] = []
        self.golden_ok = True
        if seed == DEFAULT_SEED and mode == "full":
            golden = load_golden()["workloads"][workload.name]
            self.golden_ok = (golden["answers"] == self.oracle.digest()
                              and golden["inputs"]
                              == self.inputs.fingerprint())

    def repetition(self, seconds: float, guard: NoiseGuard,
                   retries: int, *, last: bool) -> None:
        """One repetition; a noisy one is re-run, ``retries`` times."""
        for attempt in range(retries + 1):
            rep_dir = os.path.join(self.dir, f"rep{len(self.reps)}")
            before = guard.spin_ms()
            guard.steal_pct()
            rep = run_rep(self.workload, self.inputs, self.oracle,
                          self.xml_dir, rep_dir, seconds, durability=last)
            rep["steal_pct"] = guard.steal_pct()
            rep["spin_ms"] = max(before, guard.spin_ms())
            shutil.rmtree(rep_dir, ignore_errors=True)
            rep["noisy"] = guard.noisy(rep["spin_ms"])
            if not rep["noisy"] or attempt == retries:
                break
        self.reps.append(rep)

    def summary(self) -> dict:
        """The per-repetition values reduced to one, plus the tallies.

        The median over the repetitions — except ``setup_s`` and its two
        parts, which take the minimum: set-up is the same CPU-bound work
        every time, so whatever the machine adds to it only ever makes
        it slower, and the fastest repetition is the least disturbed.
        """
        names = sorted({name for rep in self.reps for name in rep["values"]})
        series = {name: [rep["values"][name] for rep in self.reps
                         if name in rep["values"]] for name in names}
        samples = [rep["samples"] for rep in self.reps]
        failed = sum(s.failed for s in samples)
        return {
            "values": {n: (min if n in SETUP_METRICS
                           else statistics.median)(v)
                       for n, v in series.items()},
            "reps": series,
            "attempted": sum(s.attempted for s in samples),
            "failed": failed,
            "failures": [f for s in samples for f in s.failures][:10],
            "correct": failed == 0 and self.golden_ok,
            "golden_ok": self.golden_ok,
            "noisy": any(rep["noisy"] for rep in self.reps),
            "noise": {"spin_ms": [rep["spin_ms"] for rep in self.reps],
                      "steal_pct": [rep["steal_pct"] for rep in self.reps]},
            "samples_per_rep": {
                "query": [len(s.plain_ms) for s in samples],
                "stream": [len(s.stream_ms) for s in samples],
                "ingest": [len(s.ingest_ms) for s in samples]},
            "inputs": self.inputs.fingerprint(),
        }
