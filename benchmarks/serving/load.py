"""Load generator: keep-alive HTTP clients, closed and open loops.

Queries are a *closed* loop — each connection sends its next request
only after the previous reply, alternating the plain and the NDJSON
class.  Ingests are an *open* loop — sent on a fixed schedule and timed
from the moment each was due, so a stall delays (and is charged to)
every write queued behind it.  Every response is checked against the
oracle; a non-200, a timeout or a wrong answer is a failed request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

from inputs import Inputs, Request
from oracle import Oracle

__all__ = ["Client", "Samples", "Load", "percentile", "ingest_body"]

REQUEST_TIMEOUT_S = 20.0
_HEADERS = {"Content-Type": "application/json"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))      # ceil
    return ordered[int(rank) - 1]


def ingest_body(write: tuple, versions: dict[str, str]) -> bytes:
    op, name, version = write
    body = {"commit": True}
    if op == "add":
        body["documents"] = [{"name": name, "xml": versions[version]}]
    else:
        body["remove"] = [name]
    return json.dumps(body).encode("utf-8")


class Client:
    """One keep-alive connection; reconnects after an error."""

    def __init__(self, host: str, port: int,
                 timeout: float = REQUEST_TIMEOUT_S) -> None:
        self._address = (host, port, timeout)
        self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            host, port, timeout = self._address
            self._conn = http.client.HTTPConnection(host, port,
                                                    timeout=timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def post(self, path: str, body: bytes):
        """POST; returns ``(status, payload bytes)`` or ``(None, b"")``."""
        try:
            conn = self._connection()
            conn.request("POST", path, body, _HEADERS)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b""

    def post_ndjson(self, path: str, body: bytes):
        """POST reading the reply line by line.

        Returns ``(status, lines, first_hit_at)``: the decoded NDJSON
        documents and the ``perf_counter`` reading when the second line
        (the first hit, after the meta line) had arrived.
        """
        try:
            conn = self._connection()
            conn.request("POST", path, body, _HEADERS)
            response = conn.getresponse()
            lines, first_hit_at = [], None
            while True:
                line = response.readline()
                if not line:
                    break
                lines.append(line)
                if len(lines) == 2:
                    first_hit_at = time.perf_counter()
            return response.status, lines, first_hit_at
        except (OSError, http.client.HTTPException):
            self.close()
            return None, [], None

    def get(self, path: str) -> str:
        conn = self._connection()
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")


@dataclass
class Samples:
    """What one timed interval observed."""

    plain_ms: list[float] = field(default_factory=list)
    stream_ms: list[float] = field(default_factory=list)
    first_hit_ms: list[float] = field(default_factory=list)
    ingest_ms: list[float] = field(default_factory=list)
    ingest_late_ms: list[float] = field(default_factory=list)
    response_bytes: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def absorb(self, other: "Samples") -> None:
        """Add another tally's attempts and failures to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class Load:
    """The traffic of one workload against one running server."""

    def __init__(self, inputs: Inputs, oracle: Oracle, host: str,
                 port: int, *, connections: int,
                 ingest_rate: float = 0.0) -> None:
        self.inputs, self.oracle = inputs, oracle
        self._address = (host, port)
        self.connections = connections
        self.ingest_rate = ingest_rate
        self._lock = threading.Lock()
        self._position = [0] * connections      # per-reader iteration
        self.writes_sent = 0
        self.writes_acked = 0

    # -- single checked requests ---------------------------------------

    def send(self, client: Client, request: Request, samples: Samples,
             limit: int = 0) -> None:
        """One query, timed, checked and recorded."""
        acked = self.writes_acked
        body = request.body
        if limit:
            body = json.dumps({"query": request.query,
                               "limit": limit}).encode("utf-8")
        start = time.perf_counter()
        first_hit_at = None
        if request.kind == "stream":
            status, lines, first_hit_at = client.post_ndjson("/query", body)
            payload = b"".join(lines)
        else:
            status, payload = client.post("/query", body)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        # A reply may reflect any write acknowledged before the request
        # left, up to any write sent before the reply arrived.
        states = range(acked, self.writes_sent + 1)
        ok = status == 200 and self._check(request, payload, states, limit)
        with self._lock:
            samples.attempted += 1
            if not ok:
                samples.fail(f"{request.kind} {request.query!r}: status "
                             f"{status}, {len(payload)} byte(s)")
                return
            samples.response_bytes.append(len(payload))
            if request.kind == "plain":
                samples.plain_ms.append(elapsed_ms)
            else:
                samples.stream_ms.append(elapsed_ms)
                if len(lines) > 2:          # meta, hit.., summary
                    samples.first_hit_ms.append(
                        (first_hit_at - start) * 1000.0)

    def _check(self, request: Request, payload: bytes, states: range,
               limit: int) -> bool:
        try:
            if request.kind == "stream":
                docs = [json.loads(line) for line in payload.splitlines()]
                answers, page = None, docs[1:-1]
            else:
                doc = json.loads(payload)
                answers, page = doc["answers"], doc["hits"]
            hits = [[hit["document"], hit["nodes"]] for hit in page]
        except (ValueError, KeyError, TypeError):
            return False
        return self.oracle.matches(request, answers, hits, states, limit)

    def verify(self, queries: list[str], samples: Samples) -> None:
        """Each query once, unpaginated, against the oracle."""
        client = Client(*self._address)
        for query in queries:
            self.send(client, Request("plain", query, b""), samples,
                      limit=1_000_000)
        client.close()

    # -- loops -----------------------------------------------------------

    def _reader(self, index: int, stop_at: float, samples: Samples) -> None:
        client = Client(*self._address)
        streams = self.inputs.streams
        while time.perf_counter() < stop_at:
            i = self._position[index]
            self._position[index] = i + 1
            sequence = streams[("plain", "stream")[i % 2]]
            request = sequence[((i // 2) * self.connections + index)
                               % len(sequence)]
            self.send(client, request, samples)
        client.close()

    def _writer(self, start_at: float, stop_at: float,
                samples: Samples) -> None:
        client = Client(*self._address)
        first = self.writes_sent
        while True:
            due = start_at + (self.writes_sent - first) / self.ingest_rate
            if due >= stop_at:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at = time.perf_counter()
            body = ingest_body(self.inputs.writes[self.writes_sent],
                               self.inputs.versions)
            self.writes_sent += 1
            status, _ = client.post("/ingest", body)
            done_at = time.perf_counter()
            with self._lock:
                samples.attempted += 1
                if status == 200:
                    self.writes_acked = self.writes_sent
                    samples.ingest_ms.append((done_at - due) * 1000.0)
                    samples.ingest_late_ms.append((sent_at - due) * 1000.0)
                else:
                    samples.fail(f"ingest #{self.writes_sent}: "
                                 f"status {status}")
            if status != 200:
                # The oracle can no longer tell which state is served.
                break
        client.close()

    def run(self, seconds: float) -> Samples:
        """Drive every loop for ``seconds``; returns what was observed."""
        samples = Samples()
        start_at = time.perf_counter()
        stop_at = start_at + seconds
        threads = [threading.Thread(target=self._reader,
                                    args=(i, stop_at, samples))
                   for i in range(self.connections)]
        if self.ingest_rate:
            threads.append(threading.Thread(
                target=self._writer, args=(start_at, stop_at, samples)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples
