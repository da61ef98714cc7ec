"""Lifecycle of the program under test: CLI commands and ``serve``.

Everything runs ``python -m repro.cli`` from this checkout's ``src/`` as
a real subprocess.  A server gets its own session so the whole process
tree (pool workers included) can be measured through ``/proc`` and
killed as a group on exit or error.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

__all__ = ["REPO_ROOT", "SRC_DIR", "cli_env", "run_cli", "Server",
           "directory_bytes"]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")

_URL_RE = re.compile(r"metrics: (http://[^/\s]+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_cli(*args: str, timeout: float = 120.0) -> str:
    """Run one ``repro.cli`` command to completion; returns its stdout."""
    done = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          env=cli_env(), capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"repro.cli {' '.join(args)} exited "
                           f"{done.returncode}: {done.stderr.strip()[-400:]}")
    return done.stdout


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


class Server:
    """One ``repro.cli serve`` process, ready when constructed."""

    def __init__(self, *args: str, ready_timeout: float = 30.0) -> None:
        self._stderr_tail: list[str] = []
        self._stdout_lines = 0
        self._stdout_event = threading.Condition()
        self._announced = threading.Event()
        self.url = ""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            env=cli_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        # stdin stays open (EOF stops ``serve``); stderr and stdout are
        # drained so the server can never block on a full pipe.
        self._threads = [threading.Thread(target=drain, daemon=True)
                         for drain in (self._drain_stderr,
                                       self._drain_stdout)]
        for thread in self._threads:
            thread.start()
        if not self._announced.wait(ready_timeout):
            tail = self.stderr_tail()
            self.kill()
            raise RuntimeError(f"serve did not announce its URL: {tail}")
        self.host, port = self.url[len("http://"):].rsplit(":", 1)
        self.port = int(port)

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr_tail.append(line)
            del self._stderr_tail[:-50]
            match = _URL_RE.search(line)
            if match and not self.url:
                self.url = match.group(1)
                self._announced.set()

    def _drain_stdout(self) -> None:
        for _ in self.proc.stdout:
            with self._stdout_event:
                self._stdout_lines += 1
                self._stdout_event.notify_all()

    def stdin_query(self, line: str, timeout: float = 60.0) -> bool:
        """Evaluate one query through the stdin loop; True if answered."""
        with self._stdout_event:
            before = self._stdout_lines
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
            return self._stdout_event.wait_for(
                lambda: self._stdout_lines > before, timeout)

    # -- measurement through /proc ------------------------------------

    def _tree(self) -> list[int]:
        """Live pids of the server's session (itself and pool workers)."""
        pids = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[3]) == self.proc.pid:     # session id
                    pids.append(int(entry))
        return pids

    def cpu_seconds(self) -> float:
        """utime+stime of the tree, reaped children included."""
        ticks = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])
            if pid == self.proc.pid:
                ticks += int(fields[13]) + int(fields[14])
        return ticks / _TICKS

    def peak_rss_mb(self) -> float:
        """Sum of the tree's high-water resident set sizes."""
        total_kb = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    # -- shutdown -------------------------------------------------------

    def stop(self, timeout: float = 20.0) -> None:
        """Close stdin (``serve`` exits on EOF), then make sure it did."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        """Kill the whole process group and reap the server."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 5.0
        while self._tree() and time.monotonic() < deadline:
            time.sleep(0.01)
        for thread in self._threads:
            thread.join(5.0)
        for pipe in (self.proc.stdout, self.proc.stderr):
            pipe.close()

    def stderr_tail(self) -> str:
        return "".join(self._stderr_tail)[-600:]
