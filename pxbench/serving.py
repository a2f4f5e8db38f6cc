"""Server processes and the keep-alive client the serve workloads drive.

Run hygiene: every server starts in a fresh directory inside the
checkout, on an ephemeral port, in its own session.  :meth:`Server.stop`
sends SIGTERM, waits for the server, then waits for every process it
ever saw below the server (pool workers and their helpers) to end; a
process still alive after the grace period is killed and reported as a
leftover, which fails the run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

READY = re.compile(r"serving PXDBs on http://([\d.]+):(\d+)")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
REAP_TIMEOUT = 10.0


def _ppid_and_state(pid: int) -> tuple[int, str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces and parentheses: split after it.
    fields = text[text.rindex(")") + 2:].split()
    return int(fields[1]), fields[0]


def descendants(root: int) -> set[int]:
    """Every live process below ``root`` (a /proc scan)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            info = _ppid_and_state(int(entry))
            if info is not None:
                parents[int(entry)] = info[0]
    found: set[int] = set()
    frontier = {root}
    while frontier:
        frontier = {pid for pid, ppid in parents.items() if ppid in frontier} - found
        found |= frontier
    return found


def alive(pid: int) -> bool:
    info = _ppid_and_state(pid)
    return info is not None and info[1] not in ("Z", "X")


def peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` subprocess."""

    def __init__(self, root: Path, workdir: Path, args: list[str]):
        self.root = root
        self.workdir = workdir
        self.args = args
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.log: list[str] = []
        self.seen: set[int] = set()
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self) -> float:
        """Spawn and wait for the listening socket; returns the spawn time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", *self.args]
        spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT) or self.port is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.log[-20:]))
        return spawned

    def _read_log(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)
            match = READY.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._ready.set()
        self._ready.set()

    def note_children(self) -> None:
        """Remember the processes below the server (for the reap check)."""
        if self.process is not None:
            self.seen |= descendants(self.process.pid)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus every process below it."""
        self.note_children()
        pids = {self.process.pid} | {pid for pid in self.seen if alive(pid)}
        return sum(peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> list[int]:
        """SIGTERM, wait, reap; returns the leftover pids (killed)."""
        if self.process is None:
            return []
        self.note_children()
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if self._reader is not None:
            self._reader.join(STOP_TIMEOUT)
        process.stderr.close()
        deadline = time.monotonic() + REAP_TIMEOUT
        while time.monotonic() < deadline and any(alive(pid) for pid in self.seen):
            time.sleep(0.05)
        leftovers = sorted(pid for pid in self.seen if alive(pid))
        for pid in leftovers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return leftovers


class Client:
    """One keep-alive HTTP/1.1 connection; every call is closed-loop."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def call(self, route: str, params: dict | None = None,
             body: dict | None = None) -> tuple[int, dict, float]:
        """(status, decoded JSON, seconds from send to last body byte)."""
        path = route + ("?" + urlencode(params) if params else "")
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = time.perf_counter()
        self.connection.request("POST" if payload is not None else "GET", path,
                                body=payload, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        return response.status, json.loads(data), elapsed

    def close(self) -> None:
        self.connection.close()


def wait_answering(port: int, calls: list[tuple[str, dict]]) -> None:
    """Block until every (route, params) answers 200 (server set-up)."""
    client = Client(port)
    try:
        for route, params in calls:
            status, payload, _ = client.call(route, params)
            if status != 200:
                raise RuntimeError(f"set-up call {route} {params} -> {status} {payload}")
    finally:
        client.close()
