"""Load generator for the ``serve-open`` workload.

One process, one unix-socket connection to a ``repro serve`` daemon,
and two threads: the calling thread sends requests on schedule and a
receiver thread reads responses as they arrive. Requests use the
daemon's wire protocol (``repro.serve.protocol``) directly, with the
same payload interning as the library client: a design or workload
crosses the connection in full once, then as a digest reference.

An open-loop phase sends at a fixed rate regardless of completions and
times each job from when it was *due* to be sent, so a stall also
charges the jobs queued behind it. A closed-loop phase keeps a fixed
number of jobs in flight and measures saturation throughput.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Called through the module so a traced run's patched bindings apply.
from repro.serve import protocol

clock = time.perf_counter_ns

#: A job with no response this long after its phase ends is failed.
RESPONSE_TIMEOUT_S = 30.0
#: An open-loop sender runs a calibration loop only in a gap this long
#: before its next send (a loop takes ~0.1 ms), so it never sends late.
CALIBRATION_SLACK_NS = 1_000_000


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class Daemon:
    """A ``repro serve`` daemon on a unix socket, started cold.

    With ``spans`` set, the daemon runs under ``serve_traced.py`` and
    writes its spans there when stopped.
    """

    def __init__(self, root: Path, socket_path: str, log: Path, env: dict, spans: Path | None = None):
        bench = Path(__file__).resolve().parent
        if spans is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(bench / "serve_traced.py"), "--spans", str(spans)]
        command += ["serve", "--unix", socket_path, "--cold", "--no-capacity-check"]
        with open(log, "w") as out:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + 120
        while "ready\n" not in log.read_text():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon did not start:\n{log.read_text()}")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class PhaseStats:
    """One load phase: per-job schedule/send/receive times (ns)."""

    name: str
    ids: list[int] = field(default_factory=list)
    scheduled: list[int] = field(default_factory=list)
    sent: list[int] = field(default_factory=list)
    backlog_max: int = 0
    start: int = 0
    end: int = 0
    server: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return (self.end - self.start) / 1e9


class Connection:
    """The client side of one daemon connection."""

    def __init__(self, socket_path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(socket_path)
        self._rfile = self._sock.makefile("rb")
        self._packs: dict[int, tuple[object, str, str]] = {}
        self._sent_refs: set[str] = set()
        self._next_op = 0
        self._ops: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        #: request id -> (receive time ns, response message)
        self.responses: dict[int, tuple[int, dict]] = {}
        self.received = 0
        self._slots: threading.Semaphore | None = None
        self._receiver = threading.Thread(target=self._receive, name="bench-receiver", daemon=True)
        self._receiver.start()

    # -- payload interning (the library client's wire form) ------------

    def _pack(self, obj) -> dict:
        entry = self._packs.get(id(obj))
        if entry is None or entry[0] is not obj:
            data = base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")
            entry = (obj, hashlib.blake2b(data.encode("ascii"), digest_size=12).hexdigest(), data)
            self._packs[id(obj)] = entry
        _obj, ref, data = entry
        if ref in self._sent_refs:
            return {"encoding": "ref", "ref": ref}
        self._sent_refs.add(ref)
        return {"encoding": "pickle", "data": data, "ref": ref}

    def send_job(self, request_id: int, job) -> None:
        frame = protocol.encode_line(
            {"id": request_id, "job": job.to_dict(pack=self._pack), "fields": ["summary"]}
        )
        self._sock.sendall(frame)

    def op(self, name: str) -> dict:
        """A control op (``server-stats``), answered in order."""
        self._next_op += 1
        self._sock.sendall(protocol.encode_line({"id": f"op-{self._next_op}", "op": name}))
        message = self._ops.get(timeout=RESPONSE_TIMEOUT_S)
        if "ok" not in message:
            raise RuntimeError(f"{name} failed: {message}")
        return message["ok"]

    def _receive(self) -> None:
        while True:
            try:
                line = self._rfile.readline()
            except (OSError, ValueError):
                line = b""
            if not line:
                self._ops.put({"error": "connection closed"})
                return
            received = clock()
            message = protocol.decode_line(line)
            request_id = message.get("id")
            if not isinstance(request_id, int):
                self._ops.put(message)
                continue
            with self._lock:
                self.responses[request_id] = (received, message)
                self.received += 1
            slots = self._slots
            if slots is not None:
                slots.release()

    def wait_for(self, count: int, timeout_s: float = RESPONSE_TIMEOUT_S) -> bool:
        """Wait until ``count`` job responses have arrived in total."""
        deadline = time.monotonic() + timeout_s
        while self.received < count:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._receiver.join(timeout=RESPONSE_TIMEOUT_S)
        self._rfile.close()
        self._sock.close()

    # -- load phases ----------------------------------------------------

    def open_loop(self, name: str, jobs, rate: float, seconds: float, speed=None) -> PhaseStats:
        """Send ``rate`` jobs/s for ``seconds`` on a fixed schedule;
        ``speed`` (a ``hostspeed.HostSpeed``) calibrates in the gaps."""
        stats = PhaseStats(name)
        count = max(1, int(rate * seconds))
        interval = 1e9 / rate
        expected = self.received
        stats.start = clock() + 2_000_000
        for k in range(count):
            request_id, job = next(jobs)
            due = stats.start + int(k * interval)
            wait = due - clock()
            if speed is not None and wait > CALIBRATION_SLACK_NS:
                speed.tick()
                wait = due - clock()
            if wait > 0:
                time.sleep(wait / 1e9)
            stats.ids.append(request_id)
            stats.scheduled.append(due)
            stats.sent.append(clock())
            self.send_job(request_id, job)
            stats.backlog_max = max(stats.backlog_max, expected + k + 1 - self.received)
        self.wait_for(expected + count)
        stats.end = clock()
        return stats

    def closed_loop(self, name: str, jobs, inflight: int, seconds: float, speed=None) -> PhaseStats:
        """Keep ``inflight`` jobs outstanding for ``seconds``; ``speed``
        calibrates between sends."""
        stats = PhaseStats(name)
        expected = self.received
        self._slots = threading.Semaphore(inflight)
        stats.start = clock()
        deadline = stats.start + int(seconds * 1e9)
        try:
            while clock() < deadline:
                if speed is not None:
                    speed.tick()
                if not self._slots.acquire(timeout=RESPONSE_TIMEOUT_S):
                    break
                request_id, job = next(jobs)
                now = clock()
                stats.ids.append(request_id)
                stats.scheduled.append(now)
                stats.sent.append(now)
                self.send_job(request_id, job)
            self.wait_for(expected + len(stats.ids))
        finally:
            self._slots = None
        stats.end = clock()
        return stats


def answered(conn: Connection, stats: PhaseStats) -> list[float]:
    """Latencies (ms) of the phase's answered jobs, each from its
    scheduled send time."""
    latencies = []
    for request_id, due in zip(stats.ids, stats.scheduled):
        response = conn.responses.get(request_id)
        if response is not None:
            latencies.append((response[0] - due) / 1e6)
    return latencies
