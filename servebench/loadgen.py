"""The server process and the closed-loop keep-alive HTTP clients.

:class:`Server` launches ``python -m repro serve`` (or the traced
launcher around the same command) as its own process, with
``REPRO_*`` variables scrubbed from its environment, and reads its CPU
time and peak RSS from ``/proc``.  :func:`drive` runs one thread per
client, each on one persistent HTTP/1.1 connection, each sending its
next request only after the previous response arrived, and checks
every answer against the oracle.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.service.protocol import decode_answer

from workloads import THINK_S, Fixtures, Op

#: environment variables the server must not inherit (REPRO_COLUMNS
#: switches the index backend; the others arm benchmark-only modes)
SCRUB_PREFIXES = ("REPRO_",)
_CLK_TCK = os.sysconf("SC_CLK_TCK")
REQUEST_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerError(RuntimeError):
    """The server did not come up, or died under the benchmark."""


class Server:
    """One ``repro serve`` process with its stores preloaded."""

    def __init__(self, root: str, fx: Fixtures, log_path: str,
                 spans_path: "str | None" = None):
        self.port = _free_port()
        serve_args = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                      "--quiet"]
        for store, (path, _doc) in sorted(fx.preload.items()):
            serve_args += ["--store", f"{store}={os.path.relpath(path, root)}"]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "launcher.py")
            self.argv = [sys.executable, os.path.relpath(launcher, root),
                         os.path.relpath(spans_path, root), *serve_args]
        self.scrubbed = sorted(k for k in os.environ if k.startswith(SCRUB_PREFIXES))
        self.env = {k: v for k, v in os.environ.items() if k not in self.scrubbed}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=root, env=self.env,
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Poll ``/healthz`` until it answers: stores are loaded first."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.005)
        raise ServerError(f"server not ready within {timeout_s} s")

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """utime + stime of every server thread so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self, graceful: bool = True) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it lingers; waits.

        ``graceful=False`` kills at once: for set-up-only launches,
        whose drain (up to one 0.5 s accept-loop poll) measures nothing.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=20)
            return self.proc.returncode
        finally:
            self._log.close()


@dataclass
class Sample:
    """One completed (or failed) operation as the client saw it."""

    kind: str
    latency_s: float
    ok: bool
    trace_id: str
    error: "str | None" = None
    index_hits: int = 0
    answer_size: int = 0


class _Connection:
    """One keep-alive connection; reopened after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=REQUEST_TIMEOUT_S)

    def send(self, method: str, path: str, body: bytes, trace_id: str):
        headers = {"X-Repro-Trace": trace_id, "Content-Type": "application/json"}
        try:
            self.conn.request(method, path, body, headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=REQUEST_TIMEOUT_S)
            raise

    def close(self) -> None:
        self.conn.close()


def execute(conn: _Connection, fx: Fixtures, op: Op, trace_id: str) -> Sample:
    """Send one op, time it, check the response against the oracle."""
    if op.kind == "ingest":
        method, path, body = "PUT", f"/stores/{op.store}?warm=1", fx.xml[op.doc]
    else:
        method, path = "POST", f"/stores/{op.store}/query"
        body = json.dumps(op.query.body()).encode()
    start = time.perf_counter()
    try:
        status, data = conn.send(method, path, body, trace_id)
    except (OSError, http.client.HTTPException) as exc:
        return Sample(op.kind, time.perf_counter() - start, False, trace_id,
                      error=f"transport: {type(exc).__name__}")
    sample = Sample(op.kind, time.perf_counter() - start, False, trace_id)
    try:
        payload = json.loads(data)
    except ValueError:
        sample.error = f"status {status}: body is not JSON"
        return sample
    if status != (201 if op.kind == "ingest" else 200):
        sample.error = f"status {status}: {payload.get('error')}"
    elif op.kind == "ingest":
        if payload["store"]["nodes"] == fx.nodes[op.doc]:
            sample.ok = True
        else:
            sample.error = "ingest installed the wrong node count"
    else:
        doc = fx.preload[op.store][1]
        if decode_answer(payload["answer"]) == fx.reference[(doc, op.kind, op.query.text)]:
            sample.ok = True
            sample.index_hits = payload["stats"]["index_hits"]
            sample.answer_size = payload["stats"]["answer_size"]
        else:
            sample.error = "wrong answer"
    return sample


@dataclass
class Phase:
    """What one measured phase produced."""

    samples: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: VmHWM at ``Fixtures.rss_at_ops`` completed ops; 0 if never reached
    rss_mb: float = 0.0
    rss_ops: int = 0
    start: float = 0.0
    end: float = 0.0


def warm(server: Server, fx: Fixtures, prefix: str) -> list:
    """Answer each distinct query once; returns the (checked) samples."""
    conn = _Connection(server.port)
    try:
        return [execute(conn, fx, op, f"{prefix}w{i:06d}")
                for i, op in enumerate(fx.warmup)]
    finally:
        conn.close()


def drive(server: Server, fx: Fixtures, seconds: float, prefix: str) -> Phase:
    """Closed-loop load: each client thread cycles through its op
    sequence on one keep-alive connection until ``seconds`` elapse."""
    phase = Phase()
    done = [0]
    done_lock = threading.Lock()
    results: list = [[] for _ in fx.clients]
    errors: list = []
    barrier = threading.Barrier(len(fx.clients) + 1)

    def client(index: int, ops: list) -> None:
        conn = _Connection(server.port)
        out = results[index]
        pause = random.Random(f"{fx.name}:{fx.seed}:think:{index}")
        try:
            barrier.wait()
            i = 0
            while time.perf_counter() < deadline:
                op = ops[i % len(ops)]
                out.append(execute(conn, fx, op, f"{prefix}c{index}o{i:07d}"))
                i += 1
                time.sleep(pause.uniform(*THINK_S))
                with done_lock:
                    done[0] += 1
                    read_rss = done[0] == fx.rss_at_ops
                if read_rss:
                    phase.rss_mb = server.peak_rss_mb()
                    phase.rss_ops = fx.rss_at_ops
        except Exception as exc:  # reported, never swallowed
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i, ops), name=f"client-{i}")
        for i, ops in enumerate(fx.clients)
    ]
    for thread in threads:
        thread.start()
    cpu_before = server.cpu_s()
    phase.start = time.perf_counter()
    deadline = phase.start + seconds
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
    phase.end = time.perf_counter()
    if any(t.is_alive() for t in threads):
        raise ServerError("a client thread did not finish")
    if errors:
        raise errors[0]
    phase.cpu_s = server.cpu_s() - cpu_before
    phase.wall_s = phase.end - phase.start
    phase.samples = [s for out in results for s in out]
    return phase
