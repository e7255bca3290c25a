"""A real ``repro serve`` process and one closed-loop keep-alive client.

The server runs from the checkout's ``src`` tree in its own process group,
so stopping it also stops the process pool it may have started.  The client
sends its next request only after the previous reply has arrived, over one
HTTP/1.1 keep-alive connection.

The benchmark process makes itself the reaper of its orphaned descendants
(``adopt_orphans``): a server's fork server, resource tracker and pool
workers outlive the server by a moment, and they then become the
benchmark's children, so ``end_children`` can wait for each of them before
the benchmark exits.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 150.0
#: Seconds a stopped process group gets to exit by itself before SIGKILL.
GRACE = 5.0

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
_libc = ctypes.CDLL(None, use_errno=True)


def adopt_orphans() -> None:
    """Have orphaned descendants re-parented to this process, not to init."""
    if _libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _die_with_parent() -> None:
    """In a child before exec: be killed when the benchmark process dies."""
    _libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def _children() -> list[int]:
    """Pids of this process's children, zombies included."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def _reap() -> None:
    """Collect every child that has exited, without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_children(grace: float = GRACE) -> None:
    """Stop this process's multiprocessing helpers, then every child.

    Children get ``grace`` seconds to exit by themselves (the resource
    tracker removes its semaphores on the way out); whatever is left is
    killed.  Returns once no child, live or zombie, remains.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except ChildProcessError:  # already reaped
                pass
    deadline = time.monotonic() + grace
    while True:
        _reap()
        kids = _children()
        if not kids:
            return
        if time.monotonic() >= deadline:
            for pid in kids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


class RequestFailed(RuntimeError):
    """A request came back with a non-200 status."""


class Server:
    """``python3 -m repro serve --port 0 ...`` with its stderr in a log file."""

    def __init__(self, root: Path, workdir: Path, args: list[str]):
        self.log_path = workdir / f"serve-{time.monotonic_ns()}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
            start_new_session=True,
            preexec_fn=_die_with_parent,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            match = re.search(r"listening on http://[^:]+:(\d+)/", text)
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            "repro serve did not start:\n" + self.log_path.read_text()[-2000:]
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Interrupt the server, then wait for its whole group to end.

        The group gets ``GRACE`` seconds to exit by itself, then SIGKILL.
        Members orphaned by the server's exit are this process's children
        (see ``adopt_orphans``) and are reaped here; should one have gone
        elsewhere, ``end_children`` cannot reach it, and the wait ends after
        a second ``GRACE``.
        """
        pgid = self.proc.pid
        if self.proc.poll() is None:
            os.killpg(pgid, signal.SIGINT)
            try:
                self.proc.wait(timeout=GRACE)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + GRACE
        while time.monotonic() < deadline + GRACE:
            if self.proc.poll() is not None:
                _reap()
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() >= deadline:
                os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.01)
        self.proc.wait()
        self._log.close()


class Client:
    """One keep-alive connection; every call returns ``(seconds, bytes)``."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def call(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        if response.status != 200:
            raise RequestFailed(
                f"{method} {path} -> {response.status}: {data[:300]!r}"
            )
        return elapsed, data

    def post(self, path: str, payload: Any):
        return self.call("POST", path, encode(payload))

    def derive_async(self, body: bytes) -> tuple[float, bytes, int]:
        """Submit, follow ``/events`` to the end, fetch ``/result``.

        Returns the time from submit to the result being received, the
        result body, and the number of job events streamed.
        """
        start = time.perf_counter()
        _, ack = self.call("POST", "/v1/derive?mode=async", body)
        job_id = json.loads(ack)["job_id"]
        _, stream = self.call("GET", f"/v1/jobs/{job_id}/events")
        _, result = self.call("GET", f"/v1/jobs/{job_id}/result")
        elapsed = time.perf_counter() - start
        events = [json.loads(line) for line in stream.splitlines() if line]
        real = [e for e in events if e.get("event") != "heartbeat"]
        return elapsed, result, len(real)

    def close(self) -> None:
        self.conn.close()


def encode(payload: Any) -> bytes:
    return json.dumps(payload).encode("utf-8")
