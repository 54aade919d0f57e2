"""Measurement helpers: percentiles with the tail rule, outcome counting,
spans with self time, the host-speed probe and process memory."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time

import numpy as np

TAIL_MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def tail(samples, candidates=(99.9, 99.0, 90.0)):
    """Highest candidate percentile with at least ten samples beyond it, as
    (p, value, n); None when even the lowest candidate has too few."""
    n = len(samples)
    for p in candidates:
        if n * (100.0 - p) >= TAIL_MIN_BEYOND * 100.0 - 1e-9:
            return p, percentile(samples, p), n
    return None


class Outcomes:
    """Operations attempted and failed; an operation fails when it raises or
    its result differs from the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def check(self, what: str, got, want) -> bool:
        return self.record(got == want, f"{what}: got {got!r}, want {want!r}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Tracer:
    """In-memory spans (name, start, end, parent, run id). A span's layer is
    the part of its name before the first dot."""

    traced = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NoTracer:
    """Tracing off: spans cost one context-manager enter/exit."""

    traced = False

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


NO_TRACER = NoTracer()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Per span id: its duration minus the part of it its children cover."""
    kids: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(
                (s["start"], s["end"])
            )
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in kids.get(s["id"], [])
            if min(b, s["end"]) > max(a, s["start"])
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def layer_self_times(spans) -> dict[str, float]:
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st[s["id"]]
    return out


def host_probe(seconds: float) -> float:
    """One-process NumPy burn, in iterations per second. A diagnostic of host
    speed stored beside the results; never a gate or a normaliser."""
    x = np.linspace(0.0, 10.0, 100_000)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        np.sin(x).sum()
        n += 1
    return n / (time.perf_counter() - t0)


# ------------------------------------------------------------- processes
def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        out[int(d)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(pid: int) -> list[int]:
    ppid = _ppid_map()
    kids: dict[int, list[int]] = {}
    for p, pp in ppid.items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """High-water marks of this process plus its Ray worker processes."""
    me = os.getpid()
    workers = [p for p in descendants(me) if "default_worker.py" in _cmdline(p)]
    return hwm_mb(me) + sum(hwm_mb(p) for p in workers)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def stop_all(pids, timeout: float = 10.0) -> list[int]:
    """Wait until every process in ``pids`` has ended, reaping those that
    are this process's children; SIGKILL whatever still runs at the
    deadline and wait for it too. Returns the pids that had to be killed."""
    killed: list[int] = []
    deadline = time.monotonic() + timeout
    while True:
        alive = []
        for p in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(p, os.WNOHANG)
            if _running(p):
                alive.append(p)
        if not alive:
            return killed
        if time.monotonic() > deadline:
            for p in alive:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(p, signal.SIGKILL)
            killed.extend(p for p in alive if p not in killed)
            deadline = time.monotonic() + 10.0
        time.sleep(0.05)
