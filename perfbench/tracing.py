"""In-memory spans and counters recorded around calls into the engine.

Spans are kept in memory and written out once, when the run ends. A
layer's self time is its span's duration minus the part covered by its
child spans. ``NullTracer`` has the same interface and records nothing,
so one code path serves the untraced and the traced in-process chain.
"""

from __future__ import annotations

import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager


def _busy_cpu_s() -> float:
    """CPU seconds the machine has run so far, over all its CPUs: user,
    nice, system, irq and softirq time from /proc/stat. Idle time, I/O
    wait and the time the host withholds from the machine (steal) are
    not in it, unlike in wall time."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:8]]
    user, nice, system, _idle, _iowait, irq, softirq = fields
    return (user + nice + system + irq + softirq) / os.sysconf("SC_CLK_TCK")


def _foreign_cpu_s(me: int) -> float:
    """CPU seconds used so far by the user processes that are neither
    ``me`` nor its descendants, with their reaped children."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(name)] = (int(rest[1]), sum(int(x) for x in rest[11:15]))
    ours, stack = {me}, [me]
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    while stack:
        for c in children.get(stack.pop(), []):
            ours.add(c)
            stack.append(c)
    # kernel threads (children of kthreadd, pid 2) are the machine's own work
    ticks = sum(t for pid, (ppid, t) in table.items()
                if pid not in ours and pid != 2 and ppid != 2)
    return ticks / os.sysconf("SC_CLK_TCK")


def busy_cpu_s() -> float:
    """CPU seconds run so far by this process, its descendants (the Ray
    processes) and the kernel: the machine's busy time minus that of the
    other user processes. Ray workers that end during a job stay in it,
    unlike in a sum over live processes; steal is not in it."""
    return _busy_cpu_s() - _foreign_cpu_s(os.getpid())


def forks() -> int:
    """Processes and threads created on the machine since boot."""
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("processes "):
                return int(line.split()[1])
    return 0


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "trace": self.trace_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: float) -> None:
        pass


# ------------------------------------------------- Dataset.stats() parsing --

_OP_RE = re.compile(r"^(\t*)(?:Operator|Suboperator) \d+ (.+?):")
_TIME_RE = re.compile(r"Remote (wall|cpu) time: .*?, ([\d.]+)(us|ms|s) total")
_SPILL_RE = re.compile(r"[Ss]pilled[^:\n]*:\s*([\d.]+)\s*(B|KB|KiB|MB|MiB|GB|GiB)")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_UNIT_B = {"B": 1, "KB": 1e3, "KiB": 1024, "MB": 1e6, "MiB": 2**20, "GB": 1e9, "GiB": 2**30}


def parse_dataset_stats(text: str) -> dict:
    """Per-operator remote wall/cpu seconds and spilled bytes from the
    text that the public ``Dataset.stats()`` returns. Suboperators of an
    all-to-all operator are reported under their own names."""
    ops: dict[str, dict[str, float]] = {}
    current = None
    spilled = 0.0
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            current = m.group(2)
            ops.setdefault(current, {"wall_s": 0.0, "cpu_s": 0.0})
            continue
        m = _TIME_RE.search(line)
        if m and current is not None:
            ops[current][f"{m.group(1)}_s"] += float(m.group(2)) * _UNIT_S[m.group(3)]
            continue
        m = _SPILL_RE.search(line)
        if m:
            spilled += float(m.group(1)) * _UNIT_B[m.group(2)]
    return {"operators": ops, "spilled_bytes": spilled}


def merge_stats(parsed: list[dict]) -> dict:
    ops: dict[str, dict[str, float]] = defaultdict(lambda: {"wall_s": 0.0, "cpu_s": 0.0})
    spilled = 0.0
    for p in parsed:
        for name, v in p["operators"].items():
            ops[name]["wall_s"] += v["wall_s"]
            ops[name]["cpu_s"] += v["cpu_s"]
        spilled += p["spilled_bytes"]
    return {"operators": dict(ops), "spilled_bytes": spilled}
