"""Benchmark of the osm2gtfs_ray spatial engine on a small host.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload flagship_fused --seed 1 --seconds 10 --trace 0

One run: import the engine, set Ray up twice (``ray.init`` with 4
logical CPUs, then a small warm-up job) and keep the last session, run
the workload's job repeatedly until ``--seconds`` of job time are
measured and the workload's minimum number of jobs have run, check every
job's outputs, shut Ray down and wait for its processes to end. Times
are CPU time of the run's processes and set-up wall time, each scaled to
a reference machine speed by a speed probe sampled while it is measured.
``--trace 1`` also runs the workload's per-batch chain in-process under
spans and reports per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Results, host
conditions and spans are written under ``perfbench/out/``. README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

from tables import QUERIES
from tracing import busy_cpu_s, forks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RAY_TMP = os.path.join(HERE, ".rt")
RAY_CPUS = 4          # smallest count at which every workload completes
SETUP_ROUNDS = 2       # each round is ray.init + warm-up (+ shutdown), 3-6 s
REF_MOPS = 30.0        # probe speed (M iterations/s) that scaled times refer to
RUN_DEADLINE_S = 150  # every operation ends by then, so a run ends within 180 s
IDLE_WORKER_KEEP_MS = 600_000  # Ray's default, 1 s, restarts workers at random between jobs
SOCKET_PATH_MAX = 107
RAY_SOCKET_SUFFIX = 64  # /session_<date>_<time>_<us>_<pid>/sockets/plasma_store

E2E_UNITS = {"setup_s": "s", "ref_cpu_s": "s", "rows_per_ref_cpu_s": "1/s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}
LAYER_UNITS = {
    "sources.gen_s": "s", "sources.html_bytes": "bytes",
    "stages.extract.busy_s": "s", "stages.extract.rows": "count",
    "stages.extract.invariant_mismatches": "count", "stages.geocode.busy_s": "s",
    "stages.spatial_join.index_build_s": "s", "stages.spatial_join.busy_s": "s",
    "stages.spatial_join.pip_candidates": "count", "stages.spatial_join.pip_hits": "count",
    "stages.spatial_join.pip_useful_ratio": "ratio", "stages.spatial_join.knn_queries": "count",
    "stages.spatial_join.knn_hits": "count", "stages.spatial_join.none_rows": "count",
    "stages.spatial_join.shuffle_rows": "count", "stages.spatial_join.max_group_rows": "count",
    "stages.spatial_join.hot_cells": "count",
    "pipelines.flagship.partial_rows": "count", "pipelines.flagship.reduce_s": "s",
    "state.lineage.partitions_written": "count", "state.lineage.partitions_skipped": "count",
    "state.lineage.bytes_written": "bytes", "state.lineage.write_s": "s",
    "wall_s": "s", "cpu_s": "s", "speed_mops": "M/s",
    "ray.overhead_s": "s", "ray.operator_wall_s": "s", "ray.operator_cpu_s": "s",
    "ray.operators": "count", "ray.spilled_bytes": "bytes", "ray.forks": "count",
    "trace.inprocess_s": "s", "trace.overhead_s": "s",
    **{f"pipelines.query.{q}_s": "s" for q in QUERIES},
    "pages_per_s": "1/s", "join_rows_per_s": "1/s", "assignments_per_s": "1/s",
    "resume_s": "s", "suite_s": "s", "query_p50_s": "s", "fail_ratio": "ratio",
}


class Watchdog:
    """Bounds every operation by a timeout while Ray calls stay on the
    main thread. When an operation overruns, the timer thread reports it
    as a failed operation, stops every process the run started and ends
    the run, so a deadlocked Ray job cannot hang the harness."""

    def __init__(self, deadline: float, on_timeout):
        self.deadline, self.on_timeout = deadline, on_timeout

    def call(self, fn, timeout: float):
        left = max(0.0, min(timeout, self.deadline - time.perf_counter()))
        timer = threading.Timer(left, self.on_timeout, (f"no result after {left:.0f} s",))
        timer.daemon = True
        timer.start()
        try:
            return fn()
        finally:
            timer.cancel()


# ------------------------------------------------------------ processes --

def _proc_table() -> dict[int, tuple[int, str]]:
    """pid → (ppid, state) for every process visible in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        out[int(name)] = (int(rest[1]), rest[0])
    return out


def descendants(root: int) -> list[int]:
    """Live (non-zombie) descendants of ``root``."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), []):
            stack.append(c)
            if table[c][1] != "Z":
                out.append(c)
    return out


def rss_kib(pid: int, field: str) -> int | None:
    """A VmRSS/VmHWM field of /proc/<pid>/status in KiB, or None if the
    process has ended."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class RssSampler:
    """Peak summed RSS of this process and its live descendants (the Ray
    processes), read from /proc every ``interval`` while ``active``.
    Each Ray process counts with its own peak so far (VmHWM), so a
    short spike between two samples is not missed; this process counts
    with its current RSS (VmRSS), which leaves out the in-process chain
    and the output checks that run outside the jobs."""

    def __init__(self, interval: float = 0.5):
        self.interval, self.active, self.peak_kib = interval, False, 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @property
    def peak(self) -> int:
        return 1024 * self.peak_kib

    def _loop(self):
        me = os.getpid()
        while not self._stop.wait(self.interval):
            if self.active:
                kib = [rss_kib(pid, "VmRSS" if pid == me else "VmHWM")
                       for pid in [me] + descendants(me)]
                self.peak_kib = max(self.peak_kib, sum(k for k in kib if k is not None))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


def reap_children(timeout: float = 30.0) -> list[int]:
    """Wait until every process this run started has ended; kill what is
    left after ``timeout``. Returns the pids that had to be killed."""
    me = os.getpid()
    end = time.perf_counter() + timeout
    killed: list[int] = []
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = descendants(me)
        if not left:
            return killed
        if time.perf_counter() > end:
            if killed:
                return killed
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = left
            end = time.perf_counter() + 5
        time.sleep(0.1)


# ------------------------------------------------------------------ host --

def speed_probe(n: int = 2_000_000) -> tuple[float, float]:
    """Millions of iterations per second of a fixed single-threaded
    Python loop, per second of wall time and per second of this thread's
    CPU time. The host's other tenants change how fast the same
    instructions run, by up to 2x within minutes; the probe, taken next
    to each measurement, says by how much."""
    c0, t0 = time.thread_time(), time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    return n / (time.perf_counter() - t0) / 1e6, n / (time.thread_time() - c0) / 1e6


class SpeedSampler:
    """Runs a short speed probe every ``interval`` while a measurement
    runs and appends it to ``samples``. One probe reads ±25% from the
    next, as the host's speed moves within a second; the median of the
    probes over a job is much steadier. Each probe holds the GIL for
    ~10 ms; together they cost 2-4% of one CPU."""

    def __init__(self, interval: float = 0.3, n: int = 200_000):
        self.interval, self.n = interval, n
        self.samples: list | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(self.interval):
            samples = self.samples
            if samples is not None:
                samples.append(speed_probe(self.n))

    def measure(self) -> list:
        """Starts a new list of probes, with one full-length probe."""
        self.samples = [speed_probe()]
        return self.samples

    def done(self) -> list:
        samples, self.samples = self.samples, None
        samples.append(speed_probe())
        return samples

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


def cpu_counters() -> dict:
    """Cumulative CPU steal (s, all CPUs) and CPU pressure stall time
    (s), to tell a window in which the host withheld CPU."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    out = {"steal_s": int(fields[8]) / os.sysconf("SC_CLK_TCK")}
    try:
        with open("/proc/pressure/cpu") as f:
            out["cpu_pressure_s"] = int(f.readline().rsplit("total=", 1)[1]) / 1e6
    except (OSError, IndexError, ValueError):
        pass
    return out


def host_info() -> dict:
    import numpy
    import pyarrow
    import ray

    # `nproc` prints OMP_NUM_THREADS when it is set, else the affinity count
    return {"cpu_count": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_logical_cpus": ray.cluster_resources().get("CPU"),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "python": sys.version.split()[0], "loadavg": os.getloadavg()}


# ----------------------------------------------------------------- setup --

def ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout, unless that path is
    too long for Ray's AF_UNIX sockets (then Ray's default is used)."""
    if len(RAY_TMP) + RAY_SOCKET_SUFFIX > SOCKET_PATH_MAX:
        return None
    os.makedirs(RAY_TMP, exist_ok=True)
    return RAY_TMP


def ray_up(temp_dir: str | None) -> None:
    import logging

    import ray
    import ray.data

    ray.init(num_cpus=RAY_CPUS, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=512 * 2**20, _temp_dir=temp_dir,
             _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS})
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def drop_sessions(temp_dir: str | None) -> None:
    """Delete this process's Ray session directories (Ray names them
    session_<date>_<time>_<pid of the process that called ray.init>)."""
    if temp_dir:
        for name in os.listdir(temp_dir):
            if name.startswith("session_") and name.endswith(f"_{os.getpid()}"):
                shutil.rmtree(os.path.join(temp_dir, name), ignore_errors=True)


def ray_down(temp_dir: str | None) -> None:
    import ray

    ray.shutdown()
    drop_sessions(temp_dir)


# ---------------------------------------------------------------- metrics --

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return None
    q = 1.0 - 10.0 / n
    return q * 100, sorted(xs)[min(n - 1, int(q * n))]


def layer_metrics(wl, jobs, tr, untraced_s, traced_s, stats) -> dict:
    """Per-layer metrics of a traced run (0 where a layer is idle)."""
    st = tr.self_times() if tr is not None else {}
    c = tr.counts if tr is not None else {}
    walls = [j["wall_s"] for j in jobs]
    wall = median(walls)
    # the root span's self time is the benchmark's own counting, not a layer
    layer_s = sum(v for k, v in st.items() if k != "chain")
    ops = stats["operators"]
    m = {
        "sources.gen_s": st.get("sources.gen", 0.0),
        "sources.html_bytes": c.get("sources.html_bytes", 0),
        "stages.extract.busy_s": st.get("stages.extract", 0.0) + st.get("stages.extract.explode", 0.0),
        "stages.extract.rows": c.get("stages.extract.rows", 0),
        "stages.extract.invariant_mismatches": c.get("stages.extract.invariant_mismatches", 0),
        "stages.geocode.busy_s": st.get("stages.geocode", 0.0),
        "stages.spatial_join.index_build_s": st.get("stages.spatial_join.index_build", 0.0),
        "stages.spatial_join.busy_s": st.get("stages.spatial_join", 0.0),
        "stages.spatial_join.pip_candidates": c.get("stages.spatial_join.pip_candidates", 0),
        "stages.spatial_join.pip_hits": c.get("stages.spatial_join.pip_hits", 0),
        "stages.spatial_join.pip_useful_ratio": (
            c.get("stages.spatial_join.pip_hits", 0) / c["stages.spatial_join.pip_candidates"]
            if c.get("stages.spatial_join.pip_candidates") else 0.0),
        "stages.spatial_join.knn_queries": c.get("stages.spatial_join.knn_queries", 0),
        "stages.spatial_join.knn_hits": c.get("stages.spatial_join.knn_hits", 0),
        "stages.spatial_join.none_rows": c.get("stages.spatial_join.none_rows", 0),
        "stages.spatial_join.shuffle_rows": c.get("stages.spatial_join.shuffle_rows", 0),
        "stages.spatial_join.max_group_rows": c.get("stages.spatial_join.max_group_rows", 0),
        "stages.spatial_join.hot_cells": c.get("stages.spatial_join.hot_cells", 0),
        "pipelines.flagship.partial_rows": c.get("pipelines.flagship.partial_rows", 0),
        "pipelines.flagship.reduce_s": st.get("pipelines.flagship.reduce", 0.0),
        "state.lineage.partitions_written": median([j.get("partitions_written", 0) for j in jobs]),
        "state.lineage.partitions_skipped": median([j.get("partitions_skipped", 0) for j in jobs]),
        "state.lineage.bytes_written": median([j.get("bytes_written", 0) for j in jobs]),
        "state.lineage.write_s": median([j.get("write_s", 0.0) for j in jobs]),
        "ray.operator_wall_s": sum(v["wall_s"] for v in ops.values()),
        "ray.operator_cpu_s": sum(v["cpu_s"] for v in ops.values()),
        "ray.operators": len(ops),
        "ray.spilled_bytes": stats["spilled_bytes"],
        "ray.forks": median([j["forks"] for j in jobs]),
        "trace.inprocess_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s if tr is not None else 0.0,
    }
    if wl.name == "query_mix":
        # no in-process chain: the engine's own work is the operators' CPU time
        m["ray.overhead_s"] = wall - m["ray.operator_cpu_s"]
    else:
        m["ray.overhead_s"] = wall - layer_s
    for q in QUERIES:
        m[f"pipelines.query.{q}_s"] = median([j["times"][q] for j in jobs if "times" in j])
    n_in, rows = wl.n_input, median([j["rows"] for j in jobs])
    matched = median([j.get("matched_rows", 0) for j in jobs])
    pages = wl.input_unit == "pages"
    m["pages_per_s"] = n_in / wall if pages and wall else 0.0
    m["join_rows_per_s"] = rows / wall if wl.name != "query_mix" and wall else 0.0
    m["assignments_per_s"] = matched / wall if "matched_rows" in jobs[0] and wall else 0.0
    m["resume_s"] = median([j["resume_s"] for j in jobs]) if "resume_s" in jobs[0] else 0.0
    m["suite_s"] = wall if wl.name == "query_mix" else 0.0
    m["query_p50_s"] = median([t for j in jobs for t in j.get("times", {}).values()])
    return m


# ------------------------------------------------------------------- run --

def run(args) -> int:
    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    sys.path[:0] = [HERE, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    if not os.path.isdir(os.path.join(ROOT, "osm2gtfs_ray")):
        print(f"perfbench: no osm2gtfs_ray package under {ROOT}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(OUT, "work", tag)
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(args, t_start, deadline, tag, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, t_start, deadline, tag, work_dir) -> int:
    start_probe = speed_probe()
    t0 = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import workloads
    from tracing import NullTracer, Tracer, merge_stats, parse_dataset_stats

    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    t_import = time.perf_counter() - t0
    phases = {"import_s": t_import}
    t0 = time.perf_counter()
    wl.prepare()

    # in-process chain: untraced reference, then the traced run
    traced_s, tr = 0.0, None
    t1 = time.perf_counter()
    ref = wl.reference(NullTracer())
    untraced_s = time.perf_counter() - t1
    if args.trace:
        tr = Tracer(tag)
        t1 = time.perf_counter()
        with tr.span("chain"):
            wl.reference(tr)
        traced_s = time.perf_counter() - t1
    phases["inputs_and_reference_s"] = time.perf_counter() - t0

    n = {"attempted": 0, "failed": 0}
    problems: list[str] = []

    def result_line(metrics: dict) -> str:
        correct = bool(metrics) and not problems and n["failed"] == 0
        return json.dumps({"correct": correct, **n, "metrics": metrics})

    def on_timeout(msg: str) -> None:
        n["attempted"] += 1
        n["failed"] += 1
        print(f"workload {args.workload} seed {args.seed}: operation timed out ({msg})")
        reap_children(timeout=0)
        drop_sessions(temp_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
        print(result_line({}), flush=True)
        os._exit(0)

    watchdog = Watchdog(deadline, on_timeout)
    temp_dir = ray_temp_dir()
    jobs: list[dict] = []
    setups: list[float] = []
    setup_cpu: list[float] = []
    setup_ref: list[float] = []
    setup_speed: list[float] = []
    sampler = RssSampler()
    speed = SpeedSampler()
    speed.__enter__()
    host: dict = {}
    t0 = time.perf_counter()
    try:
        for i in range(SETUP_ROUNDS):
            speed.measure()
            c1, t1 = busy_cpu_s(), time.perf_counter()
            ray_up(temp_dir)
            wl.warm(watchdog)
            setups.append(time.perf_counter() - t1)
            setup_cpu.append(busy_cpu_s() - c1)
            round_speed = median([p[0] for p in speed.done()])
            setup_speed.append(round_speed)
            # wall time at the reference speed: scaled by the probes' speed
            # per second of wall time, since steal is in both
            setup_ref.append(setups[-1] * round_speed / REF_MOPS)
            if i < SETUP_ROUNDS - 1:
                ray_down(temp_dir)
        host = host_info()
    except Exception as e:  # reported as a failed operation, never as a crash
        n["attempted"] += 1
        n["failed"] += 1
        problems.append(f"set-up failed: {type(e).__name__}: {e}")
    phases["setup_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    counters0 = cpu_counters()
    measured = 0.0
    warm_jobs = 0
    with sampler:
        while setups and not problems and (len(jobs) < wl.MIN_JOBS or measured < args.seconds):
            speed.measure()
            sampler.active = True
            f1, c1, t1 = forks(), busy_cpu_s(), time.perf_counter()
            try:
                res = wl.job(watchdog)
            except Exception as e:  # a failed job is a failed operation
                n["attempted"] += 1
                n["failed"] += 1
                problems.append(f"job failed: {type(e).__name__}: {e}")
                break
            res["wall_s"] = time.perf_counter() - t1
            res["cpu_s"] = busy_cpu_s() - c1
            res["forks"] = forks() - f1
            sampler.active = False
            # CPU time at the reference speed: scaled by the probes' speed
            # per second of CPU time, since steal is in neither
            res["speed_mops"] = median([p[1] for p in speed.done()])
            res["ref_cpu_s"] = res["cpu_s"] * res["speed_mops"] / REF_MOPS
            n["attempted"] += res["ops"]
            res["stats"] = [parse_dataset_stats(ds.stats()) for ds in res.pop("datasets")]
            bad = wl.check(res, ref)
            # each problem names one failed operation (a query, or the job)
            n["failed"] += min(res["ops"], max(res["failed"], len(bad)))
            problems += bad
            if warm_jobs < wl.WARMUP_JOBS:  # checked, but left out of the figures
                warm_jobs += 1
                continue
            measured += res["wall_s"]
            jobs.append(res)
    phases["window_s"] = time.perf_counter() - t0
    counters1 = cpu_counters()
    host["window_cpu"] = {k: counters1[k] - counters0[k] for k in counters1}
    speed.__exit__()
    end_probe = speed_probe()

    t0 = time.perf_counter()
    ray_down(temp_dir)
    killed = reap_children()
    phases["shutdown_s"] = time.perf_counter() - t0
    shutil.rmtree(work_dir, ignore_errors=True)

    walls = [j["wall_s"] for j in jobs]
    wall = median(walls)
    metrics: dict[str, float] = {}
    if jobs:
        ref_cpu = median([j["ref_cpu_s"] for j in jobs])
        metrics = {
            "setup_s": t_import * start_probe[0] / REF_MOPS + median(setup_ref),
            "ref_cpu_s": ref_cpu,
            "rows_per_ref_cpu_s": median([j["rows"] for j in jobs]) / ref_cpu,
            "peak_rss_mb": sampler.peak / 2**20,
            "ok_ratio": (n["attempted"] - n["failed"]) / n["attempted"],
        }
    layers = {}
    stats = merge_stats([s for j in jobs for s in j["stats"]]) if jobs else {}
    if args.trace and jobs:
        per_job = {"operators": {k: {kk: vv / len(jobs) for kk, vv in v.items()}
                                 for k, v in stats["operators"].items()},
                   "spilled_bytes": stats["spilled_bytes"] / len(jobs)}
        layers = {"wall_s": wall, "cpu_s": median([j["cpu_s"] for j in jobs]),
                  "speed_mops": median([j["speed_mops"] for j in jobs]),
                  **layer_metrics(wl, jobs, tr, untraced_s, traced_s, per_job)}
        layers["fail_ratio"] = n["failed"] / n["attempted"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **n, "problems": problems, "metrics": metrics,
        "per_layer": layers,
        "samples": {"wall_s": walls, "cpu_s": [j["cpu_s"] for j in jobs],
                    "ref_cpu_s": [j["ref_cpu_s"] for j in jobs],
                    "speed_mops": [j["speed_mops"] for j in jobs],
                    "setup_rounds_ref_s": setup_ref,
                    "forks": [j["forks"] for j in jobs],
                    "setup_rounds_s": setups, "setup_rounds_cpu_s": setup_cpu, "import_s": t_import,
                    "resume_s": [j["resume_s"] for j in jobs if "resume_s" in j],
                    "query_s": [j["times"] for j in jobs if "times" in j],
                    "query_cpu_s": [j["cpu"] for j in jobs if "cpu" in j],
                    "query_forks": [j["query_forks"] for j in jobs if "query_forks" in j]},
        "host": dict(host, ray_temp_dir=temp_dir or "ray default", killed_pids=killed,
                     speed_probe_mops={"start": start_probe, "setup_rounds": setup_speed,
                                       "end": end_probe}),
        "phases": dict(phases, total_s=time.perf_counter() - t_start),
        "ray_operators": stats.get("operators", {}),
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, default=float)
    if tr is not None:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        with open(os.path.join(OUT, "traces", f"{tag}.json"), "w") as f:
            json.dump({"trace": tag, "spans": tr.spans, "counts": dict(tr.counts)}, f)

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} job(s), "
          f"{n['attempted']} operation(s), {n['failed']} failed")
    for p in problems:
        print(f"  problem: {p}")
    for name, v in metrics.items():
        print(f"  {name:<14} {v:14.4f} {E2E_UNITS[name]}")
    if jobs:
        print(f"  {'wall_s':<14} {wall:14.4f} s (median job wall time; steal is in it)")
        print(f"  {'cpu_s':<14} {median([j['cpu_s'] for j in jobs]):14.4f} s "
              f"(median job CPU time at the probe's speed, "
              f"{median([j['speed_mops'] for j in jobs]):.1f} M/s)")
    t = tail([x for j in jobs for x in j.get("times", {}).values()])
    print(f"  samples: {len(walls)} job wall(s); "
          + (f"p{t[0]:.0f} query latency {t[1]:.4f} s" if t else
             "too few samples for a tail percentile"))
    for name, v in layers.items():
        print(f"  {name:<44} {v:14.4f}")
    print(f"  host: {json.dumps(record['host'], default=float)}")
    if args.trace:
        metrics = {k: {"value": float(v), "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    print(result_line(metrics), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship_fused", "checkpoint_resume", "query_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
