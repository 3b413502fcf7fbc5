"""The benchmark workloads.

Each workload makes its inputs from the seed, runs its job on Ray
through the engine's public functions, runs the same per-batch chain
in-process (the reference for the output check and, with a ``Tracer``,
the per-layer trace), and checks a job's outputs.

Input sizes are set so that one run, with its two set-up rounds, ends
in 20-60 s on this host, depending on how busy it is; see README.md.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from osm2gtfs_ray.pipelines import flagship as fl
from osm2gtfs_ray.sources import pages as pg
from osm2gtfs_ray.stages import spatial_join as sj
from osm2gtfs_ray.stages.extract import TextExtractor, explode_entities
from osm2gtfs_ray.stages.geocode import COARSE_LEVEL, assign_cells
from osm2gtfs_ray.state import lineage

from tables import QUERIES, write_tables
from tracing import NullTracer, busy_cpu_s, forks

HERE = os.path.dirname(os.path.abspath(__file__))
BATCH = 1024          # pages per batch, as run_flagship_fused's default
WARM_PAGES = 256
# The tile map is the same for every seed, as a real map would be; the
# pages come from the seed. Tiles drawn per seed would move
# the join-row count by ±13% between seeds and swamp the timings.
TILE_SEED = 42
WARM_BLOCKS = 8       # as many read tasks as a job, so set-up starts every worker
JOB_TIMEOUT_S = 60.0
QUERY_TIMEOUT_S = 30.0


def _pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def _partial(joined: pa.Table) -> pa.Table:
    """Per-batch (cell, tile) partial counts; unmatched rows keep
    tile_id='' so the partials also carry the join-row total."""
    t = joined.select(["cell_coarse", "tile_id"]).rename_columns(["entity_cell", "tile_id"])
    t = t.set_column(1, "tile_id", pc.fill_null(t["tile_id"], ""))
    g = t.group_by(["entity_cell", "tile_id"]).aggregate([([], "count_all")])
    return g.rename_columns(["entity_cell", "tile_id", "partial"])


def _reduce(parts: list[pa.Table]) -> pa.Table:
    t = pa.concat_tables(parts)
    g = t.group_by(["entity_cell", "tile_id"]).aggregate([("partial", "sum")])
    return _canon(g.rename_columns(["entity_cell", "tile_id", "count"]))


def _canon(t) -> pa.Table:
    if isinstance(t, pd.DataFrame):
        t = pa.Table.from_pandas(t, preserve_index=False)
    t = t.select(["entity_cell", "tile_id", "count"]).cast(
        pa.schema([("entity_cell", pa.uint64()), ("tile_id", pa.string()), ("count", pa.int64())]))
    return t.sort_by([("entity_cell", "ascending"), ("tile_id", "ascending")])


def _totals(assign: pa.Table) -> dict:
    counts = assign["count"].to_numpy()
    matched = pc.not_equal(assign["tile_id"], "").to_numpy(zero_copy_only=False)
    return {"join_rows": int(counts.sum()), "matched_rows": int(counts[matched].sum()),
            "assignments": int(matched.sum())}


def _join_counts(tr, joiner, joined: pa.Table, coarse: np.ndarray) -> None:
    """Counters around one SpatialJoiner call: candidate pairs from the
    cell grid, and rows per join method."""
    if isinstance(tr, NullTracer):
        return
    p_idx, _ = joiner.index.candidates(coarse)
    tr.count("stages.spatial_join.pip_candidates", len(p_idx))
    by = {m["values"]: m["counts"] for m in joined["method"].value_counts().to_pylist()}
    tr.count("stages.spatial_join.pip_hits", by.get("pip", 0))
    tr.count("stages.spatial_join.knn_hits", by.get("knn", 0))
    tr.count("stages.spatial_join.none_rows", by.get("none", 0))
    # every point without a PIP hit issues one kNN query
    tr.count("stages.spatial_join.knn_queries", by.get("knn", 0) + by.get("none", 0))


def page_chain(tr, seed: int, n_pages: int, tiles: pa.Table, with_part: bool = False):
    """In-process flagship chain over pages [0, n_pages): make_pages_for_ids
    → TextExtractor → explode_entities → assign_cells → SpatialJoiner →
    partial counts. Returns the assignments and, with ``with_part``, the
    join-row batches and the probe rows' coarse cells."""
    with tr.span("stages.spatial_join.index_build"):
        joiner = sj.SpatialJoiner(tiles=tiles)
    extractor = TextExtractor()
    parts, rows, probe_cells = [], [], []
    for start in range(0, n_pages, BATCH):
        ids = np.arange(start, min(start + BATCH, n_pages), dtype=np.uint64)
        with tr.span("sources.gen"):
            pages = pg.make_pages_for_ids(ids, seed)
        tr.count("sources.html_bytes", pc.sum(pc.binary_length(pages["html"])).as_py())
        with tr.span("stages.extract"):
            ext = extractor(pages)
        tr.count("stages.extract.rows", ext.num_rows)
        bad = pc.sum(pc.cast(pc.invert(pc.equal(ext["text_extracted"], ext["text"])), pa.int64()))
        tr.count("stages.extract.invariant_mismatches", bad.as_py() or 0)
        with tr.span("stages.extract.explode"):
            ents = explode_entities(ext.select(["url", "entities"]))
        with tr.span("stages.geocode"):
            ents = assign_cells(ents)
        with tr.span("stages.spatial_join"):
            joined = joiner(ents)
        _join_counts(tr, joiner, joined, ents["cell_coarse"].to_numpy())
        with tr.span("pipelines.flagship.partial"):
            part = _partial(joined)
        tr.count("pipelines.flagship.partial_rows", part.num_rows)
        parts.append(part)
        if with_part:
            rows.append(joined)
            probe_cells.append(ents["cell_coarse"].to_numpy())
    with tr.span("pipelines.flagship.reduce"):
        out = _reduce(parts)
    return out, rows, probe_cells


def _run_pages_job(watchdog, seed: int, n_pages: int, blocks: int, tiles: pa.Table):
    def go():
        res = fl.run_flagship_fused(
            pg.pages_dataset(n_pages, seed=seed, override_num_blocks=blocks), tiles,
            concurrency=1, emit="assignments")
        out = fl.reduce_assignment_partials(res["partials"])
        return out, res["partials"]
    return watchdog.call(go, JOB_TIMEOUT_S)


class FlagshipFused:
    """Headline streaming job: skewed synthetic pages through the fused
    extract+join actor, map-side partial counts, in-process reduce."""

    name = "flagship_fused"
    input_unit = "pages"
    # the first job after set-up takes ~30% more CPU: it runs, is checked
    # and is left out of the medians. Of the timed jobs, the first two
    # start ~30 fewer processes and threads than the rest and take ~20%
    # less CPU; with five or more, the median is one of the rest.
    WARMUP_JOBS = 1
    MIN_JOBS = 5
    N_PAGES = 20_000
    BLOCKS = 8
    N_TILES = 64

    def __init__(self, seed: int, work_dir: str):
        self.seed, self.work_dir = seed, work_dir
        self.n_input = self.N_PAGES

    def prepare(self) -> None:
        self.tiles = pg.make_tiles_table(self.N_TILES, seed=TILE_SEED)

    def reference(self, tr) -> dict:
        assign, _, _ = page_chain(tr, self.seed, self.N_PAGES, self.tiles)
        return {"assign": assign, **_totals(assign)}

    def warm(self, watchdog) -> None:
        _run_pages_job(watchdog, self.seed, WARM_PAGES, WARM_BLOCKS, self.tiles)

    def job(self, watchdog) -> dict:
        out, partials = _run_pages_job(watchdog, self.seed, self.N_PAGES, self.BLOCKS, self.tiles)
        assign = _canon(out)
        tot = _totals(assign)
        return {"ops": 1, "failed": 0, "assign": assign, "rows": tot["join_rows"],
                "matched_rows": tot["matched_rows"], "datasets": [partials]}

    def check(self, res: dict, ref: dict) -> list[str]:
        problems = []
        if not res["assign"].equals(ref["assign"]):
            problems.append("assignments differ from the in-process chain")
        pin = _pins().get(self.name, {}).get(str(self.seed))
        if pin is not None:
            got = _totals(res["assign"])
            for k, v in pin.items():
                if got[k] != v:
                    problems.append(f"{k}={got[k]}, pinned {v}")
        return problems


class CheckpointResume:
    """Resumable partitioned write through the shuffle join plan, then a
    rerun over the complete output that must skip every partition."""

    name = "checkpoint_resume"
    input_unit = "pages"
    WARMUP_JOBS = 0
    MIN_JOBS = 1
    N_PAGES = 4_000
    BLOCKS = 2
    N_TILES = 64
    PART_LEVEL = 4  # flagship_to_checkpoint's default partition level

    def __init__(self, seed: int, work_dir: str):
        self.seed, self.work_dir = seed, work_dir
        self.n_input = self.N_PAGES
        self._k = 0

    def prepare(self) -> None:
        self.tiles = pg.make_tiles_table(self.N_TILES, seed=TILE_SEED)

    def reference(self, tr) -> dict:
        from osm2gtfs_ray.geo.cells import parent_cell

        _, rows, probe_cells = page_chain(tr, self.seed, self.N_PAGES, self.tiles, with_part=True)
        joined = pa.concat_tables(rows)
        part = parent_cell(joined["cell_coarse"].to_numpy(), COARSE_LEVEL - self.PART_LEVEL)
        joined = joined.append_column("part", pa.array(part, pa.uint64()))
        df = joined.to_pandas()
        out = os.path.join(self.work_dir, "ref_ckpt")
        shutil.rmtree(out, ignore_errors=True)
        per_part = {}
        for key, g in df.groupby("part"):
            with tr.span("state.lineage.write"):
                rec = lineage.write_partition(g, out, key)
            per_part[str(key)] = rec["rows"]
        with tr.span("state.lineage.resume"):
            lineage.done_partitions(out)
        if not isinstance(tr, NullTracer):
            self._shuffle_counts(tr, np.concatenate(probe_cells))
        return {"join_rows": int(joined.num_rows), "per_part": per_part}

    def _shuffle_counts(self, tr, probe_cells: np.ndarray) -> None:
        """Rows the shuffle plan exchanges, its largest group and its hot
        cells, from the probe rows and the public replication helpers."""
        tiles_side = sj.replicate_tiles_to_cells(self.tiles)["cell_coarse"].to_numpy()
        centers = sj.replicate_centers_to_cells(self.tiles)["cell_coarse"].to_numpy()
        tr.count("stages.spatial_join.shuffle_rows", len(probe_cells) + len(tiles_side) + len(centers))
        per_cell = pd.Series(probe_cells).value_counts()
        group = per_cell.add(pd.Series(tiles_side).value_counts(), fill_value=0).add(
            pd.Series(centers).value_counts(), fill_value=0)
        tr.count("stages.spatial_join.max_group_rows", float(group.max()))
        thr = inspect.signature(sj.spatial_join_shuffle).parameters["hot_threshold"].default
        tr.count("stages.spatial_join.hot_cells", int((per_cell > thr).sum()))

    def _run(self, watchdog, out: str, n_pages: int | None = None):
        def go():
            return fl.flagship_to_checkpoint(
                pg.pages_dataset(n_pages or self.N_PAGES, seed=self.seed,
                                 override_num_blocks=self.BLOCKS),
                self.tiles, out, concurrency=1, join_plan="shuffle", resume=True)
        return watchdog.call(go, JOB_TIMEOUT_S)

    def warm(self, watchdog) -> None:
        """A small job of the same plan, so that the workers its shuffle
        tasks start are there before the first timed job."""
        out = os.path.join(self.work_dir, "warm")
        shutil.rmtree(out, ignore_errors=True)
        self._run(watchdog, out, WARM_PAGES)
        shutil.rmtree(out, ignore_errors=True)

    def job(self, watchdog) -> dict:
        self._k += 1
        out = os.path.join(self.work_dir, f"ckpt{self._k}")
        shutil.rmtree(out, ignore_errors=True)
        fresh = self._run(watchdog, out)
        done_before = lineage.done_partitions(out)
        t0 = time.perf_counter()
        resumed = self._run(watchdog, out)
        resume_s = time.perf_counter() - t0
        written = fresh[~fresh["skipped"]] if "skipped" in fresh else fresh
        rewritten = int((~resumed["skipped"]).sum()) if len(resumed) else 0
        nbytes = sum(os.path.getsize(os.path.join(d, f))
                     for d, _, fs in os.walk(out) for f in fs)
        return {"ops": 2, "failed": 0, "out": out, "fresh": fresh, "resumed": resumed,
                "rows": int(written["rows"].sum()), "resume_s": resume_s,
                "partitions_written": len(written), "partitions_skipped": len(done_before) - rewritten,
                "partitions_rewritten": rewritten, "bytes_written": nbytes,
                "write_s": float(written["write_sec"].sum()), "datasets": []}

    def check(self, res: dict, ref: dict) -> list[str]:
        problems = []
        fresh = res["fresh"]
        if int(fresh["rows"].sum()) != ref["join_rows"]:
            problems.append(f"manifest rows {int(fresh['rows'].sum())} != join rows {ref['join_rows']}")
        got = {str(k): int(v) for k, v in zip(fresh["partition"], fresh["rows"])}
        if got != ref["per_part"]:
            problems.append("rows per partition differ from the in-process chain")
        if res["partitions_rewritten"] != 0:
            problems.append(f"resume rewrote {res['partitions_rewritten']} partitions")
        if res["partitions_skipped"] != len(ref["per_part"]):
            problems.append(f"resume skipped {res['partitions_skipped']} of {len(ref['per_part'])}")
        for key in lineage.done_partitions(res["out"]):
            pdir = lineage.partition_dir(res["out"], key)
            with open(os.path.join(pdir, lineage.LINEAGE_FILE)) as f:
                rec = json.load(f)
            df = pd.read_parquet(os.path.join(pdir, "data.parquet"))
            if rec["content_hash"] != lineage._content_hash(df) or rec["rows"] != len(df):
                problems.append(f"partition {key}: lineage record does not match its data")
        pin = _pins().get(self.name, {}).get(str(self.seed))
        if pin is not None and pin["join_rows"] != int(fresh["rows"].sum()):
            problems.append(f"join rows {int(fresh['rows'].sum())}, pinned {pin['join_rows']}")
        return problems


MINHASH_DEFAULT_SNAPSHOT = "/tmp/graft_minhash_cand_pairs"


def _to_pandas(res):
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas(), res
    if isinstance(res, pa.Table):
        return res.to_pandas(), None
    return res, None


def compare_frames(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    """Same column names, row count and order-insensitive values."""
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return [f"columns {sorted(ray_df.columns)} != {sorted(sql_df.columns)}"]
    if len(ray_df) != len(sql_df):
        return [f"rows {len(ray_df)} != {len(sql_df)}"]

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)

    a, b = canon(ray_df), canon(sql_df)
    problems = []
    for col in a.columns:
        av, bv = a[col], b[col]
        if av.dtype == object or bv.dtype == object:
            eq = (av.fillna("\0N") == bv.fillna("\0N")).to_numpy()
        elif av.dtype.kind == "f" or bv.dtype.kind == "f":
            # float sums differ in the last digits with summation order
            eq = np.isclose(av.to_numpy(float), bv.to_numpy(float), rtol=1e-9, atol=1e-9,
                            equal_nan=True)
        else:
            eq = av.fillna(-(2**60)).to_numpy() == bv.fillna(-(2**60)).to_numpy()
        if (~eq).any():
            problems.append(f"column {col}: {int((~eq).sum())} values differ")
    return problems


class QueryMix:
    """Thirteen short registry queries: per-job planning and scheduling
    dominate; the only workload that reaches ops/ and the *_queries
    pipelines."""

    name = "query_mix"
    input_unit = "queries"
    # the first pass starts ~20% more processes and threads and takes ~25%
    # more CPU than the next: it runs, is checked and is left out
    WARMUP_JOBS = 1
    MIN_JOBS = 2
    N_EVENTS = 4_000
    N_LINEITEM = 8_000

    def __init__(self, seed: int, work_dir: str):
        import __ray_entry__ as entry
        from osm2gtfs_ray.pipelines import sim_queries

        self.seed, self.work_dir = seed, work_dir
        self.sf_dir = os.path.join(work_dir, "tables")
        # the minhash query snapshots its candidate pairs for its oracle;
        # keep that file inside the run's work directory
        snap = os.path.join(work_dir, "minhash_snapshot")
        sim_queries.MINHASH_CAND_SNAPSHOT = snap
        registry = entry.queries()
        sqls = entry.oracle_sql()
        self.fns = {q: registry[q] for q in QUERIES}
        self.sqls = {q: sqls[q].replace(MINHASH_DEFAULT_SNAPSHOT, snap) for q in QUERIES}
        stray = [q for q, s in self.sqls.items() if "/tmp/" in s]
        if stray:
            raise RuntimeError(f"oracle SQL reads outside the work directory: {stray}")
        self.n_input = len(QUERIES)

    def prepare(self) -> None:
        self.table_names = write_tables(self.sf_dir, self.seed, self.N_EVENTS, self.N_LINEITEM)

    def reference(self, tr) -> dict:
        """No in-process chain: each query is checked against its oracle."""
        return {}

    def warm(self, watchdog) -> None:
        tiles = pg.make_tiles_table(64, seed=TILE_SEED)
        _run_pages_job(watchdog, self.seed, WARM_PAGES, WARM_BLOCKS, tiles)

    def job(self, watchdog) -> dict:
        times, cpu, nfork, frames, datasets, failed, errors = {}, {}, {}, {}, [], 0, {}
        for q in QUERIES:
            f0, c0, t0 = forks(), busy_cpu_s(), time.perf_counter()
            try:
                df, ds = watchdog.call(lambda: _to_pandas(self.fns[q](self.sf_dir)), QUERY_TIMEOUT_S)
            except Exception as e:  # one failing query must not stop the mix
                failed += 1
                errors[q] = f"{type(e).__name__}: {e}"
                times[q] = time.perf_counter() - t0
                continue
            times[q] = time.perf_counter() - t0
            cpu[q] = busy_cpu_s() - c0
            nfork[q] = forks() - f0
            frames[q] = df
            if ds is not None:
                datasets.append(ds)
        return {"ops": len(QUERIES), "failed": failed, "times": times, "cpu": cpu,
                "query_forks": nfork, "errors": errors,
                "rows": int(sum(len(f) for f in frames.values())), "datasets": datasets,
                "frames": frames}

    def _oracle(self, frames: dict) -> dict:
        import duckdb

        con = duckdb.connect()
        try:
            for t in self.table_names:
                path = os.path.join(self.sf_dir, f"{t}.parquet")
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
            problems = {}
            for q, df in frames.items():
                p = compare_frames(df, con.execute(self.sqls[q]).arrow().to_pandas())
                if p:
                    problems[q] = p
            return problems
        finally:
            con.close()

    def check(self, res: dict, ref: dict) -> list[str]:
        """Runs right after its pass: the minhash oracle reads the
        snapshot that the pass wrote and the next pass rewrites."""
        out = [f"{q}: {e}" for q, e in res["errors"].items()]
        out += [f"{q}: {'; '.join(p)}" for q, p in self._oracle(res.pop("frames")).items()]
        return out


WORKLOADS = {w.name: w for w in (FlagshipFused, CheckpointResume, QueryMix)}
