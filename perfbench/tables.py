"""The query mix: its registry queries and a seeded generator of the
tables they read.

Same column names and types as the registry's star-schema + events +
corpus tables; sizes are set by the caller. Every value is a function
of the seed, so one seed gives byte-identical parquet files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
# the registry queries of the query mix; orders_with_lineitem is left
# out because its Dataset.join hangs at 4 logical CPUs, and pagerank
# because about one pass in twenty aborted the process in Ray's
# reference counter while it ran (README.md)
QUERIES = [
    "nearest_events", "cell_histogram", "tile_geometry", "snap_points", "hotspots",
    "knn_graph", "sessionize", "exact_dedup", "minhash_pairs",
    "pricing_summary", "cell_pyramid", "simplify_shapes", "geofence_transitions",
]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
LANGS = ["de", "en", "es", "fr", "zh"]
EPOCH_2024 = np.datetime64("2024-01-01T00:00:00", "us")
EPOCH_1995 = np.datetime64("1995-01-01T00:00:00", "us")


def _events(rng: np.random.Generator, n: int) -> pa.Table:
    n_users = max(2, n // 66)
    # whole seconds: sessionize truncates to seconds where its oracle
    # does not, so sub-second gaps at the 30-minute boundary disagree
    ts = EPOCH_2024 + (rng.integers(0, 30 * 86_400, n) * 1_000_000).astype("timedelta64[us]")
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, n_users, n, dtype=np.int64)),
        "event_type": pa.array(np.array(EVENT_TYPES, dtype=object)[rng.integers(0, 5, n)]),
        "value": pa.array(np.round(rng.exponential(50.0, n), 2)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n)]),
    })


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    texts = []
    for i in range(n):
        r = rng.random()
        if i >= 10 and r < 0.05:  # exact duplicate of an earlier doc
            texts.append(texts[int(rng.integers(0, i))])
        elif i >= 10 and r < 0.10:  # near duplicate: one word replaced
            words = texts[int(rng.integers(0, i))].split(" ")
            words[int(rng.integers(0, len(words)))] = VOCAB[int(rng.integers(0, len(VOCAB)))]
            texts.append(" ".join(words))
        else:
            k = int(rng.integers(10, 100))
            texts.append(" ".join(np.array(VOCAB)[rng.integers(0, len(VOCAB), k)]))
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(np.array(LANGS, dtype=object)[rng.integers(0, 5, n)]),
        "source": pa.array([f"src{s}" for s in rng.integers(0, 20, n)]),
        "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
    })


def _embeddings(rng: np.random.Generator, n: int, dim: int = 64) -> pa.Table:
    e = rng.normal(size=(n, dim)).astype(np.float32)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    flat = pa.array(e.ravel(), pa.float32())
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.ListArray.from_arrays(
            pa.array(np.arange(0, n * dim + 1, dim, dtype=np.int32)), flat),
        "label": pa.array(rng.integers(0, 10, n).astype(np.int32)),
    })


def _lineitem(rng: np.random.Generator, n: int) -> pa.Table:
    qty = rng.integers(1, 51, n).astype(np.float64)
    # whole-unit prices: pricing_summary rounds 100 * sum(price * (1 - discount)),
    # which with cent prices can land on .5, where engine and oracle
    # float sums may round apart
    price = qty * rng.integers(900, 2100, n)
    ship = EPOCH_1995 + (rng.integers(0, 2500, n) * 86_400_000_000).astype("timedelta64[us]")
    return pa.table({
        "l_orderkey": pa.array(rng.integers(0, max(1, n // 4), n, dtype=np.int64)),
        "l_partkey": pa.array(rng.integers(0, 200, n, dtype=np.int64)),
        "l_suppkey": pa.array(rng.integers(0, 10, n, dtype=np.int64)),
        "l_linenumber": pa.array(rng.integers(1, 8, n).astype(np.int32)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(price),
        "l_discount": pa.array(rng.integers(0, 11, n) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"], dtype=object)[rng.integers(0, 3, n)]),
        "l_linestatus": pa.array(np.array(["F", "O"], dtype=object)[rng.integers(0, 2, n)]),
        "l_shipdate": pa.array(ship, pa.timestamp("us")),
    })


def write_tables(out_dir: str, seed: int, n_events: int, n_lineitem: int,
                 n_docs: int = 500, n_vecs: int = 500) -> list[str]:
    """Write events, documents, embeddings and lineitem parquet files
    into ``out_dir``; returns the table names."""
    os.makedirs(out_dir, exist_ok=True)
    tables = {
        "events": _events(np.random.default_rng([seed, 1]), n_events),
        "documents": _documents(np.random.default_rng([seed, 2]), n_docs),
        "embeddings": _embeddings(np.random.default_rng([seed, 3]), n_vecs),
        "lineitem": _lineitem(np.random.default_rng([seed, 4]), n_lineitem),
    }
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return list(tables)
