"""Seeded benchmark inputs: the table, its queries and their true selectivities.

Everything the accuracy figures depend on is drawn from
:data:`~spec.DATA_SEED` and is the same on every run, so it is generated
once per checkout and kept under the output directory, keyed by the
workload parameters and a digest of the program files that generate it.
True selectivities come from ``Table.selectivity`` scans, done here and
never inside a timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro.datasets.synthetic import gunopulos_synthetic
from repro.db import Table
from repro.geometry import Box
from repro.workloads.generators import generate_workload

from . import spec

#: Bumped when the recipe below changes, so stale inputs are rebuilt.
RECIPE_VERSION = 2

#: Program files whose behaviour shapes the inputs.
_GENERATOR_FILES = (
    "repro/datasets/synthetic.py",
    "repro/workloads/generators.py",
    "repro/db/table.py",
    "repro/geometry.py",
)

#: Rows the DT bisection counts against (a speed knob of generate_workload).
_SEARCH_ROWS = 20_000

#: Stream length covers the longest run the contract allows (60 s).
_MAX_STREAM_SECONDS = 60


@dataclass
class Inputs:
    rows: np.ndarray
    train_low: np.ndarray
    train_high: np.ndarray
    train_truth: np.ndarray
    probe_low: np.ndarray
    probe_high: np.ndarray
    probe_truth: np.ndarray
    pool_low: np.ndarray
    pool_high: np.ndarray
    stream_low: np.ndarray
    stream_high: np.ndarray
    stream_truth: np.ndarray
    tail_low: np.ndarray
    tail_high: np.ndarray
    tail_truth: np.ndarray

    def boxes(self, name: str) -> List[Box]:
        """The ``train``/``probe``/``pool``/``stream``/``tail`` queries as boxes."""
        low, high = getattr(self, f"{name}_low"), getattr(self, f"{name}_high")
        return [Box(lo, hi) for lo, hi in zip(low, high)]


def _bounds(queries: List[Box], d: int):
    if not queries:
        return np.empty((0, d)), np.empty((0, d))
    return (np.stack([q.low for q in queries]),
            np.stack([q.high for q in queries]))


def _truths(table: Table, queries: List[Box]) -> np.ndarray:
    return np.array([table.selectivity(q) for q in queries], dtype=np.float64)


def generate(workload: spec.Workload, rows: int) -> Inputs:
    """Build every input of ``workload`` from :data:`spec.DATA_SEED`."""
    d = workload.dimensions
    rng = np.random.default_rng(spec.DATA_SEED)
    data = gunopulos_synthetic(rows, d, seed=spec.DATA_SEED)
    table = Table(d, initial_rows=data)
    search = data[rng.choice(rows, size=min(rows, _SEARCH_ROWS), replace=False)]

    def queries(kind: str, count: int) -> List[Box]:
        return generate_workload(data, kind, count, rng, search_data=search)

    train = queries("DT", workload.training_size)
    pool = queries(workload.query_kind, workload.pool_size)
    # Near-empty probe queries would measure the Q-error floor, not the
    # model, so the probe keeps only queries above a selectivity minimum.
    probe: List[Box] = []
    probe_truth: List[float] = []
    for _ in range(32):
        candidates = queries(workload.probe_kind, workload.probe_size)
        for query, truth in zip(candidates, _truths(table, candidates)):
            if truth > 0.0 and truth >= workload.probe_min_selectivity:
                probe.append(query)
                probe_truth.append(truth)
        if len(probe) >= workload.probe_size:
            break
    else:
        raise RuntimeError(f"{workload.name}: too few probe queries qualify")
    del probe[workload.probe_size:], probe_truth[workload.probe_size:]
    stream: List[Box] = []
    if workload.feedback_rate is not None:
        stream = queries("DV", int(workload.feedback_rate * _MAX_STREAM_SECONDS))
    # Drawn last, so the queries above stay those of the first recipe.
    tail = queries(workload.probe_kind, workload.tail_feedbacks)
    fields = {
        "rows": data,
        "train_truth": _truths(table, train),
        "probe_truth": np.asarray(probe_truth),
        "stream_truth": _truths(table, stream),
        "tail_truth": _truths(table, tail),
    }
    for name, boxes in (("train", train), ("probe", probe), ("pool", pool),
                        ("stream", stream), ("tail", tail)):
        fields[f"{name}_low"], fields[f"{name}_high"] = _bounds(boxes, d)
    return Inputs(**fields)


def _key(workload: spec.Workload, rows: int, src: Path) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(
        {"params": workload.params(), "rows": rows, "seed": spec.DATA_SEED,
         "recipe": RECIPE_VERSION},
        sort_keys=True,
    ).encode())
    for name in _GENERATOR_FILES:
        digest.update((src / name).read_bytes())
    return digest.hexdigest()[:16]


def load(workload: spec.Workload, rows: int, cache_dir: Path, src: Path) -> Inputs:
    """The workload's inputs, from ``cache_dir`` when built there before."""
    path = cache_dir / f"{workload.name}-{rows}-{_key(workload, rows, src)}.npz"
    if path.exists():
        with np.load(path) as saved:
            return Inputs(**{name: saved[name] for name in saved.files})
    inputs = generate(workload, rows)
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(partial, **vars(inputs))
    os.replace(partial, path)
    return inputs
