"""Seeded inputs of the three benchmark workloads.

Every input is a pure function of ``(workload, seed, smoke)``: the same seed
gives byte-identical rows, ChangeSets and queries.  The program under test
only ever sees the generated rows, ChangeSets and queries; the generating
networks stay on the benchmark's side, where the exact-posterior checks use
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.bayesnet.catalog import make_network
from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.sampler import forward_sample_codes
from repro.bench.masking import mask_relation
from repro.datasets.census import census_network, census_schema
from repro.relational.relation import Relation
from repro.relational.schema import Schema

WORKLOADS = ("derive_bulk", "gibbs_jobs", "serve_session")

#: The BN7 parameterization is fixed so that every seed draws rows from the
#: same network; the seed varies the rows, not the generating distribution.
BN7_NETWORK_SEED = 7

#: Input sizes per workload as (full size, smoke size).  ``infers`` x
#: ``infer_rows``, ``queries`` and ``changesets`` x ``cells`` size the read and
#: write traffic: the whole measured sequence on serve_session, and a short
#: fixed probe after the measured derives on the two derive workloads, so that
#: every workload reports every end-to-end metric.
SIZES: dict[str, dict[str, tuple[int, int]]] = {
    "derive_bulk": {"learn": (5_000, 3_000), "complete": (5_000, 200),
                    "single": (20_000, 600), "multi": (0, 0),
                    "infers": (12, 3), "infer_rows": (200, 20),
                    "queries": (4, 3), "changesets": (3, 3), "cells": (10, 4)},
    "gibbs_jobs": {"learn": (5_000, 3_000), "complete": (0, 0),
                   "single": (1_000, 60), "multi": (250, 16),
                   "infers": (12, 3), "infer_rows": (200, 20),
                   "queries": (6, 3), "changesets": (3, 3), "cells": (10, 4)},
    "serve_session": {"learn": (5_000, 3_000), "complete": (2_000, 100),
                      "single": (2_000, 120), "multi": (1_000, 30),
                      "infers": (40, 4), "infer_rows": (200, 20),
                      "queries": (4, 3), "changesets": (10, 3),
                      "cells": (10, 4)},
}

@dataclass
class Inputs:
    """Everything one workload sends, plus what its checks need."""

    workload: str
    seed: int
    schema: Schema
    network: BayesianNetwork
    learn_rows: list[list[Any]]
    #: rows of the derive request, complete rows first
    rows: list[list[Any]]
    #: per-request config: pins the Gibbs base seed
    config: dict[str, Any]
    #: read and write traffic
    infer_batches: list[list[list[Any]]] = field(default_factory=list)
    queries: list[dict[str, Any]] = field(default_factory=list)
    changesets: list[dict[str, Any]] = field(default_factory=list)

    @property
    def schema_dict(self) -> dict[str, list[Any]]:
        return {attr.name: list(attr.domain) for attr in self.schema}


def _values(schema: Schema, codes: np.ndarray) -> list[list[Any]]:
    return [list(t.values()) for t in Relation.from_codes(schema, codes)]


def _masked(schema: Schema, codes: np.ndarray, k, rng) -> list[list[Any]]:
    rel = mask_relation(Relation.from_codes(schema, codes), k, rng)
    return [list(t.values()) for t in rel]


def _sizes(workload: str, smoke: bool) -> dict[str, int]:
    return {k: v[1 if smoke else 0] for k, v in SIZES[workload].items()}


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """The seeded inputs of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")
    n = _sizes(workload, smoke)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    config: dict[str, Any] = {"seed": int(seed)}
    if workload == "gibbs_jobs":
        network = make_network("BN7", BN7_NETWORK_SEED)
        schema = network.to_schema()
    else:
        network = census_network()
        schema = census_schema()
    parts = [n[k] for k in ("learn", "complete", "single", "multi")]
    codes = forward_sample_codes(network, sum(parts), rng)
    learn, complete, single, multi = np.split(codes, np.cumsum(parts)[:-1])
    rows = (
        _values(schema, complete)
        + _masked(schema, single, 1, rng)
        + (_masked(schema, multi, [2, 3], rng) if len(multi) else [])
    )
    inputs = Inputs(
        workload=workload,
        seed=seed,
        schema=schema,
        network=network,
        learn_rows=_values(schema, learn),
        rows=rows,
        config=config,
    )
    _add_traffic(inputs, n, rng)
    return inputs


def _add_traffic(inputs: Inputs, n: dict[str, int], rng) -> None:
    """Infer batches, selection queries and ChangeSets.

    Infer rows are drawn from the database's own single-missing rows, so
    every infer CPD has a derived block to be checked against.  Queries
    rotate over the attributes and their values in a fixed order.

    ChangeSets alternate between touching only complete and single-missing
    rows (no Gibbs shard gets dirty) and touching one multi-missing row as
    well.  That row holds a multi-missing content no other row holds, and
    its new content is held by no other row either, so the update replaces
    exactly one distinct Gibbs tuple in place: the dirty Gibbs work is the
    same for every seed and ``update_s`` stays comparable across seeds.  A
    multi-missing row rewritten into a copy of another row instead leaves
    the distinct tuples unchanged, dirties nothing, and hits the delta fault
    recorded in CHANGES.md (FOUND); ``test_smoke.py`` demonstrates it.

    No row is touched by two ChangeSets, and no new multi-missing content
    was ever held before, so these properties hold for every subset of the
    ChangeSets applied in order to the initial table: the derive workloads
    spread their ChangeSets over several fresh servers.
    """
    schema = inputs.schema
    rows = inputs.rows
    missing = [sum(v == "?" for v in row) for row in rows]
    single_idx = [i for i, m in enumerate(missing) if m == 1]
    multi_idx = [i for i, m in enumerate(missing) if m >= 2]
    plain_idx = [i for i, m in enumerate(missing) if m <= 1]
    for _ in range(n["infers"]):
        picks = rng.choice(single_idx, size=n["infer_rows"], replace=True)
        inputs.infer_batches.append([list(rows[int(i)]) for i in picks])
    for q in range(n["queries"]):
        attr = schema[q % len(schema)]
        value = attr.domain[(q // len(schema)) % attr.cardinality]
        inputs.queries.append(
            {
                "type": "selection",
                "where": {"op": "eq", "attr": attr.name, "value": value},
                "project": None,
            }
        )
    current = [list(row) for row in rows]
    held: dict[tuple, int] = {}
    for i in multi_idx:
        held[tuple(rows[i])] = held.get(tuple(rows[i]), 0) + 1
    untouched = set(range(len(rows)))
    for k in range(n["changesets"]):
        touches_multi = k % 2 == 1 and bool(multi_idx)
        plain = rng.choice(
            sorted(untouched.intersection(plain_idx)),
            size=n["cells"] - touches_multi, replace=False,
        )
        ops = [_cell_update(current, int(i), schema, rng) for i in plain]
        if touches_multi:
            ops.append(_fresh_multi_update(
                current, sorted(untouched.intersection(multi_idx)), held,
                schema, rng,
            ))
        untouched.difference_update(op["index"] for op in ops)
        inputs.changesets.append({"ops": ops})


def _op(current, index: int, pos: int, schema: Schema, value) -> dict:
    current[index][pos] = value
    return {"op": "update", "index": index,
            "set": {schema[pos].name: value}, "source": "bench"}


def _cell_update(current, index: int, schema: Schema, rng) -> dict:
    """Set one observed cell of a row to another value of its domain."""
    row = current[index]
    pos = int(rng.choice([p for p, v in enumerate(row) if v != "?"]))
    others = [v for v in schema[pos].domain if v != row[pos]]
    return _op(current, index, pos, schema, others[int(rng.integers(len(others)))])


def _fresh_multi_update(current, multi_idx, held, schema: Schema, rng) -> dict:
    """Rewrite a uniquely-held multi-missing content into a never-held one.

    ``held`` counts the initial table's multi-missing contents plus every
    content a previous ChangeSet created; the new content joins it.
    """
    for index in rng.permutation(multi_idx):
        row = current[int(index)]
        if held[tuple(row)] != 1:
            continue
        moves = [
            (p, v)
            for p, old in enumerate(row) if old != "?"
            for v in schema[p].domain
            if v != old and tuple(row[:p]) + (v,) + tuple(row[p + 1:]) not in held
        ]
        if moves:
            pos, value = moves[int(rng.integers(len(moves)))]
            op = _op(current, int(index), pos, schema, value)
            held[tuple(current[int(index)])] = 1
            return op
    raise ValueError("no multi-missing row can take a fresh content")


def replay_changesets(
    rows: list[list[Any]], changesets: list[dict[str, Any]], names: list[str]
) -> list[list[Any]]:
    """The base table after the ChangeSets, replayed by the benchmark itself.

    Only cell updates on distinct rows occur, so no trust resolution is
    involved: each op overwrites one cell of a pre-apply row index.
    """
    out = [list(row) for row in rows]
    position = {name: i for i, name in enumerate(names)}
    for cs in changesets:
        for op in cs["ops"]:
            for name, value in op["set"].items():
                out[op["index"]][position[name]] = value
    return out
