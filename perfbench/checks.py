"""Output checks that hold for every admissible derivation.

A seeded derive has many admissible outcomes, so nothing here compares
against a stored copy of an earlier output.  The checks are properties the
method must have (valid blocks, one per incomplete row, identical rows get
identical Algorithm 2 distributions), accuracy against exact posteriors of
the generating network, and internal consistency between endpoints (infer
against derive, query answers against the fetched blocks, delta updates
against a from-scratch derive, process executor against serial).

Every check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Any, Sequence

import numpy as np

from repro.bayesnet.elimination import joint_posterior
from repro.bayesnet.network import BayesianNetwork
from repro.relational.schema import Schema

MISSING = "?"


class CheckFailed(AssertionError):
    """A benchmark output check did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def missing_positions(row: Sequence[Any]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(row) if v == MISSING)


def block_distribution(block: dict[str, Any]) -> dict[tuple, float]:
    """A wire block as ``{missing-values outcome: probability}``."""
    miss = missing_positions(block["base"])
    out: dict[tuple, float] = {}
    for completion in block["completions"]:
        outcome = tuple(completion["values"][p] for p in miss)
        require(outcome not in out, f"block {block['id']}: duplicate outcome")
        out[outcome] = completion["prob"]
    return out


def check_database(
    schema: Schema,
    rows: Sequence[Sequence[Any]],
    response: dict[str, Any],
) -> None:
    """Structural checks on a derive (or update) response with blocks."""
    incomplete = [list(r) for r in rows if MISSING in r]
    require(
        response["num_certain"] == len(rows) - len(incomplete),
        f"num_certain {response['num_certain']} != "
        f"{len(rows) - len(incomplete)} complete rows",
    )
    blocks = response["blocks"]
    require(
        response["num_blocks"] == len(incomplete) == len(blocks),
        f"{len(blocks)} blocks for {len(incomplete)} incomplete rows",
    )
    domains = [attr.domain for attr in schema]
    spaces: dict[tuple[int, ...], set] = {}
    seen: dict[tuple, list[float]] = {}
    for block, row in zip(blocks, incomplete):
        require(block["base"] == row, f"block {block['id']}: base != its row")
        miss = missing_positions(row)
        dist = block_distribution(block)
        for completion in block["completions"]:
            values = completion["values"]
            require(
                all(values[p] == row[p] for p in range(len(row)) if p not in miss),
                f"block {block['id']}: completion changes an observed value",
            )
        probs = list(dist.values())
        require(
            all(p >= 0.0 for p in probs),
            f"block {block['id']}: negative probability",
        )
        require(
            abs(math.fsum(probs) - 1.0) <= 1e-9,
            f"block {block['id']}: probabilities sum to {math.fsum(probs)}",
        )
        space = spaces.get(miss)
        if space is None:
            space = spaces[miss] = set(product(*(domains[p] for p in miss)))
        require(
            set(dist) == space,
            f"block {block['id']}: outcomes do not span the missing domains",
        )
        if len(miss) == 1:
            key = tuple(row)
            first = seen.setdefault(key, probs)
            require(
                first == probs,
                f"block {block['id']}: identical single-missing rows got "
                "different distributions",
            )


def same_blocks(a: Sequence[dict], b: Sequence[dict], what: str) -> None:
    """Two block lists are identical (bases, outcomes and probabilities)."""
    require(len(a) == len(b), f"{what}: {len(a)} != {len(b)} blocks")
    for x, y in zip(a, b):
        require(
            x["base"] == y["base"] and x["completions"] == y["completions"],
            f"{what}: block {x['id']} differs",
        )


# -- accuracy against exact posteriors --------------------------------------


class ExactPosteriors:
    """Exact ``P(missing | observed)`` of the generating network, memoized.

    Rows with the same missing positions and evidence share one variable
    elimination, so large single-missing workloads cost one elimination per
    distinct evidence pattern.
    """

    def __init__(self, network: BayesianNetwork, schema: Schema):
        self.network = network
        self.schema = schema
        self._cache: dict[tuple, np.ndarray] = {}
        self._priors: dict[tuple[int, ...], np.ndarray] = {}

    def _codes(self, row: Sequence[Any]) -> dict[str, int]:
        return {
            attr.name: attr.domain.index(v)
            for attr, v in zip(self.schema, row)
            if v != MISSING
        }

    def exact(self, row: Sequence[Any]) -> np.ndarray:
        """Exact joint posterior over the missing values, product order."""
        key = tuple(row)
        hit = self._cache.get(key)
        if hit is None:
            names = [self.schema[p].name for p in missing_positions(row)]
            dist = joint_posterior(self.network, names, self._codes(row))
            hit = self._cache[key] = np.asarray(dist.probs, dtype=float)
        return hit

    def prior(self, miss: tuple[int, ...]) -> np.ndarray:
        """Prior marginal of the missing attributes, with no evidence."""
        hit = self._priors.get(miss)
        if hit is None:
            names = [self.schema[p].name for p in miss]
            dist = joint_posterior(self.network, names, {})
            hit = self._priors[miss] = np.asarray(dist.probs, dtype=float)
        return hit


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def accuracy(
    exact: ExactPosteriors,
    blocks: Sequence[dict[str, Any]],
    num_missing: str,
) -> tuple[float, float, int]:
    """Mean KL(exact||derived) and KL(exact||prior) over some blocks.

    ``num_missing`` selects ``"single"`` or ``"multi"`` blocks.  Outcomes are
    compared in ``itertools.product`` order of the missing domains, the
    order :func:`~repro.bayesnet.elimination.joint_posterior` reports.
    """
    domains = [attr.domain for attr in exact.schema]
    kl_derived, kl_prior = [], []
    for block in blocks:
        miss = missing_positions(block["base"])
        if (len(miss) == 1) != (num_missing == "single"):
            continue
        dist = block_distribution(block)
        derived = np.array(
            [dist[o] for o in product(*(domains[p] for p in miss))]
        )
        truth = exact.exact(block["base"])
        kl_derived.append(_kl(truth, derived))
        kl_prior.append(_kl(truth, exact.prior(miss)))
    require(kl_derived, f"no {num_missing}-missing blocks to score")
    return float(np.mean(kl_derived)), float(np.mean(kl_prior)), len(kl_derived)


def check_accuracy(
    exact: ExactPosteriors,
    blocks: Sequence[dict[str, Any]],
    num_missing: str,
    label: str,
) -> str:
    """Derived blocks must beat the prior marginal against the exact posterior."""
    derived, prior, n = accuracy(exact, blocks, num_missing)
    require(
        derived < prior,
        f"{label}: mean KL(exact||derived) {derived:.4f} is not below "
        f"KL(exact||prior) {prior:.4f} over {n} rows",
    )
    return f"{label}: KL derived {derived:.4f} < prior {prior:.4f} (n={n})"


# -- serve_session consistency ----------------------------------------------


def check_infer(
    batch: Sequence[Sequence[Any]],
    response: dict[str, Any],
    schema: Schema,
    single_blocks: dict[tuple, dict[tuple, float]],
) -> None:
    """Each infer CPD equals the derived block of the same row."""
    cpds = response["cpds"]
    require(len(cpds) == len(batch), f"{len(cpds)} CPDs for {len(batch)} rows")
    for row, cpd in zip(batch, cpds):
        (pos,) = missing_positions(row)
        require(cpd["attribute"] == schema[pos].name, "infer: wrong attribute")
        block = single_blocks[tuple(row)]
        require(
            [(o,) for o in cpd["outcomes"]] == list(block),
            "infer: outcomes differ from the derived block",
        )
        require(
            np.allclose(cpd["probs"], list(block.values()), rtol=0, atol=1e-12),
            "infer: CPD differs from the derived block of the same row",
        )


def check_query(
    query: dict[str, Any],
    response: dict[str, Any],
    schema: Schema,
    rows: Sequence[Sequence[Any]],
    blocks: Sequence[dict[str, Any]],
) -> None:
    """Selection answers equal 1 - prod(1 - p_i) over independent blocks.

    A value row held by a certain (complete) tuple has probability 1.
    """
    where = query["where"]
    pos = [attr.name for attr in schema].index(where["attr"])
    value = where["value"]
    certain = {tuple(r) for r in rows if MISSING not in r}
    absent: dict[tuple, float] = {}
    for block in blocks:
        for completion in block["completions"]:
            values = tuple(completion["values"])
            if values[pos] != value or values in certain:
                continue
            absent[values] = absent.get(values, 1.0) * (1.0 - completion["prob"])
    expected = {v: 1.0 for v in certain if v[pos] == value}
    expected.update({v: 1.0 - q for v, q in absent.items() if 1.0 - q > 0.0})
    got = {tuple(r["values"]): r["probability"] for r in response["results"]}
    require(
        set(got) == set(expected),
        f"query {where}: {len(got)} result rows, expected {len(expected)}",
    )
    for values, p in got.items():
        require(
            abs(p - expected[values]) <= 1e-9,
            f"query {where}: P{values} = {p}, recomputed {expected[values]}",
        )
