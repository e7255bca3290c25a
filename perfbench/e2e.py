"""The untraced end-to-end runs: one workload against a real server process.

Each run sets a server up ``SETUPS`` times (``setup_s`` is the median) and
measures:

* ``derive_bulk`` / ``gibbs_jobs``: derives in a closed loop for a third of
  ``seconds`` on each server right after its set-up, then a third of a
  short fixed probe of infers, queries and ChangeSets on that server's
  derived database, so that every kind of sample spreads over the run;
* ``serve_session``: the fixed interleaved sequence of infers, queries and
  ChangeSets, in whole rounds until ``seconds`` have passed; its
  ``derive_s`` is the median of the initial derive of each set-up and the
  from-scratch derive of the updated rows at the end.

The workload's output checks run at the end of every run.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from checks import (
    ExactPosteriors,
    block_distribution,
    check_accuracy,
    check_database,
    check_infer,
    check_query,
    require,
    same_blocks,
)
from harness import Client, RequestFailed, Server, encode
from workloads import Inputs, replay_changesets

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def _setup(
    inputs: Inputs,
    root: Path,
    workdir: Path,
    server_args: Callable[[int], list[str]],
    warm_up: Callable[[Client], tuple[float, bytes]],
    gen_s: float,
    measure: Callable[[Client, int, bytes], None] = lambda *args: None,
) -> tuple[Server, Client, bytes, float, list[float]]:
    """``SETUPS`` fresh servers: start, learn, warm up; keep the last one.

    ``measure(client, i, warm_body)`` runs on server ``i`` once its set-up
    is timed, so that the measured requests spread over the whole run and
    over several server processes instead of one stretch of one process.
    Returns the last server, its client, its warm-up body, the median
    set-up time, and the warm-up request latencies.
    """
    times, warm_latencies = [], []
    learn = encode({"schema": inputs.schema_dict, "rows": inputs.learn_rows})
    for i in range(SETUPS):
        start = time.perf_counter()
        server = Server(root, workdir, server_args(i))
        client = Client(server.port)
        try:
            client.call("POST", "/v1/learn", learn)
            latency, warm = warm_up(client)
            times.append(gen_s + time.perf_counter() - start)
            warm_latencies.append(latency)
            measure(client, i, warm)
        except BaseException:
            client.close()
            server.stop()
            raise
        if i < SETUPS - 1:
            client.close()
            server.stop()
    return server, client, warm, statistics.median(times), warm_latencies


@dataclass
class Traffic:
    infer_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    update_s: float = 0.0
    shards: list[int] = field(default_factory=list)
    blocks: list[dict[str, Any]] = field(default_factory=list)


def send_traffic(
    client: Client, inputs: Inputs, first: dict[str, Any], interleave: bool,
    out: "RunResult", share: tuple[int, int] = (0, 1),
) -> Traffic:
    """Send the workload's infers, queries and ChangeSets, checking each.

    Interleaved (serve_session), round ``r`` sends its share of infers and
    queries, then ChangeSet ``r``, then fetches the updated blocks untimed
    so the next round's queries can be recomputed.  Otherwise (the probe
    after the derive workloads) all reads precede all writes, and the
    queries are checked against the derived database ``first``.
    ``share=(i, n)`` sends only the infers, queries and ChangeSets whose
    index is ``i`` modulo ``n``; no two ChangeSets touch the same row (see
    ``workloads``), so any subset of them applies to a fresh database.
    """
    names = [attr.name for attr in inputs.schema]
    rounds = len(inputs.changesets) if interleave else 1
    part, parts = share
    require(not interleave or parts == 1, "an interleaved run has no shares")
    changesets = inputs.changesets[part::parts]
    single_blocks = {
        tuple(b["base"]): block_distribution(b)
        for b in first["blocks"]
        if b["base"].count("?") == 1
    }
    # Updates re-derive under the session's config unless the request says
    # otherwise; send the derive's config so dirty shards run the same
    # Gibbs settings as a from-scratch derive.
    fetch = encode({"changes": {"ops": []}, "config": inputs.config,
                    "include_blocks": True})
    got = Traffic(blocks=first["blocks"])
    applied = 0
    for r in range(rounds):
        rows_now = replay_changesets(inputs.rows, changesets[:applied], names)
        step = rounds * parts
        for i in range(r + part, len(inputs.infer_batches), step):
            sent = _attempt(out, lambda: client.post(
                "/v1/infer", {"rows": inputs.infer_batches[i]}))
            if sent is not None:
                check_infer(inputs.infer_batches[i], json.loads(sent[1]),
                            inputs.schema, single_blocks)
                got.infer_s.append(sent[0])
        for i in range(r + part, len(inputs.queries), step):
            sent = _attempt(out, lambda: client.post(
                "/v1/query", {"query": inputs.queries[i]}))
            if sent is not None:
                check_query(inputs.queries[i], json.loads(sent[1]),
                            inputs.schema, rows_now, got.blocks)
                got.query_s.append(sent[0])
        batch = changesets[r:r + 1] if interleave else changesets
        for changes in batch:
            sent = _attempt(out, lambda: client.post(
                "/v1/update", {"changes": changes, "config": inputs.config}))
            # A failed update leaves the table unknown: the replay checks
            # below and at the end report it.
            require(sent is not None, "update failed; the replay no longer holds")
            got.update_s += sent[0]
            applied += 1
            response = json.loads(sent[1])
            rows_now = replay_changesets(inputs.rows, changesets[:applied], names)
            incomplete = sum("?" in row for row in rows_now)
            require(
                response["num_blocks"] == incomplete
                and response["num_certain"] == len(rows_now) - incomplete,
                "update: block counts differ from the replayed table",
            )
            got.shards.append(response["executed_shards"])
        # Fetch the updated blocks (untimed) when a later query needs them,
        # and once at the end for the delta-versus-scratch check.
        if interleave and (r + 1 < len(inputs.queries) or r + 1 == rounds):
            got.blocks = json.loads(client.call("POST", "/v1/update", fetch)[1])[
                "blocks"
            ]
    return got


def _traffic_metrics(out: RunResult, traffic: Traffic) -> None:
    out.metrics["infer_ms"] = (statistics.median(traffic.infer_s) * 1e3, "ms")
    out.metrics["query_ms"] = (statistics.median(traffic.query_s) * 1e3, "ms")
    out.metrics["update_s"] = (traffic.update_s, "s")
    out.notes.append(f"shards executed per ChangeSet {traffic.shards}")


def _derive_loop(
    out: RunResult, seconds: float, send: Callable[[], tuple[float, bytes]],
    check: Callable[[bytes], None], latencies: list[float],
) -> None:
    """Derive in a closed loop for ``seconds`` (at least once)."""
    begin = time.perf_counter()
    done = len(latencies)
    while len(latencies) == done or time.perf_counter() - begin < seconds:
        sent = _attempt(out, send)
        if sent is not None:
            check(sent[1])
            latencies.append(sent[0])


def _attempt(out: RunResult, send: Callable[[], Any]) -> Any:
    """One measured operation; a non-200 reply counts as failed."""
    out.attempted += 1
    try:
        return send()
    except RequestFailed as exc:
        out.failed += 1
        out.notes.append(f"failed: {exc}")
        return None


def derive_bulk(inputs: Inputs, seconds: float, root: Path, workdir: Path,
                gen_s: float) -> RunResult:
    out = RunResult()
    body = encode(
        {"rows": inputs.rows, "model": "default", "include_blocks": True}
    )
    latencies: list[float] = []
    warm_bodies: list[bytes] = []

    def warm_up(client: Client) -> tuple[float, bytes]:
        sent = client.call("POST", "/v1/derive", body)
        warm_bodies.append(sent[1])
        return sent

    shares: list[Traffic] = []

    def measure(client: Client, i: int, warm: bytes) -> None:
        # Algorithm 2 draws no random numbers: every derive of the same rows
        # must return the first warm-up's bytes.
        _derive_loop(
            out, seconds / SETUPS,
            lambda: client.call("POST", "/v1/derive", body),
            lambda data: require(data == warm_bodies[0],
                                 "derive differs from warm-up"),
            latencies,
        )
        shares.append(send_traffic(client, inputs, json.loads(warm), False,
                                   out, (i, SETUPS)))

    server, client, warm, setup_s, _ = _setup(
        inputs, root, workdir, lambda i: [], warm_up, gen_s, measure
    )
    response = json.loads(warm)
    try:
        out.metrics["peak_rss_mb"] = (server.peak_rss_mb(), "MB")
    finally:
        client.close()
        server.stop()
    require(all(w == warm for w in warm_bodies), "warm-ups differ")
    check_database(inputs.schema, inputs.rows, response)
    exact = ExactPosteriors(inputs.network, inputs.schema)
    out.notes.append(
        check_accuracy(exact, response["blocks"], "single", "census single")
    )
    out.notes.append(f"response_mb {len(warm) / 1e6:.2f}")
    out.metrics["derive_s"] = (statistics.median(latencies), "s")
    _traffic_metrics(out, _merge(shares))
    out.metrics["setup_s"] = (setup_s, "s")
    return out


def _merge(shares: list[Traffic]) -> Traffic:
    """One probe's traffic from its shares: samples pooled, updates summed."""
    return Traffic(
        infer_s=[t for s in shares for t in s.infer_s],
        query_s=[t for s in shares for t in s.query_s],
        update_s=sum(s.update_s for s in shares),
        shards=[n for s in shares for n in s.shards],
    )


def gibbs_jobs(inputs: Inputs, seconds: float, root: Path, workdir: Path,
               gen_s: float) -> RunResult:
    out = RunResult()
    request = {
        "rows": inputs.rows,
        "model": "default",
        "config": inputs.config,
        "include_blocks": False,
    }
    timed = encode(request)
    with_blocks = encode(dict(request, include_blocks=True))
    num_incomplete = sum("?" in row for row in inputs.rows)

    def args(i: int) -> list[str]:
        return ["--executor", "process", "--workers", "2",
                "--state-dir", str(workdir / f"state-{i}")]

    latencies: list[float] = []

    def check(data: bytes) -> None:
        result = json.loads(data)
        require(
            result["num_blocks"] == num_incomplete and not result["blocks"],
            "async result has the wrong block count",
        )

    shares: list[Traffic] = []

    def measure(client: Client, i: int, warm: bytes) -> None:
        _derive_loop(out, seconds / SETUPS,
                     lambda: client.derive_async(timed)[:2], check, latencies)
        shares.append(send_traffic(client, inputs, json.loads(warm), False,
                                   out, (i, SETUPS)))

    server, client, warm, setup_s, _ = _setup(
        inputs, root, workdir, args,
        lambda c: c.derive_async(with_blocks)[:2], gen_s, measure,
    )
    response = json.loads(warm)
    try:
        # Executor invariance: the same rows, derived blocking on the serial
        # executor, must give the process pool's blocks exactly.
        serial = client.post(
            "/v1/derive",
            dict(request, include_blocks=True, executor="serial",
                 name="serial"),
        )[1]
        out.metrics["peak_rss_mb"] = (server.peak_rss_mb(), "MB")
    finally:
        client.close()
        server.stop()
    check_database(inputs.schema, inputs.rows, response)
    same_blocks(
        response["blocks"], json.loads(serial)["blocks"],
        "process vs serial executor",
    )
    exact = ExactPosteriors(inputs.network, inputs.schema)
    for kind in ("single", "multi"):
        out.notes.append(
            check_accuracy(exact, response["blocks"], kind, f"BN7 {kind}")
        )
    out.metrics["derive_s"] = (statistics.median(latencies), "s")
    _traffic_metrics(out, _merge(shares))
    out.metrics["setup_s"] = (setup_s, "s")
    return out


def serve_session(inputs: Inputs, seconds: float, root: Path, workdir: Path,
                  gen_s: float) -> RunResult:
    out = RunResult()
    names = [attr.name for attr in inputs.schema]
    initial = encode(
        {"rows": inputs.rows, "model": "default", "config": inputs.config,
         "include_blocks": True}
    )
    server, client, warm, setup_s, derive_latencies = _setup(
        inputs, root, workdir, lambda i: [],
        lambda c: c.call("POST", "/v1/derive", initial), gen_s,
    )
    first = json.loads(warm)
    rounds: list[Traffic] = []
    try:
        begin = time.perf_counter()
        while True:
            rounds.append(send_traffic(client, inputs, first, True, out))
            if time.perf_counter() - begin >= seconds:
                break
            # The next round starts again from the initial database.
            client.call("POST", "/v1/derive", initial)
        out.metrics["peak_rss_mb"] = (server.peak_rss_mb(), "MB")
        # Delta guarantee: the updated database equals a from-scratch
        # derive of the benchmark's own replay of the ChangeSets.
        final_rows = replay_changesets(inputs.rows, inputs.changesets, names)
        latency, body = client.post(
            "/v1/derive",
            {"rows": final_rows, "model": "default", "name": "scratch",
             "config": inputs.config, "include_blocks": True},
        )
        derive_latencies.append(latency)
        scratch = json.loads(body)
    finally:
        client.close()
        server.stop()
    check_database(inputs.schema, inputs.rows, first)
    check_database(inputs.schema, final_rows, scratch)
    same_blocks(rounds[-1].blocks, scratch["blocks"],
                "delta updates vs from-scratch derive")
    exact = ExactPosteriors(inputs.network, inputs.schema)
    for kind in ("single", "multi"):
        out.notes.append(
            check_accuracy(exact, first["blocks"], kind, f"census {kind}")
        )
    out.notes.append(
        check_accuracy(exact, rounds[-1].blocks, "multi", "census multi, updated")
    )
    merged = Traffic(
        infer_s=[t for r in rounds for t in r.infer_s],
        query_s=[t for r in rounds for t in r.query_s],
        update_s=statistics.median(r.update_s for r in rounds),
        shards=rounds[0].shards,
    )
    infer_sorted = sorted(merged.infer_s)
    out.notes.append(
        f"infer p90 {infer_sorted[int(0.9 * (len(infer_sorted) - 1))] * 1e3:.1f}"
        f" ms over {len(infer_sorted)} requests"
    )
    out.metrics["derive_s"] = (statistics.median(derive_latencies), "s")
    _traffic_metrics(out, merged)
    out.metrics["setup_s"] = (setup_s, "s")
    return out


RUNNERS = {
    "derive_bulk": derive_bulk,
    "gibbs_jobs": gibbs_jobs,
    "serve_session": serve_session,
}
