"""The traced run: per-layer metrics from an in-process replay.

The workload is replayed against an in-process ``repro`` HTTP server, over
the same closed-loop keep-alive client as the untraced run.  The
benchmark's own wrappers around each layer's public calls record spans
(name, start, end, parent, request id, call id) and counters; the program
itself is not modified.  Spans stay in memory and are written to
``.perfbench_traces/`` when the run ends.

Counters of the Gibbs kernel and the compiled engine live in the process
pool's workers on ``gibbs_jobs``; they come from a serial traced derive of
the same rows, which gives bit-identical blocks.  The tracing overhead is
the traced median latency of the workload's main request against the
untraced median of the same request in the same process, with the
wrappers removed.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from e2e import RunResult, send_traffic
from harness import Client, encode
from workloads import Inputs

from repro.api import http as api_http
from repro.api import session as api_session
from repro.api.http import make_server
from repro.api.service import InferenceService
from repro.api.session import Session
from repro.core.engine import BatchInferenceEngine
from repro.exec import executors, runtime, work
from repro.jobs import JobManager, JobStore
from repro.probdb.blocks import TupleBlock
from repro.probdb.engine import QueryEngine
from repro.probdb.invalidate import CarryStore
from repro.relational.relation import Relation

#: Untraced and traced repetitions of the main request.
MAIN_REPEATS = 2


@dataclass
class Call:
    id: int
    op: int
    kind: str
    latency: float = 0.0
    size: int = 0
    events: int = 0


@dataclass
class Op:
    id: int
    kind: str
    calls: list[Call] = field(default_factory=list)
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Spans and counters keyed by the client call and operation in flight.

    The client is a single closed loop, so whatever any server thread does
    while a call is outstanding belongs to that call.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.calls: list[Call] = []
        self.ops: list[Op] = []
        self.call: Call | None = None
        self.op: Op | None = None
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        return bool(self._patches)

    # -- spans and counters --------------------------------------------------

    def begin(self, name: str) -> dict[str, Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1]["index"] if stack else None,
            "op": None if self.op is None else self.op.id,
            "call": None if self.call is None else self.call.id,
            "thread": threading.current_thread().name,
        }
        with self._lock:
            span["index"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: dict[str, Any]) -> float:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        return span["end"] - span["start"]

    def add(self, name: str, value: float = 1.0) -> None:
        if self.op is not None:
            with self._lock:
                self.counts[(self.op.id, name)] += value

    # -- operations ----------------------------------------------------------

    @contextmanager
    def operation(self, kind: str, engine: BatchInferenceEngine | None = None):
        op = Op(len(self.ops), kind)
        self.ops.append(op)
        outer, self.op = self.op, op
        op.before = _engine_counters(engine)
        try:
            yield op
        finally:
            op.after = _engine_counters(engine)
            self.op = outer

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def timed(self, owner: Any, attr: str, name: str,
              after: Callable[[Any], None] | None = None) -> None:
        """Wrap a function, method or classmethod in a span named ``name``."""
        tracer = self

        def wrap(original):
            func = getattr(original, "__func__", original)

            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.end(span)
                if after is not None:
                    after(result)
                return result
            return classmethod(wrapper) if isinstance(original, classmethod) else wrapper

        self.patch(owner, attr, wrap)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": self.spans,
            "calls": [vars(c) for c in self.calls],
            "ops": [{"id": o.id, "kind": o.kind} for o in self.ops],
        }))


def _engine_counters(engine: BatchInferenceEngine | None) -> dict[str, float]:
    if engine is None:
        return {}
    info = engine.cache.info()
    return {"groups": engine.groups_computed, "hits": info["hits"],
            "misses": info["misses"]}


class TracedClient(Client):
    """The benchmark client, recording each call for the tracer."""

    def __init__(self, port: int, tracer: Tracer):
        super().__init__(port)
        self.tracer = tracer

    def call(self, method: str, path: str, body: bytes | None = None):
        tracer = self.tracer
        if not tracer.active:
            return super().call(method, path, body)
        kind = path.split("?")[0].rsplit("/", 1)[-1]
        if kind == "update" and body is not None and b'"ops": []' in body:
            kind = "fetch"
        op = tracer.op
        if op is None:
            op = Op(len(tracer.ops), kind)
            tracer.ops.append(op)
        call = Call(len(tracer.calls), op.id, kind)
        tracer.calls.append(call)
        op.calls.append(call)
        tracer.call, outer_op, tracer.op = call, tracer.op, op
        try:
            call.latency, data = super().call(method, path, body)
        finally:
            tracer.call, tracer.op = None, outer_op
        call.size = len(data)
        if kind == "events":
            call.events = sum(
                1 for line in data.splitlines()
                if line and b'"heartbeat"' not in line
            )
        return call.latency, data


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls in spans and counters."""
    t = tracer

    for attr in ("handle_json", "job_result", "derive", "derive_async"):
        t.timed(InferenceService, attr, f"api.service.{attr}")

    def wrap_events(original):
        def wrapper(self, *args, **kwargs):
            stream = original(self, *args, **kwargs)

            def timed_stream():
                while True:
                    span = t.begin("api.service.job_events")
                    try:
                        item = next(stream)
                    except StopIteration:
                        t.end(span)
                        return
                    t.end(span)
                    yield item
            return timed_stream()
        return wrapper

    t.patch(InferenceService, "job_events", wrap_events)

    # ``api/http.py`` calls ``json.dumps`` through its module attribute.
    proxy = types.SimpleNamespace(
        dumps=api_http.json.dumps,
        loads=api_http.json.loads,
        JSONDecodeError=api_http.json.JSONDecodeError,
    )
    t.timed(proxy, "dumps", "api.http.json_dumps")
    t._patches.append((api_http, "json", api_http.json))
    api_http.json = proxy
    t.timed(Relation, "from_rows", "relational.relation.from_rows")

    def after_derive(result):
        report = result.exec_report
        if report is not None:
            t.add("pool_restarts", report.pool_restarts)
            t.add("shard_failures", len(report.failures))

    t.timed(Session, "derive", "api.session.derive", after_derive)
    t.timed(Session, "infer_batch", "api.session.infer_batch")
    t.timed(Session, "query", "api.session.query")

    def after_update(update):
        report = update.result.exec_report
        if report is not None:
            t.add("dirty_shards", report.num_shards)
            t.add("carried_tuples", report.carried_tuples)

    t.timed(Session, "apply_updates", "api.session.apply_updates", after_update)
    t.timed(api_session, "learn_mrsl", "core.learning.learn_mrsl")
    t.timed(runtime, "plan_shards", "exec.plan.plan_shards",
            lambda plan: t.add("shards", len(plan)))

    def wrap_run(original):
        def run(self, plan, context):
            start = time.perf_counter()
            busy, first = 0.0, None
            for result in original(self, plan, context):
                if first is None:
                    first = time.perf_counter() - start - result.elapsed
                busy += result.elapsed
                yield result
            wall = time.perf_counter() - start
            t.add("pool_start_s", max(first or 0.0, 0.0))
            t.add("pool_busy_s", busy)
            t.add("pool_capacity_s", wall * self.workers)
        return run

    t.patch(executors.ProcessExecutor, "run", wrap_run)

    def wrap_single(original):
        def single(*args, **kwargs):
            span = t.begin("exec.work.single_shard_blocks")
            try:
                return original(*args, **kwargs)
            finally:
                t.add("single_s", t.end(span))
        return single

    def wrap_multi(original):
        def multi(*args, **kwargs):
            span = t.begin("exec.work.multi_shard_blocks")
            try:
                blocks, stats = original(*args, **kwargs)
            finally:
                elapsed = t.end(span)
                t.add("multi_s", elapsed)
                with t._lock:
                    key = (t.op.id if t.op else -1, "multi_max_s")
                    t.counts[key] = max(t.counts[key], elapsed)
            t.add("draws", stats.total_draws)
            return blocks, stats
        return multi

    t.patch(work, "single_shard_blocks", wrap_single)
    t.patch(work, "multi_shard_blocks", wrap_multi)

    def wrap_batch(original):
        def conditional_probs_batch(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t.add("batch_calls")
                t.add("batch_s", time.perf_counter() - start)
        return conditional_probs_batch

    t.patch(BatchInferenceEngine, "conditional_probs_batch", wrap_batch)

    def wrap_completions(original):
        def completions(self):
            n = 0
            for item in original(self):
                n += 1
                yield item
            t.add("completions", n)
        return completions

    t.patch(TupleBlock, "completions", wrap_completions)
    t.timed(QueryEngine, "scan", "probdb.engine.scan",
            lambda rows: t.add("scan_rows", len(rows)))
    t.timed(QueryEngine, "evaluate", "probdb.engine.evaluate",
            lambda results: t.add("results", len(results)))

    t.timed(CarryStore, "from_database", "probdb.invalidate.carry_build")
    t.timed(CarryStore, "split", "probdb.invalidate.split")
    t.timed(Relation, "apply_changeset", "relational.updates.apply_changeset")
    for attr in ("create_job", "set_state", "record_plan", "record_shard"):
        t.timed(JobStore, attr, "jobs.store.record")


# -- aggregation ---------------------------------------------------------------


def _span_sums(tracer: Tracer) -> dict[int, dict[str, float]]:
    sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        if span["op"] is not None and span["end"] is not None:
            sums[span["op"]][span["name"]] += span["end"] - span["start"]
    return sums


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, work_kind: str, journal: Path | None,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    sums = _span_sums(tracer)
    count = tracer.counts

    def ops(kind: str) -> list[Op]:
        return [o for o in tracer.ops if o.kind == kind]

    def med(kind: str, fn: Callable[[Op], float]) -> float:
        return _median([fn(o) for o in ops(kind)])

    def total(kind: str, fn: Callable[[Op], float]) -> float:
        return sum(fn(o) for o in ops(kind))

    def span(name: str) -> Callable[[Op], float]:
        return lambda o: sums[o.id].get(name, 0.0)

    def counter(name: str) -> Callable[[Op], float]:
        return lambda o: count.get((o.id, name), 0.0)

    service = ("api.service.handle_json", "api.service.job_result",
               "api.service.job_events")
    call_service: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s["call"] is not None and s["name"] in service and s["parent"] is None:
            call_service[s["call"]] += s["end"] - s["start"]
    measured = {o.id for o in tracer.ops
                if o.kind in ("main", "infer", "query", "update")}
    overhead = [
        c.latency - call_service[c.id] for c in tracer.calls if c.op in measured
    ]

    def queue_wait(o: Op) -> float:
        submits = [s for s in tracer.spans
                   if s["op"] == o.id and s["name"] == "api.service.derive_async"]
        runs = [s for s in tracer.spans
                if s["op"] == o.id and s["name"] == "api.service.derive"]
        if not submits or not runs:
            return 0.0
        return runs[0]["start"] - submits[0]["end"]

    def utilization(o: Op) -> float:
        capacity = counter("pool_capacity_s")(o)
        return counter("pool_busy_s")(o) / capacity if capacity else 0.0

    def hit_ratio(o: Op) -> float:
        hits = o.after.get("hits", 0) - o.before.get("hits", 0)
        misses = o.after.get("misses", 0) - o.before.get("misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    def rows_per_result(o: Op) -> float:
        results = counter("results")(o)
        return counter("scan_rows")(o) / results if results else 0.0

    def batch_us(o: Op) -> float:
        calls = counter("batch_calls")(o)
        return counter("batch_s")(o) / calls * 1e6 if calls else 0.0

    def draws_per_s(o: Op) -> float:
        multi = counter("multi_s")(o)
        return counter("draws")(o) / multi if multi else 0.0

    w = work_kind
    m = {
        "api.http.overhead_ms": (_median(overhead) * 1e3, "ms"),
        "api.http.response_mb": (
            med("main", lambda o: o.calls[-1].size / 1e6), "MB"),
        "api.service.decode_s": (
            med("main", span("relational.relation.from_rows")), "s"),
        "api.service.respond_build_s": (
            med("main", lambda o: span("api.service.derive")(o)
                - span("api.session.derive")(o)), "s"),
        "api.service.encode_s": (med("main", span("api.http.json_dumps")), "s"),
        "api.session.derive_s": (med("main", span("api.session.derive")), "s"),
        "api.session.infer_ms": (
            med("infer", span("api.session.infer_batch")) * 1e3, "ms"),
        "api.session.query_ms": (
            med("query", span("api.session.query")) * 1e3, "ms"),
        "api.session.update_s": (
            total("update", span("api.session.apply_updates")), "s"),
        "exec.plan.plan_s": (med("main", span("exec.plan.plan_shards")), "s"),
        "exec.plan.shards": (med("main", counter("shards")), "count"),
        "exec.executors.pool_start_s": (
            med("main", counter("pool_start_s")), "s"),
        "exec.executors.utilization": (med("main", utilization), "ratio"),
        "exec.executors.pool_restarts": (
            total("main", counter("pool_restarts")), "count"),
        "exec.executors.shard_failures": (
            total("main", counter("shard_failures")), "count"),
        "exec.work.single_s": (med(w, counter("single_s")), "s"),
        "exec.work.multi_s": (med(w, counter("multi_s")), "s"),
        "exec.work.multi_max_s": (med(w, counter("multi_max_s")), "s"),
        "core.engine.groups_computed": (
            med(w, lambda o: o.after.get("groups", 0) - o.before.get("groups", 0)),
            "count"),
        "core.engine.cache_hit_ratio": (med(w, hit_ratio), "ratio"),
        "core.engine.batch_calls": (med(w, counter("batch_calls")), "count"),
        "core.engine.batch_call_us": (med(w, batch_us), "us"),
        "core.gibbs.draws": (med(w, counter("draws")), "count"),
        "core.gibbs.draws_per_s": (med(w, draws_per_s), "1/s"),
        "probdb.blocks.completions": (med("main", counter("completions")), "count"),
        "probdb.engine.scan_s": (med("query", span("probdb.engine.scan")), "s"),
        "probdb.engine.evaluate_s": (
            med("query", span("probdb.engine.evaluate")), "s"),
        "probdb.engine.rows_per_result": (med("query", rows_per_result), "ratio"),
        "probdb.invalidate.carry_build_s": (
            total("update", span("probdb.invalidate.carry_build")), "s"),
        "probdb.invalidate.split_s": (
            total("update", span("probdb.invalidate.split")), "s"),
        "probdb.invalidate.dirty_shards": (
            total("update", counter("dirty_shards")), "count"),
        "probdb.invalidate.carried_tuples": (
            total("update", counter("carried_tuples")), "count"),
        "relational.updates.apply_s": (
            total("update", span("relational.updates.apply_changeset")), "s"),
        "jobs.manager.queue_wait_s": (med("main", queue_wait), "s"),
        "jobs.manager.events": (
            med("main", lambda o: sum(c.events for c in o.calls)), "count"),
        "jobs.store.record_s": (med("main", span("jobs.store.record")), "s"),
        "jobs.store.journal_mb": (
            sum(p.stat().st_size for p in journal.glob("jobs.sqlite3*")) / 1e6
            if journal is not None else 0.0, "MB"),
        "core.learning.learn_s": (
            total("learn", span("core.learning.learn_mrsl")), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m


# -- the traced replay ---------------------------------------------------------


def run_traced(inputs: Inputs, workdir: Path, trace_dir: Path) -> RunResult:
    """Replay ``inputs`` in-process with every layer traced."""
    from checks import check_database, same_blocks

    out = RunResult()
    tracer = Tracer()
    gibbs = inputs.workload == "gibbs_jobs"
    session = Session({"executor": "process", "workers": 2} if gibbs else None)
    journal = workdir / "state" if gibbs else None
    store = JobStore(journal) if gibbs else None
    service = InferenceService(
        session, jobs=JobManager(prefix="derive", store=store)
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = TracedClient(server.server_address[1], tracer)
    request = {"rows": inputs.rows, "model": "default",
               "config": inputs.config, "include_blocks": True}
    try:
        install(tracer)
        with tracer.operation("learn"):
            client.post("/v1/learn", {"schema": inputs.schema_dict,
                                      "rows": inputs.learn_rows})
        engine = session.engine("default")
        if inputs.workload == "serve_session":
            with tracer.operation("main", engine):
                first = json.loads(client.post("/v1/derive", request)[1])
            # Untraced reference: the first queries, wrappers removed.
            tracer.uninstall()
            untraced = [client.post("/v1/query", {"query": q})[0]
                        for q in inputs.queries[:MAIN_REPEATS]]
            install(tracer)
            send_traffic(client, inputs, first, True, out)
            traced = [sum(c.latency for c in o.calls)
                      for o in tracer.ops if o.kind == "query"]
        else:
            if gibbs:
                def send(body: bytes) -> tuple[float, bytes]:
                    return client.derive_async(body)[:2]
            else:
                def send(body: bytes) -> tuple[float, bytes]:
                    return client.call("POST", "/v1/derive", body)
            with_blocks = encode(request)
            timed = encode(dict(request, include_blocks=not gibbs))
            with tracer.operation("warmup", engine):
                first = json.loads(send(with_blocks)[1])
            tracer.uninstall()
            untraced = [send(timed)[0] for _ in range(MAIN_REPEATS)]
            install(tracer)
            traced = []
            for _ in range(MAIN_REPEATS):
                with tracer.operation("main", engine):
                    traced.append(send(timed)[0])
            if gibbs:
                with tracer.operation("serial", engine):
                    serial = client.post("/v1/derive", dict(
                        request, executor="serial", name="serial"))[1]
                same_blocks(first["blocks"], json.loads(serial)["blocks"],
                            "process vs serial executor")
            send_traffic(client, inputs, first, False, out)
        check_database(inputs.schema, inputs.rows, first)
    finally:
        tracer.uninstall()
        client.close()
        server.shutdown()
        server.server_close()
        thread.join()
        service.jobs.close()
        if store is not None:
            store.close()
    out.attempted = sum(
        1 for o in tracer.ops if o.kind in ("main", "infer", "query", "update")
    )
    overhead_pct = 100.0 * (statistics.median(traced)
                            / statistics.median(untraced) - 1.0)
    out.metrics = layer_metrics(
        tracer, "serial" if gibbs else "main", journal, overhead_pct
    )
    path = trace_dir / f"{inputs.workload}-seed{inputs.seed}.json"
    tracer.dump(path)
    out.notes.append(f"spans written to {path}")
    return out

