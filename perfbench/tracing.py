"""Span tracing installed from outside ``src/``: wrappers around layer entry points.

The benchmark's traced run patches the public entry points of each layer on
their class or module attribute, records one span per call (name, start,
end, parent, run id) in memory, and restores the originals afterwards.
Nothing in ``repro`` is edited: this measures the program as shipped, with
the cost of one Python call frame per traced call (reported as
``bench.trace_overhead_ratio``).

Self time is a span's duration minus the time its child spans cover.  The
benchmark opens a root span (``bench.*``) around each unit of timed work,
so the root's self time is the explicit ``unattributed`` remainder and
each thread's self times sum to the time its root spans cover.  The traced
wall time (``bench.traced_wall_s``) is the union of all root spans; for
the single-threaded ``ingest`` and ``query`` the self times sum to it, for
``mixed`` they sum to writer plus reader thread time, which the wall time
of the race does not double-count.
"""

from __future__ import annotations

import csv
import gzip
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

#: Layer names, in the order the per-layer report lists them.
LAYERS = ("engine", "mobility", "geo", "core", "server", "store", "query")


class Tracer:
    """In-memory span recorder; spans are written out only by :meth:`dump`.

    A span is ``(span_id, parent_id, name, start_ns, end_ns, thread, run_id)``.
    Parents are tracked per thread, so the writer and reader threads of the
    ``mixed`` workload each build their own span tree.
    """

    def __init__(self, run_id: str = "") -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = run_id
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = self._new_id()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident(), self.run_id)
            )

    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def dump(self, path: Path) -> None:
        """Write every recorded span as gzipped CSV (one row per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span_id", "parent_id", "name", "start_ns", "end_ns", "thread", "run_id"))
            writer.writerows(self.spans)

    def wall_s(self) -> float:
        """Wall time covered by the root spans of every thread, overlaps counted once."""
        roots = sorted((start, end) for _, parent, _, start, end, _, _ in self.spans if not parent)
        covered_ns, reach = 0, None
        for start, end in roots:
            if reach is None or start > reach:
                covered_ns += end - start
                reach = end
            elif end > reach:
                covered_ns += end - reach
                reach = end
        return covered_ns / 1e9

    def summary(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over every recorded span."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end, _, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[span_id]) / 1e9
        return out


def maybe_span(tracer: "Tracer | None", name: str):
    """``tracer.span(name)``, or a no-op context when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def _wrap_call(tracer: Tracer, name: str, original, rows_of=None):
    def traced(*args, **kwargs):
        if rows_of is not None:
            tracer.count(name + "_rows", rows_of(args))
        with tracer.span(name):
            return original(*args, **kwargs)

    traced.__wrapped__ = original
    return traced


def _wrap_generator(tracer: Tracer, name: str, original):
    """Time only the consumer's waits inside the generator's ``next()``."""

    def traced(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    traced.__wrapped__ = original
    return traced


def _targets():
    """``(span name, owner, attribute, kind, rows_of)`` for every traced entry point."""
    from repro.core.accounting import BudgetLedger
    from repro.engine import sharding
    from repro.engine.engine import PrivacyEngine
    from repro.geo.grid import GridWorld
    from repro.mobility.trajectory import TraceDB
    from repro.query.api import QueryEngine
    from repro.server.live_metrics import LiveMetricRegistry
    from repro.server.pipeline import Server
    from repro.store import accelerator
    from repro.store.store import TraceStore

    def charge_rows(args):
        return len(args[1])

    def delta_rows(args):
        return sum(len(rows) for rows in args[1:4])

    return [
        ("engine.shard_wait", sharding, "stream_shard_releases", "generator", None),
        ("engine.release_batch", PrivacyEngine, "release_batch", "call", None),
        ("mobility.user_history", TraceDB, "user_history", "call", None),
        ("mobility.record_many", TraceDB, "record_many", "call", None),
        ("geo.snap_batch", GridWorld, "snap_batch", "call", None),
        ("core.charge_many", BudgetLedger, "charge_many", "call", charge_rows),
        ("server.ingest_shard", Server, "ingest_shard", "call", None),
        ("server.live_ingest", LiveMetricRegistry, "ingest", "call", None),
        ("store.begin_run", TraceStore, "begin_run", "call", None),
        ("store.commit_shard", TraceStore, "commit_shard", "call", None),
        ("store.accel_build", accelerator, "cell_count_rows", "call", None),
        ("store.accel_build", accelerator, "flow_rows", "call", None),
        ("store.accel_build", accelerator, "user_summary_rows", "call", None),
        ("store.apply_deltas", accelerator, "apply_deltas", "call", delta_rows),
        ("query.contact_rate", QueryEngine, "contact_rate", "call", None),
        ("query.flow_matrix", QueryEngine, "flow_matrix", "call", None),
        ("query.top_cells", QueryEngine, "top_cells", "call", None),
        ("query.trajectory", QueryEngine, "trajectory", "call", None),
        ("query.epsilon_spent", QueryEngine, "epsilon_spent", "call", None),
        ("query.missing_shards", QueryEngine, "missing_shards", "call", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced entry point for the duration of the block."""
    restore = []
    try:
        for name, owner, attribute, kind, rows_of in _targets():
            original = getattr(owner, attribute)
            own = attribute in vars(owner)
            if kind == "generator":
                wrapper = _wrap_generator(tracer, name, original)
            else:
                wrapper = _wrap_call(tracer, name, original, rows_of)
            setattr(owner, attribute, wrapper)
            restore.append((owner, attribute, original, own))
        yield tracer
    finally:
        for owner, attribute, original, own in reversed(restore):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def count_sql(connection, tracer: Tracer, name: str) -> None:
    """Count every statement execution on ``connection`` under ``name``."""

    def on_statement(_sql: str) -> None:
        tracer.counts[name] += 1

    connection.set_trace_callback(on_statement)


def per_layer_metrics(tracer: Tracer, scale: float, releases: int) -> dict[str, float]:
    """The per-layer metric values, each total divided by ``scale`` units of work.

    ``releases`` is the number of releases committed in the traced work
    (the base of ``store.accel_rows_per_release``).
    """
    summary = tracer.summary()

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0) / scale

    def self_time(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0) / scale

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0) / scale

    metrics = {
        "engine.shard_wait_s": total("engine.shard_wait"),
        "engine.release_batch_calls": calls("engine.release_batch"),
        "engine.release_batch_s": total("engine.release_batch"),
        "mobility.user_history_calls": calls("mobility.user_history"),
        "mobility.user_history_s": total("mobility.user_history"),
        "mobility.record_many_s": total("mobility.record_many"),
        "geo.snap_batch_s": total("geo.snap_batch"),
        "core.charge_many_s": total("core.charge_many"),
        "core.charge_many_rows": tracer.counts["core.charge_many_rows"] / scale,
        "server.ingest_shard_s": total("server.ingest_shard"),
        "server.ingest_shard_self_s": self_time("server.ingest_shard"),
        "server.ingest_shard_calls": calls("server.ingest_shard"),
        "server.live_ingest_s": total("server.live_ingest"),
        "store.begin_run_s": total("store.begin_run"),
        "store.commit_shard_s": total("store.commit_shard"),
        "store.commit_shard_self_s": self_time("store.commit_shard"),
        "store.accel_build_s": total("store.accel_build"),
        "store.apply_deltas_s": total("store.apply_deltas"),
        "store.accel_rows_per_release": (
            tracer.counts["store.apply_deltas_rows"] / releases if releases else 0.0
        ),
        "store.sql_executions": tracer.counts["store.sql_executions"] / scale,
        "query.contact_rate_s": total("query.contact_rate"),
        "query.flow_matrix_s": total("query.flow_matrix"),
        "query.top_cells_s": total("query.top_cells"),
        "query.trajectory_s": total("query.trajectory"),
        "query.epsilon_spent_s": total("query.epsilon_spent"),
        "query.missing_shards_s": total("query.missing_shards"),
        "query.missing_shards_calls": calls("query.missing_shards"),
        "query.sql_executions": tracer.counts["query.sql_executions"] / scale,
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    unattributed = idle = 0.0
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"] / scale
        elif name == "bench.idle":
            idle += entry["self_s"] / scale
        else:
            unattributed += entry["self_s"] / scale
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["bench.idle_s"] = idle
    metrics["bench.unattributed_s"] = unattributed
    metrics["bench.traced_wall_s"] = tracer.wall_s() / scale
    return metrics
