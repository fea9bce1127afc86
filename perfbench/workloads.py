"""The three benchmark workloads: set-up, timed phase and output checks.

Every workload releases the same seeded population — ``geolife_like``
traces of ``N_USERS`` users over ``HORIZON`` rounds on a ``GRID`` x
``GRID`` world, P-LM / G1 / epsilon 1 — through the public API of the
production path, on the ``serial`` backend so each layer call runs
in-process and can be traced from outside.

* ``ingest``  — ``run_release_rounds_batched`` into a fresh file-backed
  ``TraceStore`` with live views, ``INGEST_SHARDS`` shards.  Batch job,
  repeated for the run's seconds.  No queries.
* ``query``   — the same run populates the store during set-up; one
  closed-loop client then sends a seeded query sequence.  No engine,
  ledger-charging or commit work.
* ``mixed``   — the population is pre-released during set-up into
  ``MIXED_COMMITS`` small shards; a writer thread commits shard k at its
  due time k / ``MIXED_RATE`` (open loop) through ``Server.ingest_shard``
  while a reader thread with its own connection runs the query sequence
  closed-loop.  No engine kernel.  Its race lasts ``MIXED_COMMITS /
  MIXED_RATE`` seconds whatever ``--seconds`` says.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine import PrivacyEngine, sharding
from repro.engine.sharding import ShardPlan
from repro.errors import SnapshotUnavailableError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.query import QueryEngine, Window, reference
from repro.server.live_metrics import batch_recompute, default_views, expected_coverage
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import TraceStore

from tracing import Tracer, count_sql, installed, maybe_span

GRID = 20
N_USERS = 5_000
HORIZON = 24
INGEST_SHARDS = 4
#: Open-loop commit rate of the ``mixed`` writer, in shard commits per
#: second.  Frozen at about half the writer's capacity while the reader
#: runs: on a 2-core x86 VM a 25-user x 24-round shard commits in ~26 ms
#: alone and ~40 ms beside the reader on one CPU, so 10/s keeps the backlog
#: at one shard.  A commit-path change then shows as latency, not as a
#: different offered load.
MIXED_RATE = 10.0
#: 200 commits give the commit p95 ten samples beyond it.
MIXED_COMMITS = 200
#: After one warm-up set-up (the process's first allocations, outside
#: ``setup_s``), set-up runs at least ``SETUP_REPS`` times and until
#: ``SETUP_BUDGET_S`` seconds have passed; ``setup_s`` is the median.  A
#: cheap set-up thus gets more repetitions, which is where a single timing
#: is noisiest.
SETUP_REPS = 3
SETUP_BUDGET_S = 5.0
#: Query mix.  Each choice follows from the query classes as specified,
#: not from tuning:
#:
#: * aggregates — the class names three ``QueryEngine`` methods
#:   (``contact_rate``, ``top_cells``, ``flow_matrix``); each gets an equal
#:   third, and ``flow_matrix``'s third alternates between the two tilings
#:   named (4x4, 2x2);
#: * one aggregate per ``USER_PER_AGG`` user queries — the ratio of the
#:   minimum sample counts (100 aggregate, 1000 user), which the run then
#:   reaches together;
#: * user kinds — ``trajectory`` and ``epsilon_spent`` alternate evenly;
#: * windows — both classes draw every width in 1..rounds equally often
#:   (seeded permutations), the range the aggregate class names;
#: * users — bounded Zipf over a seeded permutation of the population with
#:   YCSB's default constant 0.99 (Cooper et al., "Benchmarking Cloud
#:   Serving Systems with YCSB", SoCC 2010).  The data gives no skew of its
#:   own: every ``geolife_like`` user has one check-in per round.
USER_PER_AGG = 10
AGG_CYCLE = ("contact_rate", "top_cells", "flow_4x4", "contact_rate", "top_cells", "flow_2x2")
USER_KINDS = ("trajectory", "epsilon_spent")
ZIPF_S = 0.99
#: Minimum timed samples per query class, so the named percentiles have at
#: least ten samples beyond them (p90 of 100, p99 of 1000).
MIN_AGG, MIN_USER = 100, 1000
SEQUENCE_LENGTH = 40_000
CHECK_USERS = 20


def _median(values):
    return statistics.median(values) if values else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh(path: Path) -> Path:
    for suffix in ("", "-wal", "-shm"):
        Path(str(path) + suffix).unlink(missing_ok=True)
    return path


# ----------------------------------------------------------------------
# shared inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    world: GridWorld
    db: object
    engine: PrivacyEngine
    seed: int

    @property
    def releases(self) -> int:
        return len(self.db)

    @property
    def last_round(self) -> int:
        return max(self.db.times())


def make_inputs(seed: int) -> Inputs:
    world = GridWorld(GRID, GRID)
    db = geolife_like(world, n_users=N_USERS, horizon=HORIZON, rng=seed)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    # Lazy mechanism state is built on first use; pay it here, not in timing.
    engine.release_batch(list(range(world.n_cells)), rng=0)
    return Inputs(world, db, engine, seed)


def run_ingest(inputs: Inputs, store: TraceStore, shards: int = INGEST_SHARDS) -> Server:
    """The production batch path every workload's store comes from."""
    return run_release_rounds_batched(
        inputs.world,
        inputs.db,
        inputs.engine,
        rng=inputs.seed,
        shards=shards,
        backend="serial",
        store=store,
        live_metrics=True,
    )


def query_sequence(inputs: Inputs) -> list[tuple[str, Window, int]]:
    """A seeded ``(kind, window, user)`` sequence: 1 aggregate per ``USER_PER_AGG`` user queries.

    Aggregate kinds follow ``AGG_CYCLE``, and each full cycle shares one
    window width; user queries alternate between ``USER_KINDS``.  Both
    classes take their widths from seeded permutations of 1..rounds, so
    every seed asks the same mix of query costs in a different order.  Users
    are drawn bounded-Zipf(``ZIPF_S``) over a seeded permutation of the
    population.  See the constants above for where each choice comes from.
    """
    rng = np.random.default_rng([inputs.seed, 1])
    users = np.array(sorted(inputs.db.users()))[rng.permutation(len(inputs.db.users()))]
    times = sorted(inputs.db.times())
    first, span = times[0], times[-1] - times[0] + 1

    def widths(count):
        return np.concatenate([rng.permutation(span) + 1 for _ in range(count // span + 1)])

    n_agg = SEQUENCE_LENGTH // (USER_PER_AGG + 1) + 1
    cycle_widths = widths(n_agg // len(AGG_CYCLE) + 1)
    user_widths = widths(SEQUENCE_LENGTH)
    offsets = rng.random(SEQUENCE_LENGTH)
    weights = 1.0 / np.arange(1, len(users) + 1) ** ZIPF_S
    ranks = rng.choice(len(users), size=SEQUENCE_LENGTH, p=weights / weights.sum())
    ops = []
    for i in range(SEQUENCE_LENGTH):
        agg, position = divmod(i, USER_PER_AGG + 1)
        if position == 0:
            kind = AGG_CYCLE[agg % len(AGG_CYCLE)]
            width = int(cycle_widths[agg // len(AGG_CYCLE)])
        else:
            kind = USER_KINDS[position % len(USER_KINDS)]
            width = int(user_widths[i - agg - 1])
        start = first + int(offsets[i] * (span - width + 1))
        ops.append((kind, Window(start, start + width - 1), int(users[ranks[i]])))
    return ops


def execute(engine: QueryEngine, op):
    kind, window, user = op
    if kind == "contact_rate":
        return engine.contact_rate(window)
    if kind == "flow_4x4":
        return engine.flow_matrix(window, block_rows=4, block_cols=4)
    if kind == "flow_2x2":
        return engine.flow_matrix(window, block_rows=2, block_cols=2)
    if kind == "top_cells":
        return engine.top_cells(window, 10)
    if kind == "trajectory":
        return engine.trajectory(user, window)
    return engine.epsilon_spent(user, window)


def full_scan(store: TraceStore, world: GridWorld, op):
    """The ``repro.query.reference`` answer for one sequence op."""
    kind, window, user = op
    if kind == "contact_rate":
        return reference.full_scan_contact_rate(store, window)
    if kind == "flow_4x4":
        return reference.full_scan_flow_matrix(store, window, world, block_rows=4, block_cols=4)
    if kind == "flow_2x2":
        return reference.full_scan_flow_matrix(store, window, world, block_rows=2, block_cols=2)
    if kind == "top_cells":
        return reference.full_scan_top_cells(store, window, 10)
    if kind == "trajectory":
        return reference.full_scan_trajectory(store, user, window)
    return reference.full_scan_epsilon_spent(store, user, window)


def check_ops(inputs: Inputs, ops) -> list:
    """One op per query kind from ``ops``, plus full-window aggregates."""
    full = Window(0, inputs.last_round)
    picked, seen = [], set()
    for op in ops:
        if op[0] not in seen:
            seen.add(op[0])
            picked.append(op)
    picked += [(kind, full, 0) for kind in dict.fromkeys(AGG_CYCLE)]
    return picked


@dataclass
class QueryLog:
    """Latencies (seconds) and failures of one closed-loop query client."""

    agg: list = field(default_factory=list)
    user: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0

    def record(self, op, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif op[0] in USER_KINDS:
            self.user.append(seconds)
        else:
            self.agg.append(seconds)

    @property
    def answered(self) -> int:
        return len(self.agg) + len(self.user)

    @property
    def queries_per_s(self) -> float:
        return self.answered / self.wall_s if self.wall_s else 0.0

    def detail(self) -> dict:
        return {
            "agg_query_p50_ms": _pct(self.agg, 50) * 1e3,
            "agg_query_p90_ms": _pct(self.agg, 90) * 1e3,
            "user_query_p50_ms": _pct(self.user, 50) * 1e3,
            "user_query_p99_ms": _pct(self.user, 99) * 1e3,
            "agg_queries": len(self.agg),
            "user_queries": len(self.user),
            "queries_per_s": self.queries_per_s,
        }


def query_loop(engine, ops, log: QueryLog, keep_going, tracer: Tracer | None, root: str) -> None:
    """Send ``ops`` in order, closed loop, while ``keep_going(index, log)`` holds."""
    with maybe_span(tracer, root):
        start = time.perf_counter()
        index = 0
        try:
            while keep_going(index, log):
                op = ops[index % len(ops)]
                began = time.perf_counter()
                try:
                    execute(engine, op)
                    ok = True
                except Exception:  # counted against the query class; the run goes on
                    ok = False
                log.record(op, time.perf_counter() - began, ok)
                index += 1
        finally:
            log.wall_s = time.perf_counter() - start


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _guarded(check, *args) -> list[str]:
    """Run one output check; a check the program makes raise is a failed check."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__} raised {exc!r}"]


class Workload:
    """Set-up (repeated, timed), one timed phase, and output checks.

    Subclasses provide :meth:`setup` (inputs and store, timed as
    ``setup_s``), :meth:`run` (the timed phase; with ``tracer`` it is the
    traced pass and ``like`` is the untraced pass's result, whose amount of
    work it repeats), :meth:`check_before` / :meth:`check` (output checks
    returning mismatch descriptions), :meth:`report` and :meth:`layer_base`.
    """

    name = ""
    #: Whether the engine runs only in set-up (so ``engine.shard_wait_s``
    #: comes from the traced warm-up set-up, not the timed phase).
    engine_in_setup = False

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def run(self, state, tracer: Tracer | None = None, like=None):
        raise NotImplementedError

    def check_before(self, state) -> list[str]:
        return []

    def check(self, state, result) -> list[str]:
        return []

    def traced_state(self, state):
        """The state the traced pass runs on (a fresh one where runs consume it)."""
        return state

    def release(self, state) -> None:
        pass

    def measure(self, trace: bool) -> dict:
        """Set up, check, run untraced (and traced), and gather every metric.

        The warm-up set-up stays out of ``setup_s``; with ``trace`` it runs
        traced, which is where ``query`` and ``mixed`` do their engine work.
        ``peaks`` holds the process's peak RSS after set-up, after the
        pre-run check and after the untraced run — read before the output
        checks, whose own allocations are the harness's, not the program's.
        """
        setup_tracer = Tracer(run_id=f"{self.name}-seed{self.seed}-setup") if trace else None
        with installed(setup_tracer) if trace else nullcontext():
            state = self.setup()
        setup_times = []
        began = time.perf_counter()
        while len(setup_times) < SETUP_REPS or time.perf_counter() - began < SETUP_BUDGET_S:
            self.release(state)
            state = None
            gc.collect()
            start = time.perf_counter()
            state = self.setup()
            setup_times.append(time.perf_counter() - start)
        peaks = {"setup": _peak_rss_mb()}
        problems = _guarded(self.check_before, state)
        peaks["check_before"] = _peak_rss_mb()
        gc.collect()
        result = self.run(state)
        peaks["run"] = _peak_rss_mb()
        problems += _guarded(self.check, state, result)
        setup_times += getattr(result, "setup_walls", [])
        out = {
            "setup_s": _median(setup_times),
            "setup_tracer": setup_tracer,
            "peaks": peaks,
            "problems": problems,
            "result": result,
            "state": state,
        }
        if trace:
            tracer = Tracer(run_id=f"{self.name}-seed{self.seed}")
            traced_state = self.traced_state(state)
            gc.collect()
            with installed(tracer):
                traced = self.run(traced_state, tracer=tracer, like=result)
            out["tracer"] = tracer
            out["traced"] = traced
            if traced_state is not state:
                self.release(traced_state)
        self.release(state)
        return out


@dataclass
class IngestResult:
    walls: list
    bytes_per_release: list
    attempted: int
    failed: int
    setup_walls: list
    server: object = None
    store_path: Path | None = None

    @property
    def work_s(self) -> float:
        return _median(self.walls)


class IngestWorkload(Workload):
    name = "ingest"

    def setup(self):
        return make_inputs(self.seed)

    def run(self, inputs: Inputs, tracer: Tracer | None = None, like=None):
        """Batch runs for ``seconds`` (or as many as ``like`` made), each on a fresh store.

        Untraced, a set-up is timed into ``setup_walls`` before each batch
        run after the first and then dropped: a set-up lasts under a second,
        and samples spread over the whole run read the machine's speed over
        the same stretch of time as the batch runs do.
        """
        walls, sizes, setup_walls = [], [], []
        attempted = failed = 0
        server = path = None
        started = time.perf_counter()
        rep = 0
        while rep < len(like.walls) if like is not None else (
            rep == 0 or time.perf_counter() - started < self.seconds
        ):
            server = None
            gc.collect()
            if tracer is None and rep:
                begin = time.perf_counter()
                self.setup()
                setup_walls.append(time.perf_counter() - begin)
                gc.collect()
            path = _fresh(self.workdir / f"ingest-{'traced' if tracer else 'plain'}-{rep % 2}.db")
            attempted += INGEST_SHARDS
            begin = time.perf_counter()
            with maybe_span(tracer, "bench.ingest_run"):
                store = TraceStore(path)
                try:
                    if tracer is not None:
                        count_sql(store.connection, tracer, "store.sql_executions")
                    server = run_ingest(inputs, store)
                except Exception:  # counted per uncommitted shard; the next run goes on
                    failed += INGEST_SHARDS - len({shard for shard, _ in store.committed()})
                finally:
                    store.close()
            wall = time.perf_counter() - begin
            if server is not None:
                walls.append(wall)
                sizes.append(store.file_size_bytes() / inputs.releases)
            rep += 1
        return IngestResult(walls, sizes, attempted, failed, setup_walls, server, path)

    def check(self, inputs: Inputs, result: IngestResult) -> list[str]:
        if result.server is None:
            return ["no ingest run completed"]
        problems = []
        world, db, engine = inputs.world, inputs.db, inputs.engine
        plan = ShardPlan.build(sorted(db.users()), INGEST_SHARDS, rng=inputs.seed)
        with TraceStore(result.store_path) as store:
            rows = store.connection.execute(
                "SELECT user, time, cell, x, y FROM releases ORDER BY user, time"
            ).fetchall()
            if len(rows) != inputs.releases:
                problems.append(f"store holds {len(rows)} rows, expected {inputs.releases}")
            rng = np.random.default_rng([inputs.seed, 3])
            for user in rng.choice(sorted(db.users()), size=CHECK_USERS, replace=False):
                user = int(user)
                history = db.user_history(user)
                batch = engine.release_batch(
                    [c.cell for c in history], rng=np.random.default_rng(plan.seed_of(user))
                )
                snapped = world.snap_batch(batch.points)
                stored = store.connection.execute(
                    "SELECT time, cell, x, y, exact, epsilon FROM releases "
                    "WHERE user = ? ORDER BY time",
                    (user,),
                ).fetchall()
                want = list(
                    zip(
                        [c.time for c in history],
                        snapped.tolist(),
                        batch.points[:, 0].tolist(),
                        batch.points[:, 1].tolist(),
                        batch.exact.astype(int).tolist(),
                        batch.epsilons.tolist(),
                    )
                )
                if stored != want:
                    problems.append(f"user {user}: stored rows differ from release_batch recomputation")
        users, times, cells, xs, ys = (np.array(column) for column in zip(*rows))
        true_rows = np.array(
            [(c.user, c.time, c.cell) for user in sorted(db.users()) for c in db.user_history(user)],
            dtype=int,
        )
        if true_rows.shape != (len(users), 3) or not (
            np.array_equal(true_rows[:, 0], users) and np.array_equal(true_rows[:, 1], times)
        ):
            return problems + ["store rows do not cover the true trace's (user, time) pairs"]
        true_cells = true_rows[:, 2]
        last = inputs.last_round
        want = batch_recompute(
            default_views(world), plan, users, times, np.column_stack((xs, ys)), true_cells, cells,
            upto=last,
        )[last]
        if dict(result.server.metrics_at(last)) != want:
            problems.append("live metrics_at(last round) differ from batch_recompute")
        return problems

    def report(self, out: dict) -> tuple[dict, dict, int, int]:
        """``(end-to-end metrics, per-workload detail, attempted, failed)``."""
        result: IngestResult = out["result"]
        releases = out["state"].releases * len(result.walls)
        releases_per_s = releases / sum(result.walls) if result.walls else 0.0
        e2e = {
            "ops_per_s": releases_per_s,
            "op_p50_ms": _median(result.walls) * 1e3,
            "op_tail_ms": max(result.walls, default=0.0) * 1e3,
            "store_bytes_per_release": _median(result.bytes_per_release),
        }
        detail = {
            "releases_per_s": releases_per_s,
            "batch_runs": len(result.walls),
            "batch_run_s": result.walls,
            "store_bytes_per_release": e2e["store_bytes_per_release"],
        }
        return e2e, detail, result.attempted, result.failed

    def layer_base(self, out: dict) -> tuple[float, int, float, float]:
        """``(work units, releases committed, untraced work s, traced work s)``."""
        traced = out["traced"]
        runs = len(traced.walls)
        return float(runs), runs * out["state"].releases, out["result"].work_s, traced.work_s


@dataclass
class QueryState:
    inputs: Inputs
    path: Path
    engine: QueryEngine
    ops: list
    bytes_per_release: float


class QueryWorkload(Workload):
    name = "query"
    engine_in_setup = True

    def setup(self):
        inputs = make_inputs(self.seed)
        path = _fresh(self.workdir / "query.db")
        with TraceStore(path) as store:
            server = run_ingest(inputs, store)
        del server
        gc.collect()
        size = store.file_size_bytes() / inputs.releases
        return QueryState(inputs, path, QueryEngine(path), query_sequence(inputs), size)

    def release(self, state: QueryState) -> None:
        state.engine.close()

    def check_before(self, state: QueryState) -> list[str]:
        problems = []
        store = state.engine.store
        for op in check_ops(state.inputs, state.ops):
            if execute(state.engine, op) != full_scan(store, state.inputs.world, op):
                problems.append(f"{op[0]} over {op[1]} (user {op[2]}) differs from the full scan")
        return problems

    def run(self, state: QueryState, tracer: Tracer | None = None, like=None):
        log = QueryLog()
        if tracer is not None:
            count_sql(state.engine.store.connection, tracer, "query.sql_executions")
        start = time.perf_counter()
        if like is None:
            def keep_going(index, log):
                return (
                    time.perf_counter() - start < self.seconds
                    or len(log.agg) < MIN_AGG
                    or len(log.user) < MIN_USER
                )
        else:
            def keep_going(index, log):
                return index < like.attempted
        try:
            query_loop(state.engine, state.ops, log, keep_going, tracer, "bench.query_loop")
        finally:
            state.engine.store.connection.set_trace_callback(None)
        return log

    def report(self, out: dict):
        log: QueryLog = out["result"]
        # Latency is gated on the aggregate class: the user-query median
        # flipped between two modes 35% apart from run to run on the VM
        # this was tuned on, while queries/s and the aggregate percentiles
        # moved with machine speed only.  User percentiles stay in the detail.
        e2e = {
            "ops_per_s": log.queries_per_s,
            "op_p50_ms": _pct(log.agg, 50) * 1e3,
            "op_tail_ms": _pct(log.agg, 90) * 1e3,
            "store_bytes_per_release": out["state"].bytes_per_release,
        }
        return e2e, log.detail(), log.attempted, log.failed

    def layer_base(self, out: dict) -> tuple[float, int, float, float]:
        return 1.0, 0, out["result"].wall_s, out["traced"].wall_s


@dataclass
class MixedState:
    inputs: Inputs
    path: Path
    store: TraceStore
    server: Server
    captured: list
    ops: list


@dataclass
class MixedResult:
    commit_latency: list
    commit_service: list
    commit_attempted: int
    commit_failed: int
    backlog_max: int
    lag_max_s: float
    freshness_s: float
    reader: QueryLog
    bytes_per_release: float

    @property
    def work_s(self) -> float:
        return sum(self.commit_service)


@contextmanager
def one_cpu():
    """Pin the calling thread, and the threads it starts, to one CPU.

    Threads inherit the affinity they are started with.  Unpinned, the
    writer and reader land on one core or on two from run to run, and the
    race's figures move with that placement rather than with the program.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class MixedWorkload(Workload):
    name = "mixed"
    engine_in_setup = True

    def setup(self, tag: str = "plain"):
        inputs = make_inputs(self.seed)
        plan = ShardPlan.build(sorted(inputs.db.users()), MIXED_COMMITS, rng=inputs.seed)
        captured = [
            (plan.shard_of(int(users[0])), users, times, batch)
            for users, times, batch in sharding.stream_shard_releases(
                inputs.engine, inputs.db, plan, backend="serial"
            )
        ]
        captured.sort(key=lambda item: item[0])
        path = _fresh(self.workdir / f"mixed-{tag}.db")
        store = TraceStore(path)
        server = Server(inputs.world, store=store)
        server.attach_metrics(default_views(inputs.world), expected_coverage(plan, inputs.db))
        return MixedState(inputs, path, store, server, captured, query_sequence(inputs))

    def traced_state(self, state: MixedState) -> MixedState:
        return self.setup(tag="traced")

    def release(self, state: MixedState) -> None:
        state.store.close()

    def run(self, state: MixedState, tracer: Tracer | None = None, like=None):
        server, captured = state.server, state.captured
        last_round = state.inputs.last_round
        first_ack = threading.Event()
        done = threading.Event()
        latency, service = [], []
        counters = {"failed": 0, "backlog": 0, "lag": 0.0, "freshness": 0.0}
        log = QueryLog()
        if tracer is not None:
            count_sql(state.store.connection, tracer, "store.sql_executions")

        def idle(seconds: float) -> None:
            with maybe_span(tracer, "bench.idle"):
                time.sleep(seconds)

        def writer() -> None:
            try:
                with maybe_span(tracer, "bench.writer"):
                    for k, (shard, users, times, batch) in enumerate(captured):
                        due = origin + k / MIXED_RATE
                        now = time.perf_counter()
                        if now < due:
                            idle(due - now)
                        began = time.perf_counter()
                        counters["lag"] = max(counters["lag"], began - due)
                        due_so_far = min(len(captured), int((began - origin) * MIXED_RATE) + 1)
                        counters["backlog"] = max(counters["backlog"], due_so_far - k)
                        try:
                            server.ingest_shard(users, times, batch, shard=shard)
                        except Exception:  # counted against commits; later shards still commit
                            counters["failed"] += 1
                        acked = time.perf_counter()
                        latency.append(acked - due)
                        service.append(acked - began)
                        first_ack.set()
                    # Freshness: from the final shard's due time until the live
                    # snapshot of the last round reads (never, if a commit failed).
                    try:
                        server.metrics_at(last_round)
                        counters["freshness"] = time.perf_counter() - due
                    except SnapshotUnavailableError:
                        pass
            finally:
                done.set()
                first_ack.set()

        def reader() -> None:
            first_ack.wait()
            with QueryEngine(state.path, world=state.inputs.world) as engine:
                if tracer is not None:
                    count_sql(engine.store.connection, tracer, "query.sql_executions")
                query_loop(
                    engine, state.ops, log, lambda index, log: not done.is_set(), tracer, "bench.reader"
                )

        origin = time.perf_counter() + 0.05
        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        with one_cpu():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        state.store.close()
        return MixedResult(
            commit_latency=latency,
            commit_service=service,
            commit_attempted=len(captured),
            commit_failed=counters["failed"],
            backlog_max=counters["backlog"],
            lag_max_s=counters["lag"],
            freshness_s=counters["freshness"],
            reader=log,
            bytes_per_release=state.store.file_size_bytes() / state.inputs.releases,
        )

    def check(self, state: MixedState, result: MixedResult) -> list[str]:
        """The final store must answer exactly as the 4-shard ingest store does."""
        problems = []
        inputs = state.inputs
        reference_path = _fresh(self.workdir / "mixed-reference.db")
        with TraceStore(reference_path) as store:
            reference_server = run_ingest(inputs, store)
        select = "SELECT user, time, cell, x, y, exact, epsilon FROM releases ORDER BY user, time"
        with QueryEngine(reference_path) as want, QueryEngine(state.path, world=inputs.world) as got:
            if want.store.connection.execute(select).fetchall() != got.store.connection.execute(
                select
            ).fetchall():
                problems.append("mixed store rows differ from the ingest store's")
            ops = check_ops(inputs, state.ops) + state.ops[: 2 * CHECK_USERS]
            for op in ops:
                if execute(got, op) != execute(want, op):
                    problems.append(f"{op[0]} over {op[1]} (user {op[2]}) differs from ingest's answer")
        last = inputs.last_round
        if dict(state.server.metrics_at(last)) != dict(reference_server.metrics_at(last)):
            problems.append("live metrics_at(last round) differ from ingest's")
        _fresh(reference_path)
        return problems

    def report(self, out: dict):
        result: MixedResult = out["result"]
        reader = result.reader
        e2e = {
            "ops_per_s": reader.queries_per_s,
            "op_p50_ms": _pct(result.commit_latency, 50) * 1e3,
            "op_tail_ms": _pct(result.commit_latency, 90) * 1e3,
            "store_bytes_per_release": result.bytes_per_release,
        }
        detail = {
            "commit_p50_ms": e2e["op_p50_ms"],
            "commit_p90_ms": e2e["op_tail_ms"],
            "commit_p95_ms": _pct(result.commit_latency, 95) * 1e3,
            "commit_service_p50_ms": _pct(result.commit_service, 50) * 1e3,
            "commits": len(result.commit_latency),
            "commit_rate_per_s": MIXED_RATE,
            "live_freshness_ms": result.freshness_s * 1e3,
            "backlog_max_shards": result.backlog_max,
            "writer_lag_max_ms": result.lag_max_s * 1e3,
            "store_bytes_per_release": result.bytes_per_release,
            **reader.detail(),
        }
        attempted = result.commit_attempted + reader.attempted
        failed = result.commit_failed + reader.failed
        return e2e, detail, attempted, failed

    def layer_base(self, out: dict) -> tuple[float, int, float, float]:
        releases = out["state"].inputs.releases
        return 1.0, releases, out["result"].work_s, out["traced"].work_s


WORKLOADS = {
    "ingest": IngestWorkload,
    "query": QueryWorkload,
    "mixed": MixedWorkload,
}
