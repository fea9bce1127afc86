"""Repository benchmark: store-backed ingest, analyst queries, and the two racing.

Run one workload::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, with a summary table::

    python3 perfbench/run.py --seed 1

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the same timed phase runs once untraced and once with span
wrappers installed around each layer's entry points (``tracing.py``), and
the metrics are the per-layer ones.  Two ``#``-prefixed lines before it
carry the environment block and the workload's own named metrics
(``releases_per_s``, ``commit_p95_ms``, ``agg_query_p90_ms``,
``failed_op_ratio``, ...).

End-to-end metrics, per workload (each workload reports every one):

===========================  ======================  =======================  ========================
metric                       ingest                  query                    mixed
===========================  ======================  =======================  ========================
``ops_per_s``                releases committed/s    queries answered/s       reader queries/s
``op_p50_ms``                median batch run        median aggregate query   median commit from due
``op_tail_ms``               slowest batch run       p90 aggregate query      p90 commit from due
``store_bytes_per_release``  store file plus ``-wal``/``-shm`` after close, over releases stored
``peak_rss_mb``              peak resident set of the workload's process over set-up and the
                             timed phase, read before the output checks run
``setup_s``                  median of the run's set-ups after a warm-up one (at least three, and
                             at least 5 s of them; ``ingest`` also sets up before each batch run)
===========================  ======================  =======================  ========================

``BENCHMARK.json`` lists ``ingest`` and ``query`` only.  ``mixed`` runs
here and in the all-workloads table, with its checks and traced split, but
is not gated: on the shared 2-core VM it was tuned on, its reader
throughput and commit latencies moved by 20-30% (quartile distance over
median) between identical runs, above the largest bound a gated metric may
have.

Outputs are checked in the same run (see ``workloads.py``); a mismatch
prints ``"correct": false`` and exits with status 1.  Stores and span dumps
are written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def declared_units(trace: int) -> dict[str, str]:
    """``metric -> unit`` as ``BENCHMARK.json`` declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` only; exit 2 if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"benchmark: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import sqlite3

    import numpy

    import workloads

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mixed_commit_rate_per_s": workloads.MIXED_RATE,
        "users": workloads.N_USERS,
        "rounds": workloads.HORIZON,
        "grid": workloads.GRID,
        "ingest_shards": workloads.INGEST_SHARDS,
    }


def run_one(args) -> int:
    _import_program()
    import workloads
    from tracing import per_layer_metrics

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        out = workload.measure(trace=bool(args.trace))
        e2e, detail, attempted, failed = workload.report(out)
        e2e["peak_rss_mb"] = out["peaks"]["run"]
        e2e["setup_s"] = out["setup_s"]
        detail["failed_op_ratio"] = failed / attempted if attempted else 0.0
        detail["setup_s"] = out["setup_s"]
        detail["peak_rss_mb"] = e2e["peak_rss_mb"]
        detail.update({f"peak_rss_after_{phase}_mb": mb for phase, mb in out["peaks"].items()})
        if args.trace:
            tracer = out["tracer"]
            scale, releases, plain_s, traced_s = workload.layer_base(out)
            metrics = per_layer_metrics(tracer, scale, releases)
            if workload.engine_in_setup:
                metrics["engine.shard_wait_s"] = (
                    out["setup_tracer"].summary().get("engine.shard_wait", {}).get("total_s", 0.0)
                )
            metrics["bench.backlog_max_shards"] = float(getattr(out["result"], "backlog_max", 0))
            metrics["bench.trace_overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
            tracer.dump(ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        else:
            metrics = e2e
        problems = out["problems"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print("# env " + json.dumps(environment(args)))
    print("# detail " + json.dumps({"workload": args.workload, **detail, "problems": problems}))
    for problem in problems:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process (so peaks cannot leak), then a table."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    status = 0
    for name in ("ingest", "query", "mixed"):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            status = 1
        if not lines:
            print(f"{name}: no output (exit {done.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = next(
            (json.loads(line[len("# detail "):]) for line in lines if line.startswith("# detail ")), {}
        )
        env = next((line for line in lines if line.startswith("# env ")), "")
        if name == "ingest" and env:
            print(env)
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
        for key, value in detail.items():
            if key not in ("workload", "problems", "batch_run_s"):
                print(f"   detail.{key:25s} {value:>14.6g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ingest", "query", "mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
