#!/usr/bin/env python3
"""cvbell benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload theorem_sweep --seed 1 --seconds 20 --trace 0

Workloads: theorem_sweep, two_mode_batch, structured_search, cli_requests
(see perfbench/README.md); ``--workload all`` runs each in turn, each in its
own process. ``--trace 0`` reports the end-to-end metrics with no wrappers
installed. ``--trace 1`` measures half the time untraced and half with every
layer function wrapped, and reports the per-layer metrics and the tracing
overhead. Metric lines and the environment go to standard
output; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Runs build cvbell from ``src/`` of
the checkout this file sits in and exit 2 without a result if it is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

WORKLOADS = {
    "theorem_sweep": ("inproc", "TheoremSweep"),
    "two_mode_batch": ("inproc", "TwoModeBatch"),
    "structured_search": ("inproc", "StructuredSearch"),
    "cli_requests": ("cli_requests", "CliRequests"),
}
THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fresh processes timed per run for setup_s and cli.import_ms (median).
PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for smoke tests")
    # internal: build the inputs, print "ready" and exit (timed by the parent)
    ap.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def make_workload(args, workdir: Path):
    module_name, class_name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module_name), class_name)
    tiny = args.size == "tiny"
    if args.workload == "cli_requests":
        return cls(args.seed, tiny, workdir, child_env())
    return cls(args.seed, tiny)


def setup_seconds(args, probes: int) -> list[float]:
    """Process start to inputs ready, in fresh processes."""
    times = []
    for i in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-probe", str(WORK / f"probe-{os.getpid()}-{i}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.communicate(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        times.append(ready - start)
    return times


def import_ms(probes: int) -> list[float]:
    """In-process time of ``import cvbell.cli`` in fresh processes."""
    code = ("import time; t = time.perf_counter(); import cvbell.cli; "
            "print(time.perf_counter() - t)")
    return [1e3 * float(subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True, timeout=60,
        capture_output=True, text=True).stdout) for _ in range(probes)]


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    from importlib import metadata

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": git_commit(),
        "src_sha256": source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb(workload_name: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload_name == "cli_requests"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def end_to_end(args, workload) -> tuple[dict, object]:
    from measure import latency_summary, measure, report_errors

    # compile every module once so no timed process pays for it
    subprocess.run([sys.executable, "-c", "import cvbell.cli"], env=child_env(),
                   check=True, timeout=60)
    setups = setup_seconds(args, 1 if args.size == "tiny" else PROBES)
    m = measure(workload.cycle, args.seconds)
    report_errors(m)
    p50, tail, tail_pct, samples = latency_summary([s for _, s in m.durations])
    print(f"workload {args.workload}: {m.attempted} items in {len(m.durations)} "
          f"units, {m.elapsed:.2f} s ({m.cycles} cycles), {m.failed} failed")
    for kind, median in m.kind_medians().items():
        count = sum(1 for k, _ in m.durations if k == kind)
        print(f"  latency {kind}: median {1e3 * median:.4g} ms over {count} units")
    print(f"failed_frac = {m.failed / m.attempted!r} ({m.failed} of {m.attempted})")
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes"),
        "items_per_s": (m.items_per_s, "1/s", f"{m.attempted - m.failed} items"),
        "item_p50_ms": (1e3 * p50, "ms", f"{samples} samples"),
        "item_tail_ms": (1e3 * tail, "ms", f"p{tail_pct:.4g} of {samples} samples"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    return metrics, m


def per_layer(args, workload) -> tuple[dict, object]:
    from measure import Measurement, measure, report_errors
    from spans import Tracer, layer_totals

    imports = import_ms(1 if args.size == "tiny" else PROBES)
    plain = measure(workload.cycle, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload.cycle, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    report_errors(plain)
    report_errors(traced)
    items = traced.attempted
    metrics = {}
    for layer, (calls, secs) in layer_totals(tracer.spans).items():
        metrics[f"{layer}.calls"] = (calls / items, "1/item")
        metrics[f"{layer}.self_ms"] = (1e3 * secs / items, "ms/item")
    counts = tracer.counts
    rows = counts.get("cfrd.beta_from_table.rows", 0)
    problems = counts.get("search.batched_nelder_mead.problems", 0)
    metrics["cfrd.beta_from_table.rows"] = (rows / items, "1/item")
    metrics["search.evals_per_problem"] = (rows / problems if problems else 0.0, "count")
    metrics["search.optimize_settings.evaluations"] = (
        counts.get("search.optimize_settings.evaluations", 0) / items, "1/item")
    metrics["cli.import_ms"] = (statistics.median(imports), "ms",
                                f"median of {len(imports)} fresh processes")
    failed_requests = plain.failed + traced.failed if args.workload == "cli_requests" else 0
    metrics["cli.requests_failed"] = (failed_requests, "count")
    metrics["trace.items_per_s"] = (traced.items_per_s, "1/s")
    metrics["trace.untraced_items_per_s"] = (plain.items_per_s, "1/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (plain.items_per_s / traced.items_per_s - 1.0), "%")
    print(f"workload {args.workload}: untraced {plain.attempted} items in "
          f"{plain.elapsed:.2f} s, traced {traced.attempted} items in "
          f"{traced.elapsed:.2f} s, {len(tracer.spans)} spans")
    for line in getattr(workload, "trace_lines", lambda _: [])(tracer):
        print(line)
    both = Measurement(attempted=plain.attempted + traced.attempted,
                       failed=plain.failed + traced.failed)
    return metrics, both


def run_all(args) -> int:
    """Run every workload in its own process; the last line sums them and
    prefixes each metric with its workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "cvbell" / "__init__.py").is_file():
        print(f"error: no cvbell sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    if args.setup_probe:
        workdir = Path(args.setup_probe)
        try:
            make_workload(args, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args, workdir)
        loaded = sys.modules.get("cvbell")
        if loaded is not None and Path(loaded.__file__).resolve().parent != SRC / "cvbell":
            print(f"error: cvbell imported from {loaded.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        print("env " + json.dumps(environment(args), sort_keys=True))
        metrics, m = (per_layer if args.trace else end_to_end)(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # absent, or another run still uses it
            pass
    for name, (value, unit, *note) in metrics.items():
        print_metric(name, value, unit, *note)
    print(json.dumps({
        "correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
