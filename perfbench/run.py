"""The serving benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-conj --seed 1 --trace 0
    python3 perfbench/run.py --workload all           # every workload
    python3 perfbench/run.py --workload batch-conj --seed held-out --trace 1

It trains the served model, round-trips it through ``save_estimator`` /
``load_estimator``, boots an in-process ``EstimationServer`` configured
from the ``repro serve`` defaults, and drives it over HTTP with a closed
loop for ``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``,
which also names the metrics).  Timings are reported at a reference
host speed (:mod:`perfbench.hostspeed`); the raw figures are printed
beside them.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs an untraced phase,
then a traced phase of the same length, and reports the per-layer
metrics (span log under ``.perfbench_out/``).  The last line of
standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
See ``perfbench/WORKLOADS.md`` for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: A seed kept out of development runs, for re-checking a gain claim on
#: inputs it was not tuned on (``--seed held-out``).
HELD_OUT_SEED = 90_001

#: Set-up is repeated this many times per run; ``setup_s`` is the
#: median round, at the reference host speed of the probe.
SETUP_ROUNDS = 3

#: Untimed warm-up requests per set-up round.
WARMUP_REQUESTS = {"point-conj": 256, "batch-conj": 16, "mixed-feedback": 16}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit with 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT), str(src)]


def _seed(text: str) -> int:
    return HELD_OUT_SEED if text == "held-out" else int(text)


def _host_config(workload: str, seed: int, seconds: float, trace: bool,
                 serve: dict, model: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "serve_defaults": serve,
        "model": model,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from repro import obs
    from repro.persistence import load_estimator

    from perfbench import loadgen, report, service, workloads
    from perfbench.hostspeed import HostSpeed
    from perfbench.layers import SpanRecorder

    serve = service.serve_defaults()
    print("config " + json.dumps(_host_config(
        name, seed, seconds, trace, serve, service.MODEL), sort_keys=True))
    workload = workloads.generate(name, service.make_table(), seed)
    artifact = OUT_DIR / f"model-{os.getpid()}.npz"
    # (start ns, end ns) of each set-up round.
    rounds: list[tuple[int, int]] = []
    deployment = None
    speed = HostSpeed()
    try:
        with speed:
            for _ in range(SETUP_ROUNDS):
                if deployment is not None:
                    deployment.stop()
                start = time.perf_counter_ns()
                deployment = service.deploy(name == "mixed-feedback",
                                            artifact)
                cursor = itertools.count()
                loadgen.warm_up(deployment.server.url, workload, cursor,
                                WARMUP_REQUESTS[name])
                rounds.append((start, time.perf_counter_ns()))
            # Not compiled: the reference walks the per-tree loop, so a
            # wrong answer from the served packed forest cannot match it.
            oracle = loadgen.Oracle(workload, load_estimator(artifact))
            url = deployment.server.url
            untraced = loadgen.drive(url, workload, oracle, seconds, cursor)
            phases = [untraced]
            if trace:
                live = deployment.service
                caches = {"estimate": live.cache, "parse": live.parse_cache,
                          "plan": live.plan_cache}
                before = {key: cache.stats() for key, cache in caches.items()}
                rejected = obs.get_registry().counter("serve.rejected_total")
                rejected_before = rejected.value
                recorder = SpanRecorder()
                recorder.install([live])
                try:
                    traced = loadgen.drive(url, workload, oracle, seconds,
                                           cursor, recorder)
                finally:
                    recorder.restore()
                phases.append(traced)
                after = {key: cache.stats() for key, cache in caches.items()}
                rejected_delta = rejected.value - rejected_before
            else:
                rest = len(workload.statements) - len(untraced.served)
                wrong = loadgen.serve_rest(url, workload, oracle,
                                           untraced.served)
    finally:
        if deployment is not None:
            deployment.stop()
        artifact.unlink(missing_ok=True)
    if trace:
        metrics = report.per_layer(
            recorder.spans, untraced, traced, before, after, rejected_delta,
            os.cpu_count() or 1, speed)
        units = report.PER_LAYER
        print(f"per-layer ({name}, seed {seed}, traced phase):")
        print(report.span_table(recorder.spans))
        if recorder.missing:
            print("  not wrapped (gone from the program): "
                  + ", ".join(recorder.missing))
        recorder.write_jsonl(OUT_DIR / f"spans-{name}.jsonl")
    else:
        setup_raw = [(end - start) / 1e9 for start, end in rounds]
        setup_ref = [raw / speed.slowdown(start, end)
                     for raw, (start, end) in zip(setup_raw, rounds)]
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = report.end_to_end(
            untraced, workload.truths, oracle.estimates, speed,
            statistics.median(setup_ref), statistics.median(setup_raw),
            peak_rss_mb)
        units = report.END_TO_END
        print(f"end-to-end ({name}, seed {seed}):")
        print(report.format_table(metrics, report.PRINTED_ONLY))
    print(report.format_table(metrics, units))
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    mismatches = sum(phase.mismatches for phase in phases)
    if not trace:
        attempted += rest
        failed += wrong
        mismatches += wrong
    return {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit}
                    for key, unit in units.items()},
    }


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; print each table."""
    from perfbench.workloads import NAMES

    results = {}
    for name in NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", args.seed,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = completed.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {completed.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["point-conj", "batch-conj",
                                 "mixed-feedback", "all"])
    parser.add_argument("--seed", default="1",
                        help="workload seed, or 'held-out'")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seed = _seed(args.seed)
    _import_program()
    from perfbench.report import BENCHMARK

    if args.seconds is None:
        args.seconds = float(BENCHMARK["run_seconds"])
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
