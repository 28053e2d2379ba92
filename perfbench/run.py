#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/``.

    python3 perfbench/run.py --workload engine_sample --seed 1 \
        --seconds 24 --trace 0

Run from the root of a checkout.  The workload's inputs come from
``--seed``; the timed phase lasts ``--seconds``.  With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` it holds the per-layer metrics, and the spans
are written to ``.bench_build/perfbench/``.  The line before it
(``record {...}``) carries the run record: backend, host-noise probes,
sample counts and the figures that are not metrics.  See README.md.

Everything the run writes stays under ``.bench_build/`` in the checkout,
the compiled descent kernel's cache included.  The run exits non-zero
without a result when the program cannot be imported from ``src/`` or
the descent backend is not the expected one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("engine_sample", "serve_http", "churn_durable")
#: A run on any other descent backend measures a different program.
EXPECTED_BACKEND = "native"


def _prepare_environment() -> None:
    """Keep every file the program writes inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0", 2)

    _prepare_environment()
    try:
        import repro
    except ImportError as exc:
        return _fail(f"cannot import the program from {ROOT / 'src'}: {exc}",
                     2)
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"imported repro from {repro.__file__}, not from src/", 2)

    from common import (
        E2E_UNITS,
        LAYER_UNITS,
        RECORD_MS,
        calibration_ms,
        cpu_times,
        steal_fraction,
    )
    from repro.core.native import native_status, resolve_backend

    # Build or load the compiled kernel before any clock starts.
    status = native_status()
    backend = resolve_backend(EXPECTED_BACKEND)
    if backend != EXPECTED_BACKEND:
        return _fail(f"descent backend is {backend!r}, expected "
                     f"{EXPECTED_BACKEND!r} ({status['reason']})", 3)

    workload = importlib.import_module(args.workload)
    work = BUILD / "perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calib_before = calibration_ms()
    cpu_before = cpu_times()
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace),
                              work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal = steal_fraction(cpu_before, cpu_times())
    calib = (calib_before + calibration_ms()) / 2

    if args.trace:
        result.layers["trace.throughput_rps"] = result.e2e["throughput_rps"]
        result.layers["trace.sample_p50_ms"] = result.e2e["sample_p50_ms"]
        spans = BUILD / "perfbench" / (
            f"spans-{args.workload}-seed{args.seed}.json")
        spans.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p}
             for n, s, e, p in result.spans]))
        units, values = LAYER_UNITS, result.layers
    else:
        units, values = E2E_UNITS, result.e2e
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    for name, unit in E2E_UNITS.items():
        print(f"{args.workload} {name} = {result.e2e[name]:.6g} {unit}")
    for name, value in result.notes.get("raw", {}).items():
        print(f"{args.workload} raw {name} = {value:.6g} {E2E_UNITS[name]} "
              "(run record only)")
    for name in RECORD_MS:
        print(f"{args.workload} {name} = {result.notes[name]:.6g} ms "
              "(run record only)")
    print(f"{args.workload} failed_frac = "
          f"{result.failed / max(result.attempted, 1):.6g} fraction "
          f"({result.failed} of {result.attempted})")
    for problem in result.problems:
        print(f"{args.workload} check failed: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "descent_backend": backend,
        "nproc": os.cpu_count(),
        "host.calib_ms": calib,
        "host.steal_frac": steal,
        "failed_frac": result.failed / max(result.attempted, 1),
        **result.notes,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
