#!/usr/bin/env python3
"""End-to-end service benchmark of the ``repro`` derivation service.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload derive_bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` drives a real ``repro serve`` process over HTTP and prints the
end-to-end metrics; ``--trace 1`` replays the workload in-process with spans
around every layer and prints the per-layer metrics.  ``--smoke`` runs the
tiny input sizes with every check on.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fingerprint() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _exit_on_signal(signum: int, frame) -> None:
    """Turn SIGTERM/SIGHUP into SystemExit so every cleanup below runs."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every check on")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)

    from checks import CheckFailed
    from harness import adopt_orphans, end_children
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"valid: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print("host " + json.dumps(_fingerprint()), flush=True)

    adopt_orphans()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        inputs = make_inputs(args.workload, args.seed, smoke=args.smoke)
        gen_s = time.perf_counter() - start
        if args.trace:
            from layers import run_traced

            result = run_traced(inputs, workdir, ROOT / ".perfbench_traces")
        else:
            from e2e import RUNNERS

            result = RUNNERS[args.workload](
                inputs, args.seconds, ROOT, workdir, gen_s
            )
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", flush=True)
        correct, result = False, None
    finally:
        end_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    for note in result.notes:
        print(note)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(result.metrics.items())
    }
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
