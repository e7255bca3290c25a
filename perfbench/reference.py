#!/usr/bin/env python3
"""Regenerate the README's reference figures on this host.

Usage, from the root of a source checkout::

    python3 perfbench/reference.py --seed 1 --repeats 3

Prints, as JSON lines:

* the keep-alive ``GET /v1/health`` latency, which exposes the Nagle stall
  of ``api/http.py`` (headers and body leave in two sends; the client's
  delayed ACK holds the body back);
* the ``gibbs_jobs`` async derive latency on the process executor with 2
  workers against the serial executor, same rows and seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    from harness import Client, Server, encode
    from workloads import make_inputs

    inputs = make_inputs("gibbs_jobs", args.seed)
    learn = encode({"schema": inputs.schema_dict, "rows": inputs.learn_rows})
    body = encode({"rows": inputs.rows, "model": "default",
                   "config": inputs.config, "include_blocks": False})
    workdir = ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for executor in ("process", "serial"):
            server = Server(ROOT, workdir, [
                "--executor", executor, "--workers", "2",
                "--state-dir", str(workdir / executor)])
            client = Client(server.port)
            try:
                if executor == "process":
                    health = [client.call("GET", "/v1/health")[0]
                              for _ in range(20)]
                    print(json.dumps({"health_ms": statistics.median(health) * 1e3}))
                client.call("POST", "/v1/learn", learn)
                client.derive_async(body)  # warm-up
                times = [client.derive_async(body)[0]
                         for _ in range(args.repeats)]
            finally:
                client.close()
                server.stop()
            print(json.dumps({"executor": executor,
                              "derive_s": statistics.median(times),
                              "runs": [round(t, 3) for t in times]}))
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
