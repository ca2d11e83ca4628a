"""Run the benchmark and keep its result as BENCH_<label>.json.

    python3 tools/bench_json.py LABEL -- RUN_ARGS...

Runs ``python3 bench/run.py RUN_ARGS...`` from the repository root, with
its standard error passed through, and writes the last line of its
standard output, one JSON object, to ``BENCH_<label>.json`` at the
repository root under the keys ``label``, ``code`` (``git describe
--always --dirty``), ``command``, ``host`` and ``result``.
Exits with the run's exit code; writes nothing when the run prints no
result.  Example:

    python3 tools/bench_json.py isd_draw -- --workload bounded-distance --seed 0 --seconds 40
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run bench/run.py and write BENCH_<label>.json.")
    ap.add_argument("label")
    ap.add_argument("run_args", nargs="*", help="arguments of bench/run.py, after --")
    args = ap.parse_args(argv)
    command = ["python3", "bench/run.py", *args.run_args]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        print("bench/run.py printed no result", file=sys.stderr)
        return run.returncode or 1
    code = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    record = {
        "label": args.label,
        "code": code,
        "command": " ".join(command),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "result": json.loads(lines[-1]),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
