"""Benchmark of qrstab: building large quasi-cyclic codes, and finding
distances exactly and as bounds.

Run from the repository root:

    python3 bench/run.py --workload exact-distance --seed 1 --seconds 40 --trace 0

A run sets qrstab up (fresh import plus construction of the codes the
workload searches), then makes whole rounds of the workload's operations,
closed loop: at least three, and more while another would end within
``--seconds``.  It sets up twice more before each round, so that set-up
is timed throughout the run.  Each operation is timed on its own, and a
pass's time is the sum of its operations' median times across the rounds.
The seed fixes the order of the operations within each pass.  Every output
is checked by the code in ``checks``, which shares none with qrstab.  The
last line of standard output is the result as one JSON object; with
``--trace 1`` a run makes an untraced, a traced and another untraced round,
whatever ``--seconds``, and reports the per-layer metrics of the traced
round instead of the end-to-end ones.
"""

import os

# One thread for numpy's linear algebra (used only by the checks), so that
# runs do not contend with themselves; must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib
import json
import random
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Unmet

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 3  # timed rounds per run at the least; see pass_seconds
SETUPS_PER_ROUND = 2  # set-ups timed before each round, for setup_s

# end-to-end metrics: (name, unit); pass1_s and pass2_s time the workload's
# two passes, and weight_total sums the weights the checks return
END_TO_END = (("setup_s", "s"), ("pass1_s", "s"), ("pass2_s", "s"),
              ("weight_total", "qubits"))


def import_qrstab() -> SimpleNamespace:
    """Import qrstab afresh; the namespace maps short names to its modules."""
    for name in [n for n in sys.modules if n == "qrstab" or n.startswith("qrstab.")]:
        del sys.modules[name]
    importlib.import_module("qrstab.cli")
    return SimpleNamespace(**{name.rpartition(".")[2]: module
                              for name, module in sys.modules.items()
                              if name == "qrstab" or name.startswith("qrstab.")})


def run_round(passes, tracer=None):
    """One round: each operation of each pass timed on its own, then the
    pass's outputs finished untimed.  Returns, per pass, a dict of
    operation times, and the (operation, output, error) of every operation."""
    times, results = [], []
    for ops in passes:
        outs, op_times = [], {}
        for op in ops:
            if tracer is not None:
                tracer.operation = op.name
            gc.collect()  # so that no operation pays for its predecessors' garbage
            start = perf_counter()
            try:
                out, err = op.run(), None
            except Exception:
                out, err = None, traceback.format_exc()
            op_times[op.name] = perf_counter() - start
            outs.append((op, out, err))
        times.append(op_times)
        for i, (op, out, err) in enumerate(outs):
            if err is None:
                if tracer is not None:
                    tracer.operation = op.name
                try:
                    outs[i] = (op, op.finish(out), None)
                except Exception:
                    outs[i] = (op, None, traceback.format_exc())
        results += outs
    return times, results


def pass_seconds(rounds, index: int) -> float:
    """A pass's time: the sum over its operations of each one's median
    time across the rounds.  Load from other tenants of the machine comes
    and goes within a run; the median follows the state the run spent most
    of its time in, where the fastest repeat follows whichever short calm
    stretch an operation happened to hit, and so varies more between runs."""
    names = rounds[0][0][index]
    return sum(statistics.median(times[index][name] for times, _ in rounds)
               for name in names)


def check_round(results):
    """(failed, wrong, weight) of one round's results.  An operation fails
    when it raised, or when its bound is worse than the trivial one; it is
    wrong when its output does not pass the checks."""
    failed = wrong = weight = 0
    for op, out, err in results:
        if err is not None:
            failed += 1
            print(f"FAILED {op.name}: raised\n{err}", file=sys.stderr)
            continue
        try:
            weight += op.check(out)
        except Unmet as exc:
            failed += 1
            weight += exc.weight
            print(f"FAILED {op.name}: {exc}", file=sys.stderr)
        except Exception as exc:
            wrong += 1
            print(f"WRONG {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return failed, wrong, weight


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qrstab" / "__init__.py").is_file():
        print(f"error: no qrstab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"tmp-{os.getpid()}"
    setups = []

    def set_up():
        start = perf_counter()
        Q = import_qrstab()
        workload = WORKLOADS[args.workload](Q, workdir)
        setups.append(perf_counter() - start)
        return Q, workload

    try:
        # the rounds all use the first set-up; the ones before each round
        # only spread the set-up samples over the run
        Q, workload = set_up()
        workload.prepare()
        rng = random.Random(args.seed)
        passes = [rng.sample(ops, len(ops)) for ops in workload.ops()]

        if args.trace:
            # a traced round between two untraced ones, so that warm-up in
            # the first round does not read as negative overhead
            tracer = Tracer()
            rounds, walls = [], []
            for traced in (False, True, False):
                if traced:
                    tracer.install(Q)
                try:
                    start = perf_counter()
                    rounds.append(run_round(passes, tracer if traced else None))
                    walls.append(perf_counter() - start)
                finally:
                    tracer.uninstall()
            values = tracer.layer_metrics()
            values["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            rounds = []
            start = perf_counter()
            while True:
                for _ in range(SETUPS_PER_ROUND):
                    set_up()
                round_start = perf_counter()
                rounds.append(run_round(passes))
                last = perf_counter() - round_start
                if (len(rounds) >= MIN_ROUNDS
                        and perf_counter() - start + last > args.seconds):
                    break
        tallies = [check_round(results) for _, results in rounds]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(t[0] for t in tallies)
    correct = not any(t[1] for t in tallies)
    weights = {t[2] for t in tallies}
    if len(weights) != 1:
        print(f"WRONG weights differ between rounds: {sorted(weights)}", file=sys.stderr)
        correct = False
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "pass1_s": pass_seconds(rounds, 0),
            "pass2_s": pass_seconds(rounds, 1),
            "weight_total": tallies[0][2],
        }
        units = dict(END_TO_END)
    result = {
        "correct": correct,
        "attempted": sum(len(results) for _, results in rounds),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} attempted {result['attempted']}, failed {failed}, "
          f"correct {correct}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"trace-{tag}.jsonl")
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
