"""Spans around qrstab's functions, installed from outside the program.

Each traced function is replaced, for the length of a traced round, at every
place a caller looks it up: the module attribute, every other qrstab module
that imported the name, or the class that defines the method.  Spans are
kept in memory; ``layer_metrics`` folds them into per-layer figures and
``write`` saves them as JSON lines.
"""

from __future__ import annotations

import json
from time import perf_counter


def _evaluated(args, result) -> int:
    return int(result.evaluated)


def _matrix_bits(args, result) -> int:
    return args[0].rows * args[0].cols


# (module, attribute, span name, work counter or None)
TARGETS = (
    ("numtheory", "classify_prime", "numtheory.classify_prime", None),
    ("type2", "lift", "type2.lift", None),
    ("type2", "build_qcs", "type2.build_qcs", None),
    ("symplectic", "sip_check", "symplectic.sip_check", None),
    ("gf2", "Gf2Matrix.rank", "gf2.rank", _matrix_bits),
    ("gf2", "Gf2Matrix.independent_row_subset", "gf2.independent_row_subset", None),
    ("gf2", "Gf2Matrix.__matmul__", "gf2.matmul", None),
    ("gf2", "Gf2Matrix.in_row_space", "gf2.in_row_space", None),
    ("analysis", "standard_form", "analysis.standard_form", None),
    ("analysis", "d_dagger", "analysis.d_dagger", None),
    ("analysis", "d_min", "analysis.d_min", None),
    ("minweight", "min_weight_affine", "minweight.min_weight_affine", _evaluated),
    ("minweight", "low_weight_commuting", "minweight.low_weight_commuting", None),
    ("minweight", "isd_search", "minweight.isd_search", _evaluated),
    ("records", "make_record", "records.make_record", None),
    ("records", "CodeRecord.to_json", "records.to_json", None),
    ("records", "CodeRecord.from_json", "records.from_json", None),
    ("alist", "export_alist", "alist.export_alist", None),
    ("alist", "import_alist", "alist.import_alist", None),
    ("cli", "main", "cli.main", None),
)

# what the work counter of a span counts, by span name
WORK = {"gf2.rank": "bits", "minweight.min_weight_affine": "elements",
        "minweight.isd_search": "candidates"}

# per-layer metrics: (name, unit, better); rates are work over self time
LAYER_METRICS = (
    ("gf2.rank.calls", "count", "lower"),
    ("gf2.rank.self_s", "s", "lower"),
    ("gf2.rank.bits_per_s", "bit/s", "higher"),
    ("gf2.independent_row_subset.self_s", "s", "lower"),
    ("gf2.matmul.self_s", "s", "lower"),
    ("gf2.in_row_space.calls", "count", "lower"),
    ("gf2.in_row_space.self_s", "s", "lower"),
    ("numtheory.classify_prime.self_s", "s", "lower"),
    ("symplectic.sip_check.self_s", "s", "lower"),
    ("type2.lift.self_s", "s", "lower"),
    ("type2.build_qcs.self_s", "s", "lower"),
    ("analysis.standard_form.calls", "count", "lower"),
    ("analysis.standard_form.self_s", "s", "lower"),
    ("analysis.d_min.self_s", "s", "lower"),
    ("analysis.d_dagger.self_s", "s", "lower"),
    ("minweight.min_weight_affine.calls", "count", "lower"),
    ("minweight.min_weight_affine.self_s", "s", "lower"),
    ("minweight.min_weight_affine.elements", "count", "lower"),
    ("minweight.min_weight_affine.elements_per_s", "1/s", "higher"),
    ("minweight.low_weight_commuting.self_s", "s", "lower"),
    ("minweight.isd_search.calls", "count", "lower"),
    ("minweight.isd_search.self_s", "s", "lower"),
    ("minweight.isd_search.candidates", "count", "lower"),
    ("minweight.isd_search.candidates_per_s", "1/s", "higher"),
    ("records.make_record.self_s", "s", "lower"),
    ("records.to_json.self_s", "s", "lower"),
    ("records.from_json.self_s", "s", "lower"),
    ("alist.export_alist.self_s", "s", "lower"),
    ("alist.import_alist.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records a span per call of each target while installed.

    A span is [name, operation, parent span index, start, end, time spent
    in child spans, work]; ``operation`` names the benchmark operation that
    caused it, so the spans of one operation share it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.operation = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, self.operation, parent, perf_counter(), 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[4] - span[3]
            if work is not None:
                span[6] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, Q) -> None:
        """Wrap every target of the qrstab modules held by namespace Q."""
        modules = list(vars(Q).values())
        for module_name, attr, name, work in TARGETS:
            owner = getattr(Q, module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, work)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw, work))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self time and work per span name, as the per-layer metrics."""
        totals: dict[str, list] = {}
        for name, _, _, start, end, child, work in self.spans:
            t = totals.setdefault(name, [0, 0.0, 0])
            t[0] += 1
            t[1] += end - start - child
            t[2] += work
        out = {}
        for metric, _, _ in LAYER_METRICS:
            name, measure = metric.rsplit(".", 1)
            calls, self_s, work = totals.get(name, (0, 0.0, 0))
            if measure == "calls":
                out[metric] = calls
            elif measure == "self_s":
                out[metric] = self_s
            elif measure == WORK.get(name):
                out[metric] = work
            elif measure == f"{WORK.get(name)}_per_s":
                out[metric] = work / self_s if self_s > 0 else 0.0
        return out

    def write(self, path) -> None:
        keys = ("name", "operation", "parent", "start", "end", "child_s", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
