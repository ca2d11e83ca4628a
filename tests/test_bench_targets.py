"""The benchmark's tracer finds every function it wraps.

``bench/spans.py`` names qrstab functions by module and attribute and wraps
them only when a traced round starts, so a rename would otherwise surface
as a crash of ``bench/run.py --trace 1`` rather than as a failing test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("module_name,attr", [t[:2] for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_trace_target_resolves(module_name, attr):
    # looked up as Tracer.install does: a method in its class's own __dict__
    owner = importlib.import_module(f"qrstab.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in getattr(owner, cls_name).__dict__
    else:
        assert callable(getattr(owner, attr))
