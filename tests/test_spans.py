"""The benchmark's span targets name code that exists.

bench/spans.py wraps slicectl's functions by name from the outside, and a
name that no longer resolves only lowers the trace's coverage there. This
test loads that module by its path, which needs nothing beyond the
standard library, and resolves each target the way Tracer.install does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _spans_module().TARGETS
    assert len(targets) == 39
    missing = []
    for place, _ in targets:
        module_name, _, path = place.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(place)
    assert missing == []
