"""The benchmark's traced run wraps package functions by name; each must exist.

bench/spans.py skips a TARGETS entry that the package lacks without any
error, so a rename here would silently drop a layer from the trace.  The
table is read with ``ast`` so the benchmark file is neither run nor changed.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _span_targets() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_every_span_target_exists():
    targets = _span_targets()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"entcert.{module}"), attr, None))
    ]
    assert targets
    assert missing == []
