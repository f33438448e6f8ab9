"""The benchmark's tracer wraps jobrec functions by name; each must exist.

`bench/spans.py` lists them in `WRAPPED` as (module, attribute path,
observer). The file is parsed, not imported, so nothing under `bench/`
runs or is written.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped_targets():
    """Span name -> (module, attribute path), read from the `WRAPPED` literal."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return {ast.literal_eval(k): (ast.literal_eval(v.elts[0]), ast.literal_eval(v.elts[1]))
                    for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError(f"no WRAPPED assignment in {SPANS}")


def test_every_wrapped_name_resolves():
    targets = wrapped_targets()
    assert "similarity.top_k_jaccard" in targets and len(targets) >= 20
    for span, (module, path) in targets.items():
        assert module.startswith("jobrec."), span
        target = reduce(getattr, path.split("."), importlib.import_module(module))
        assert callable(target), (span, module, path)
