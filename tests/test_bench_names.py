import ast
import importlib
import re
from pathlib import Path

import crbplan

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced_names():
    """(module, function) of each row of ``bench/spans.py``'s TRACED table,
    read as text: the bench is not imported."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return [(row.elts[0].value, row.elts[1].value) for row in table.elts]


def _resolve(dotted: str):
    """``crbplan.<dotted>``, importing a submodule where an attribute is one."""
    value = crbplan
    for part in dotted.split("."):
        if not hasattr(value, part):
            importlib.import_module(f"{value.__name__}.{part}")
        value = getattr(value, part)
    return value


def test_every_name_the_bench_reads_exists():
    # the tracer wraps each TRACED function by getattr, so a deleted name
    # breaks every traced run; the workloads call cp.<name> on the package
    traced = _traced_names()
    assert len(traced) > 10
    for module, function in traced:
        assert hasattr(importlib.import_module(module), function), (module, function)
    used = set()
    for path in sorted(BENCH.rglob("*.py")):
        used.update(re.findall(r"\bcp\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", path.read_text("utf-8")))
    assert "plan" in used
    for dotted in sorted(used):
        _resolve(dotted)
