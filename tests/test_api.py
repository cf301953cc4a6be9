"""The package surface that callers and the benchmark harness depend on."""

import ast
import importlib.util
from pathlib import Path

import injcheck

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_a_literal_list():
    tree = ast.parse(Path(injcheck.__file__).read_text(encoding="utf-8"))
    values = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(values) == 1
    assert isinstance(values[0], ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str)
               for e in values[0].elts)
    assert len(set(injcheck.__all__)) == len(injcheck.__all__)


def test_every_exported_name_resolves():
    for name in injcheck.__all__:
        assert getattr(injcheck, name) is not None, name


def test_route_values():
    assert [r.value for r in injcheck.Route] == [
        "DET_ROUTE", "SIGN_ROUTE", "PATTERN_UNION", "TRIVIAL", "NONE",
    ]


def test_traced_functions_exist():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TRACED) == 17
    for layer, fn in tracing.TRACED:
        target = importlib.import_module(f"injcheck.{layer}")
        for part in fn.split("."):
            target = getattr(target, part)
        assert callable(target), f"{layer}.{fn}"
