"""The package surface that callers and the benchmark harness depend on."""

import ast
import importlib.util
from pathlib import Path

import pytest

import injcheck
from injcheck.limits import Caps, parse_caps_spec

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


def test_injectivity_imports_nothing_from_oracle():
    # decisions are exact; the randomized falsifier stays an outside check
    path = ROOT / "src" / "injcheck" / "injectivity.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert "oracle" not in (node.module or "")
            assert "oracle" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert all("oracle" not in a.name for a in node.names)


@pytest.mark.parametrize("name", ["sign_enum_dim", "patterns", "vertices", "monomials",
                                  "branches"])
def test_negative_caps_are_rejected(name):
    with pytest.raises(ValueError, match=f"cap {name} must be >= 0, got -1"):
        Caps(**{name: -1})
    with pytest.raises(ValueError, match=f"cap {name} must be >= 0"):
        parse_caps_spec(f"{name}=-1")
    assert getattr(Caps(**{name: 0}), name) == 0
