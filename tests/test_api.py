"""The package surface that callers and the benchmark harness depend on."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
from collections import Counter
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


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(name):
    layer, fn = name.split(".", 1)
    target = importlib.import_module(f"injcheck.{layer}")
    for part in fn.split("."):
        target = getattr(target, part)
    return target


def test_traced_functions_exist():
    tracing = _tracing()
    assert len(tracing.TRACED) == 17
    for layer, fn in tracing.TRACED:
        assert callable(_traced(f"{layer}.{fn}")), f"{layer}.{fn}"


def test_work_count_hooks_bind_their_functions_arguments():
    # a hook is called as hook(tracer, idx, counts, result, *args, **kwargs)
    # with the traced call's own arguments; one that no longer binds them
    # raises inside the wrapper, which a traced run shows only as a failed
    # operation
    hooks = _tracing()._HOOKS
    assert "feasibility.feasible_cone" in hooks
    for name, hook in hooks.items():
        params = list(inspect.signature(_traced(name)).parameters.values())
        hook_sig = inspect.signature(hook)
        named = [p for p in list(hook_sig.parameters.values())[4:]
                 if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        assert [(p.name, p.default) for p in named] == [
            (p.name, p.default) for p in params[:len(named)]], name
        required = [p for p in params if p.default is p.empty
                    and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        by_position = [p for p in params
                       if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        by_keyword = [p for p in params
                      if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
        head = (None, 0, Counter(), None)
        hook_sig.bind(*head, *(object() for _ in required))
        hook_sig.bind(*head, *(object() for _ in by_position))
        hook_sig.bind(*head, *(object() for _ in required),
                      **{p.name: object() for p in by_keyword if p not in required})
        hook_sig.bind(*head, **{p.name: object() for p in by_keyword})


def test_injectivity_imports_nothing_from_oracle():
    # decisions are exact; the randomized falsifier stays an outside check
    path = ROOT / "src" / "injcheck" / "injectivity.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert "oracle" not in (node.module or "")
            assert "oracle" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert all("oracle" not in a.name for a in node.names)


def test_oracle_config_has_no_screen_knob():
    # the falsifier's float screen is internal: a change to it keeps every
    # witness, so it needs no field to switch it
    assert [f.name for f in dataclasses.fields(injcheck.OracleConfig)] == [
        "trials", "seed", "batch", "max_exact_attempts"]


@pytest.mark.parametrize("name", ["sign_enum_dim", "vertices", "monomials", "branches"])
def test_negative_caps_are_rejected(name):
    with pytest.raises(ValueError, match=f"cap {name} must be >= 0, got -1"):
        Caps(**{name: -1})
    with pytest.raises(ValueError, match=f"cap {name} must be >= 0"):
        parse_caps_spec(f"{name}=-1")
    assert getattr(Caps(**{name: 0}), name) == 0


def test_patterns_is_not_a_cap():
    with pytest.raises(ValueError, match="unknown cap 'patterns'"):
        parse_caps_spec("patterns=1")


# metrics that perfbench/run.py computes itself rather than from tracing's names
_RUN_METRICS = {
    "feasibility.feasible_ratio", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.spans", "trace.span_overhead_s", "trace.op_wall_s", "trace.self_sum_s",
}


def test_benchmark_metrics_are_ones_perfbench_emits():
    # a Route member or traced function dropped from the package would drop a
    # declared metric from every traced benchmark result
    tracing = _tracing()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert declared
    for name in (m["name"] for m in declared):
        head, _, tail = name.rpartition(".")
        if tail in ("calls", "self_s"):
            assert head in tracing.NAMES, name
        elif name not in _RUN_METRICS:
            assert name in tracing.WORK_COUNTS, name
