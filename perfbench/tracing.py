"""Span tracing of injcheck's public functions, from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every
`injcheck.*` namespace that binds it (modules bind many of them with
`from .linalg import kernel_basis`, so patching only the home module would
miss those calls). Each call records a span: function, start, end, parent
span and operation id. Spans stay in memory; `end_pass` folds them into
per-function call counts and self times, and keeps the spans of the passes
it is asked to for writing out. Work counts are read from arguments and return values.

The leaf helpers of `signs` (`sigma`, `sign_orthogonal`) are not wrapped:
their time shows as the self time of their callers.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import injcheck

# (layer, function) pairs; "Poly.evaluate" is a method patched on its class.
TRACED = (
    ("crn", "parse_network"),
    ("crn", "build_problem"),
    ("injectivity", "check_injectivity"),
    ("injectivity", "verify_certificate"),
    ("classes", "symbolic_view"),
    ("classes", "class_contains"),
    ("classes", "Poly.evaluate"),
    ("detroute", "det_sign_analysis"),
    ("detroute", "symbolic_determinant"),
    ("signroute", "subspace_sign_vectors"),
    ("signroute", "sign_route"),
    ("signroute", "pair_sign_feasible"),
    ("feasibility", "feasible_cone"),
    ("linalg", "determinant"),
    ("linalg", "kernel_basis"),
    ("oracle", "falsify"),
    ("oracle", "sample_member"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn in TRACED)
ROUTES = tuple(r.value for r in injcheck.Route)
WORK_COUNTS = (
    "injectivity.check_injectivity.nested_calls",
    *(f"injectivity.route.{r}" for r in ROUTES),
    "detroute.monomials",
    "detroute.vertices",
    "detroute.sub_boxes",
    "signroute.sign_vectors",
    "signroute.pairs_feasible",
    "feasibility.lp_calls",
    "feasibility.lp_feasible",
    "feasibility.tableau_cells",
    "oracle.exact_trials",
    "oracle.hits",
)

_SAMPLE = NAMES.index("oracle.sample_member")


class Tracer:
    def __init__(self):
        self._fn = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.kept_spans: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "injcheck" or name.startswith("injcheck."))]
        for fid, (layer, fn) in enumerate(TRACED):
            home = sys.modules[f"injcheck.{layer}"]
            if "." in fn:
                owner_name, attr = fn.split(".")
                owner = getattr(home, owner_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(fid, original))
                continue
            original = getattr(home, fn)
            wrapper = self._wrap(fid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fid: int, fn):
        hook = _HOOKS.get(NAMES[fid])
        fns, parents, ops, starts, ends = self._fn, self._parent, self._op, self._start, self._end
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, idx, counts, result, *args, **kwargs)
            return result

        return wrapper

    def parent_fid(self, idx: int) -> int:
        parent = self._parent[idx]
        return -1 if parent < 0 else self._fn[parent]

    # -- aggregation ------------------------------------------------------

    def end_pass(self, keep: str = "") -> dict:
        """Fold the recorded spans into per-function counts and self times,
        clear them, and return {"calls", "self_s", "counts", "spans",
        "root_by_op"}; the last maps an operation id to the summed time of its
        top-level spans. With `keep`, the spans are also kept for
        `write_spans` under that label."""
        n = len(self._fn)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        root_by_op: Counter = Counter()
        for i in range(n):
            dur = self._end[i] - self._start[i]
            calls[self._fn[i]] += 1
            self_s[self._fn[i]] += dur - child[i]
            if self._parent[i] < 0:
                root_by_op[self._op[i]] += dur
        if keep:
            self.kept_spans += [
                (keep, i, NAMES[self._fn[i]], self._parent[i], self._op[i],
                 self._start[i], self._end[i])
                for i in range(n)
            ]
        out = {"calls": calls, "self_s": self_s, "counts": dict(self.counts), "spans": n,
               "root_by_op": dict(root_by_op)}
        for arr in (self._fn, self._parent, self._op, self._start, self._end):
            del arr[:]
        self.counts.clear()
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("phase\tspan\tname\tparent\top\tstart_s\tend_s\n")
            for row in self.kept_spans:
                fh.write("\t".join(str(v) for v in row) + "\n")


def span_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: the tracing overhead of a span.
    Median over `repeats` batches of a wrapped and a bare no-op call."""
    bare = lambda: None  # noqa: E731
    wrapped = Tracer()._wrap(NAMES.index("linalg.determinant"), bare)  # no work-count hook
    costs = []
    for _ in range(repeats):
        times = []
        for fn in (bare, wrapped):
            t = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - t)
        costs.append((times[1] - times[0]) / calls)
    costs.sort()
    return costs[len(costs) // 2]


OUTSIDE_SPANS = 0.01  # share of operation time allowed outside every span


def check_operations(op_s, agg: dict, per_span_s: float) -> list[str]:
    """Check that the self times along each operation's call tree add up to
    its wall time, timed outside the wrappers, apart from tracing overhead.

    `op_s[k]` is the time of operation k + 1 and `agg` a traced pass from
    `end_pass`. Each operation must have top-level spans no longer than the
    operation. Over the pass, operation time minus self time must lie between
    0 and the stated overhead: `per_span_s` times the spans, plus
    OUTSIDE_SPANS of the operation time for what falls between the loop's
    clock and a top-level span's (entering the wrapper, the work-count hook,
    a collector pause triggered there)."""
    problems = []
    roots = agg["root_by_op"]
    missing = sum(1 for op in range(1, len(op_s) + 1) if op not in roots)
    if missing:
        problems.append(f"{missing} of {len(op_s)} operations have no traced call")
    longer = sum(1 for op, root_s in roots.items()
                 if not 1 <= op <= len(op_s) or root_s > op_s[op - 1])
    if longer:
        problems.append(f"{longer} operations have spans outside their wall time")
    gap = sum(op_s) - sum(agg["self_s"])
    allowed = agg["spans"] * per_span_s + OUTSIDE_SPANS * sum(op_s)
    if not 0 <= gap <= allowed:
        problems.append(f"operation time minus self time is {gap:.6g} s, "
                        f"outside 0 .. {allowed:.6g} s of tracing overhead")
    return problems


# ---------------------------------------------------------------------------
# work counts read from arguments and return values


def _check_injectivity(tracer, idx, counts, verdict, *args, **kwargs):
    if tracer._parent[idx] >= 0:
        counts["injectivity.check_injectivity.nested_calls"] += 1
    else:
        counts[f"injectivity.route.{verdict.method.value}"] += 1


def _symbolic_determinant(tracer, idx, counts, poly, *args, **kwargs):
    counts["detroute.monomials"] += len(poly.terms)


def _det_sign_analysis(tracer, idx, counts, analysis, *args, **kwargs):
    if analysis.box is not None:
        counts["detroute.vertices"] += analysis.box.vertices_evaluated
        counts["detroute.sub_boxes"] += analysis.box.sub_boxes


def _subspace_sign_vectors(tracer, idx, counts, taus, *args, **kwargs):
    counts["signroute.sign_vectors"] += len(taus)


def _pair_sign_feasible(tracer, idx, counts, point, *args, **kwargs):
    counts["signroute.pairs_feasible"] += point is not None


def _feasible_cone(tracer, idx, counts, point, n, eq=(), nonneg=(), strict=()):
    if not strict:
        return  # answered without a tableau
    rows = len(eq) + len(nonneg) + len(strict)
    width = 2 * n + len(nonneg) + len(strict)
    counts["feasibility.lp_calls"] += 1
    counts["feasibility.lp_feasible"] += point is not None
    counts["feasibility.tableau_cells"] += rows * (width + rows + 1)


def _falsify(tracer, idx, counts, witness, *args, **kwargs):
    counts["oracle.hits"] += witness is not None


def _sample_member(tracer, idx, counts, member, *args, **kwargs):
    if tracer.parent_fid(idx) != _SAMPLE:
        counts["oracle.exact_trials"] += 1


_HOOKS = {
    "injectivity.check_injectivity": _check_injectivity,
    "detroute.symbolic_determinant": _symbolic_determinant,
    "detroute.det_sign_analysis": _det_sign_analysis,
    "signroute.subspace_sign_vectors": _subspace_sign_vectors,
    "signroute.pair_sign_feasible": _pair_sign_feasible,
    "feasibility.feasible_cone": _feasible_cone,
    "oracle.falsify": _falsify,
    "oracle.sample_member": _sample_member,
}
