"""Injectivity decisions with machine-checkable certificates.

A Problem asks: is the map family injective on cosets of S, i.e. is there no
class member M and z in S \\ {0} with (A) M z = 0? S = {0} is injective
(route TRIVIAL). Otherwise the answer comes from these steps:

* det - square case only (class rows equal dim S after the left matrix is
  folded in): the sign of det over the augmented class [Z; M]. It decides
  every class it can expand: a sign change always comes with an exact zero;
* sign - one sweep over the pairs (tau, rho): tau in sigma(S \\ {0}), rho
  a sign of the inner factor's image that the left side sends to 0 (0 alone,
  {0} union sigma(ker A \\ {0}) behind a left matrix A, or what every row of
  an outer sign-set factor can be orthogonal to); the inner factor tests each
  pair, exactly by LP for Scaled, by signs for sign sets; an interval class
  is swept over tau alone, one LP each, and without a left matrix only for a
  tau that passes a screen by the signs of its box; every pair test is odd,
  so only the tau whose first nonzero entry is -1 are swept;
* pattern union - a sign-set class is the union of its sign patterns, so the
  verdict is the conjunction of the per-pattern verdicts.

`_ROUTES` lists, for each `route` value, the steps in the order they run; the
first step that returns a verdict decides:

    auto           det, sign, pattern union, INCONCLUSIVE (route NONE)
    det            det, INCONCLUSIVE
    sign           sign, INCONCLUSIVE
    pattern-union  pattern union, INCONCLUSIVE

NOT_INJECTIVE always carries a SingularWitness: an exact class member (with
its membership evidence) and an exact z in S \\ {0} it kills, plus, for scaled
classes, a floating-point lift to a colliding point pair of the corresponding
generalized monomial map. Where floats cannot form a lift within the 1e-9
tolerance, the lift is left out and diagnostics["monomial_lift_omitted"] says
why. INJECTIVE carries the positivity data of the route that proved it. Both
are rechecked by verify_certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .classes import (
    MatrixClass,
    Member,
    Product,
    Scaled,
    SignSets,
    UnsupportedClassError,
    augment_with_kernel_rep,
    class_contains,
    enumerate_patterns,
)
from .detroute import DetAnalysis, DetSign, det_sign_analysis
from .limits import CapExceeded, Caps, DEFAULT_CAPS
from .linalg import RationalMatrix, Subspace, kernel_basis, rat_vector
from .signroute import SignRouteHit, sign_route, subspace_sign_vectors
from .signs import SignVector, sigma, sign_text

_ONE = Fraction(1)


class Status(str, enum.Enum):
    INJECTIVE = "INJECTIVE"
    NOT_INJECTIVE = "NOT_INJECTIVE"
    INCONCLUSIVE = "INCONCLUSIVE"


class Route(str, enum.Enum):
    DET = "DET_ROUTE"
    SIGN = "SIGN_ROUTE"
    PATTERN_UNION = "PATTERN_UNION"
    TRIVIAL = "TRIVIAL"
    NONE = "NONE"


@dataclass
class Problem:
    matrices: MatrixClass
    S: Subspace
    left: Optional[RationalMatrix] = None
    note: str = ""

    def __post_init__(self):
        if self.matrices.cols != self.S.n:
            raise ValueError(
                f"class acts on dimension {self.matrices.cols}, subspace lives in {self.S.n}"
            )
        if self.left is not None and self.left.cols != self.matrices.rows:
            raise ValueError(
                f"left matrix has {self.left.cols} columns, class has {self.matrices.rows} rows"
            )


@dataclass
class SingularWitness:
    """member.matrix is a member of the effective class (left matrix folded
    in); z lies in S \\ {0} and member.matrix @ z = 0 exactly."""

    member: Member
    z: tuple[Fraction, ...]
    tau: Optional[SignVector] = None
    rho: Optional[SignVector] = None
    monomial_lift: Optional[dict] = None
    lift_omitted: Optional[str] = None  # why floats gave no lift; not in the payload

    def to_payload(self) -> dict:
        out = {
            "member": self.member.to_payload(),
            "z": [str(v) for v in self.z],
        }
        if self.tau is not None:
            out["tau"] = str(self.tau)
        if self.rho is not None:
            out["rho"] = str(self.rho)
        if self.monomial_lift is not None:
            out["monomial_lift"] = self.monomial_lift
        return out


@dataclass
class PositivityCertificate:
    kind: str
    payload: dict

    def to_payload(self) -> dict:
        return {"kind": self.kind, "data": self.payload}


Certificate = Union[SingularWitness, PositivityCertificate, None]


@dataclass
class Verdict:
    status: Status
    method: Route
    certificate: Certificate
    diagnostics: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        cert = None
        if isinstance(self.certificate, SingularWitness):
            cert = {"type": "singular-witness", **self.certificate.to_payload()}
        elif isinstance(self.certificate, PositivityCertificate):
            cert = {"type": "positivity", **self.certificate.to_payload()}
        return {
            "status": self.status.value,
            "method": self.method.value,
            "certificate": cert,
            "diagnostics": _json_safe(self.diagnostics),
        }


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (DetSign, Status, Route)):
        return value.value
    if isinstance(value, SignVector):
        return str(value)
    return value


# ---------------------------------------------------------------------------
# effective shape


def effective_parts(problem: Problem) -> tuple[Optional[RationalMatrix], MatrixClass]:
    """Fold fixed left matrices (the problem's own and numeric product heads)
    into a single left factor."""
    A = problem.left
    cls = problem.matrices
    while isinstance(cls, Product) and isinstance(cls.left, RationalMatrix):
        A = cls.left if A is None else A.matmul(cls.left)
        cls = cls.right
    return A, cls


# ---------------------------------------------------------------------------
# the monomial lift


def lift_monomial_witness(B: RationalMatrix, v: Sequence[Fraction],
                          w: Sequence[Fraction]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Positive points x != y with x - y = w and x^B = y^B, given exact
    v in ker B with sigma(v) = sigma(w).

    x_i = w_i e^{v_i} / (e^{v_i} - 1) and y_i = w_i / (e^{v_i} - 1); where
    v_i = 0 (hence w_i = 0) both coordinates are set to 1. This is the only
    floating-point construction in the library outside the oracle. An
    ArithmeticError says when the lift does not fit in floats.
    """
    v = rat_vector(v)
    w = rat_vector(w)
    if len(v) != B.cols or len(w) != B.cols:
        raise ValueError("lift vectors must match the exponent columns")
    if any(x != 0 for x in B.apply(v)):
        raise ValueError("v is not in the kernel of the exponent matrix")
    if sigma(v) != sigma(w):
        raise ValueError("v and w must have identical sign vectors")
    if all(x == 0 for x in v):
        raise ValueError("v must be nonzero")
    try:
        return _lift_points(v, w)
    except ArithmeticError as exc:
        raise ArithmeticError(f"the lift does not fit in floats: {exc}") from exc


def _lift_points(v, w) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The float lift of (v, w). When it overflows or leaves the positive
    orthant, v is rescaled to max |v_i| = 1 and the lift retried: a positive
    multiple of v keeps its signs and its place in ker B, and the lift gives
    x - y = w for every such v."""
    try:
        return _lift_points_once(v, w)
    except ArithmeticError:
        top = max(abs(vi) for vi in v)
        return _lift_points_once(tuple(vi / top for vi in v), w)


def _lift_points_once(v, w) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs = []
    ys = []
    for vi, wi in zip(v, w):
        if vi == 0:
            xs.append(1.0)
            ys.append(1.0)
            continue
        vf = float(vi)
        denom = math.expm1(vf)
        xs.append(float(wi) * math.exp(vf) / denom)
        ys.append(float(wi) / denom)
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ArithmeticError("lift left the positive orthant; inputs too extreme for floats")
    return tuple(xs), tuple(ys)


def _log_monomial_image(B: RationalMatrix, point: Sequence[float]) -> list[float]:
    logs = [math.log(p) for p in point]
    return [sum(float(B.at(i, j)) * logs[j] for j in range(B.cols)) for i in range(B.rows)]


_LIFT_TOL = 1e-9  # the default tolerance of verify_certificate


def _relative_gap(la: float, lb: float) -> float:
    """|a - b| / max(|a|, |b|, 1) for a = e^la, b = e^lb. Where e^la or e^lb
    overflows, the max is above 1 and the gap is -expm1(-|la - lb|)."""
    try:
        a, b = math.exp(la), math.exp(lb)
    except OverflowError:
        return -math.expm1(-abs(la - lb))
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _log_scale_row(la: float, lb: float, target: float) -> tuple[float, float]:
    """Map coefficient and mapped difference of a row whose image e^la or
    e^lb overflows a float. The difference is e^top * gap with top the larger
    log image, so the coefficient carries the factor e^-top (0.0 once that is
    below the float range) and the mapped difference stays finite: the target
    itself, or the relative gap where there is no target to reach."""
    top = max(la, lb)
    gap = math.copysign(-math.expm1(-abs(la - lb)), la - lb)
    if gap == 0.0 or target == 0.0:
        return math.exp(-top), gap
    ratio = target / gap
    return math.copysign(math.exp(math.log(abs(ratio)) - top), ratio), target


def _build_monomial_lift(B: RationalMatrix, v, w, kappa, z,
                         A: Optional[RationalMatrix]) -> dict:
    x, y = _lift_points(v, w)
    lx = _log_monomial_image(B, x)
    ly = _log_monomial_image(B, y)
    if A is None:
        residual = max((_relative_gap(a, b) for a, b in zip(lx, ly)), default=0.0)
        kappa_map = None
    else:
        # map coefficients that send the image difference onto the exact
        # kernel vector kappa * Bv of the left matrix: the signs of
        # x^B - y^B match those of Bv, so the ratios are positive
        w_mid = B.apply(v)
        y_exact = [float(k) * float(t) for k, t in zip(kappa or [_ONE] * B.rows, w_mid)]
        kappa_map = []
        mapped = []
        for a, b, target in zip(lx, ly, y_exact):
            try:
                d = math.exp(a) - math.exp(b)
            except OverflowError:
                coeff, image_diff = _log_scale_row(a, b, target)
                kappa_map.append(coeff)
                mapped.append(image_diff)
                continue
            kappa_map.append(target / d if abs(d) > 1e-300 and target != 0.0 else 1.0)
            mapped.append(kappa_map[-1] * d)
        image = [
            sum(float(A.at(i, j)) * mapped[j] for j in range(A.cols))
            for i in range(A.rows)
        ]
        scale = max([abs(m) for m in mapped] + [1.0])
        residual = max((abs(val) / scale for val in image), default=0.0)
    drift = max(
        (abs((xi - yi) - float(zi)) / max(abs(float(zi)), 1.0)
         for xi, yi, zi in zip(x, y, z)),
        default=0.0,
    )
    return {
        "x": list(x),
        "y": list(y),
        "kappa": [float(k) for k in (kappa or [_ONE] * B.rows)],
        "kappa_map": kappa_map,
        "max_residual": max(residual, drift),
    }


def _lift_fault(lift: dict, tol: float) -> Optional[str]:
    """None when the lift meets tol, else what is wrong with it."""
    if not lift["max_residual"] <= tol:
        return f"lift residual {lift['max_residual']} above tolerance"
    if any(x <= 0 for x in lift["x"]) or any(y <= 0 for y in lift["y"]):
        return "lift points are not positive"
    if all(abs(a - b) <= tol * max(abs(a), abs(b), 1.0)
           for a, b in zip(lift["x"], lift["y"])):
        return "lift points coincide"
    return None


def _monomial_lift(B: RationalMatrix, v, w, kappa, z,
                   A: Optional[RationalMatrix]) -> tuple[Optional[dict], Optional[str]]:
    """(lift, None), or (None, why) when floats cannot form a lift that meets
    the tolerance of verify_certificate. The exact witness stands either way."""
    try:
        lift = _build_monomial_lift(B, v, w, kappa, z, A)
    except ArithmeticError as exc:  # float overflow, underflow to 0, or a lift off the orthant
        return None, f"{type(exc).__name__}: {exc}"
    fault = _lift_fault(lift, _LIFT_TOL)
    return (None, fault) if fault else (lift, None)


# ---------------------------------------------------------------------------
# witness assembly


def _fold_left(A: Optional[RationalMatrix], member: Member) -> Member:
    if A is None:
        return member
    return Member(A.matmul(member.matrix), "product",
                  factors=(Member(A, "matrix"), member))


def _witness_from_hit(A: Optional[RationalMatrix], hit: SignRouteHit) -> SingularWitness:
    eff = _fold_left(A, hit.member)
    if any(v != 0 for v in eff.matrix.apply(hit.z)):
        raise ArithmeticError("sign-route witness does not kill z")
    lift = omitted = None
    if hit.lift_data is not None:
        B, v, w = hit.lift_data
        lift, omitted = _monomial_lift(B, v, w, hit.member.kappa, hit.z, A)
    return SingularWitness(eff, hit.z, hit.tau, hit.rho, lift, omitted)


def witness_from_aug_member(A: Optional[RationalMatrix], cls: MatrixClass,
                            aug_member: Member) -> SingularWitness:
    """Singular witness from a member of the augmented class [Z; M] whose
    matrix has a nontrivial kernel. The first kernel basis vector is z."""
    eff_member = aug_member.factors[-1]
    K = kernel_basis(aug_member.matrix)
    if K.cols == 0:
        raise ArithmeticError("augmented member is nonsingular")
    z = K.col(0)
    lift = omitted = None
    inner = eff_member
    if A is not None and inner.kind == "product" and inner.factors:
        inner = inner.factors[-1]
    if isinstance(cls, Scaled) and inner.kind == "scaled":
        lam = inner.lam or tuple([_ONE] * cls.B.cols)
        v = tuple(l * zi for l, zi in zip(lam, z))
        lift, omitted = _monomial_lift(cls.B, v, z, inner.kappa, z, A)
    return SingularWitness(eff_member, tuple(z), sigma(z), None, lift, omitted)


def _witness_from_assignment(A: Optional[RationalMatrix], cls: MatrixClass,
                             analysis: DetAnalysis) -> SingularWitness:
    aug_member = analysis.view.build_member(analysis.zero_assignment)
    return witness_from_aug_member(A, cls, aug_member)


def build_witness(problem: Problem, evidence: Union[SignRouteHit, DetAnalysis],
                  caps: Optional[Caps] = None) -> SingularWitness:
    """Assemble and exactness-check a singular witness from route evidence.

    Accepts a sign-route hit or a determinant analysis whose sign is ZERO or
    MIXED; both carry a zero assignment. Raises if the evidence does not
    check out.
    """
    A, cls = effective_parts(problem)
    if isinstance(evidence, SignRouteHit):
        witness = _witness_from_hit(A, evidence)
    elif isinstance(evidence, DetAnalysis):
        if evidence.sign not in (DetSign.ZERO, DetSign.MIXED):
            raise ValueError("determinant evidence does not claim a singular member")
        witness = _witness_from_assignment(A, cls, evidence)
    else:
        raise TypeError(f"unsupported evidence {type(evidence).__name__}")
    _require_witness(problem, witness, "constructed witness")
    return witness


# ---------------------------------------------------------------------------
# verification


def _check_witness(problem: Problem, witness: SingularWitness, tol: float) -> Optional[str]:
    """None when the witness checks out, else a reason string."""
    A, cls = effective_parts(problem)
    z = witness.z
    if len(z) != problem.S.n:
        return "z has the wrong length"
    if all(v == 0 for v in z):
        return "z is zero"
    if not problem.S.contains(z):
        return "z is outside the subspace"
    eff = witness.member
    inner = eff
    if A is not None:
        if eff.kind != "product" or not eff.factors or eff.factors[0].matrix != A:
            return "effective member does not start with the left matrix"
        inner = eff.factors[-1]
        if eff.matrix != A.matmul(inner.matrix):
            return "effective member is not the stated product"
    try:
        if not class_contains(cls, inner.matrix, inner):
            return "member is outside the class"
    except UnsupportedClassError as exc:
        return f"membership not checkable: {exc}"
    if any(v != 0 for v in eff.matrix.apply(z)):
        return "member does not kill z"
    if witness.monomial_lift is not None:
        return _lift_fault(witness.monomial_lift, tol)
    return None


def _require_witness(problem: Problem, witness: SingularWitness, source: str,
                     diagnostics: Optional[dict] = None) -> None:
    """Raise unless a witness this package built passes verify_certificate's
    checks: a witness that fails them is a fault of the checker. A lift left
    out is noted in diagnostics."""
    reason = _check_witness(problem, witness, tol=_LIFT_TOL)
    if reason is not None:
        raise ArithmeticError(f"{source} failed its own check: {reason}")
    if witness.lift_omitted is not None and diagnostics is not None:
        diagnostics["monomial_lift_omitted"] = witness.lift_omitted


def verify_certificate(verdict: Verdict, problem: Problem,
                       caps: Optional[Caps] = None, tol: float = _LIFT_TOL) -> bool:
    """Recheck what the verdict claims.

    NOT_INJECTIVE: exact witness recheck (membership with evidence, z in
    S \\ {0}, the member kills z, lift residual under tol). INJECTIVE: the
    deciding route is re-run and must agree. INCONCLUSIVE claims nothing and
    verifies trivially.
    """
    if verdict.status is Status.INCONCLUSIVE:
        return True
    if verdict.status is Status.NOT_INJECTIVE:
        if not isinstance(verdict.certificate, SingularWitness):
            return False
        return _check_witness(problem, verdict.certificate, tol) is None
    route = {
        Route.DET: "det",
        Route.SIGN: "sign",
        Route.PATTERN_UNION: "pattern-union",
    }.get(verdict.method)
    again = check_injectivity(problem, caps=caps, route=route)
    return again.status is Status.INJECTIVE


# ---------------------------------------------------------------------------
# the route table


@dataclass
class _Run:
    """What the steps of one decision share."""

    problem: Problem
    caps: Caps
    A: Optional[RationalMatrix]
    cls: MatrixClass
    rows: int
    diagnostics: dict

    @property
    def square(self) -> bool:
        return self.rows == self.problem.S.dim


def _inconclusive(run: _Run, method: Route, reason: str) -> Verdict:
    run.diagnostics["reason"] = reason
    return Verdict(Status.INCONCLUSIVE, method, None, run.diagnostics)


def _det_step(run: _Run) -> Optional[Verdict]:
    """Square case: the sign of det over the augmented class [Z; M]."""
    if not run.square:
        return None
    diagnostics = run.diagnostics
    effcls = run.cls if run.A is None else Product(run.A, run.cls)
    try:
        analysis = det_sign_analysis(augment_with_kernel_rep(run.problem.S, effcls), run.caps)
    except (UnsupportedClassError, CapExceeded) as exc:
        diagnostics["det_route_fallback"] = str(exc)
        return None
    diagnostics["det_sign"] = analysis.sign.value
    diagnostics["det_kind"] = analysis.kind
    if analysis.sign in (DetSign.POS, DetSign.NEG, DetSign.NONZERO):
        cert = PositivityCertificate("determinant", analysis.certificate_payload())
        return Verdict(Status.INJECTIVE, Route.DET, cert, diagnostics)
    # ZERO or MIXED: the analysis carries an exact zero
    witness = _witness_from_assignment(run.A, run.cls, analysis)
    _require_witness(run.problem, witness, "determinant witness", diagnostics)
    return Verdict(Status.NOT_INJECTIVE, Route.DET, witness, diagnostics)


def _det_inconclusive(run: _Run) -> Verdict:
    """Forced det: why the determinant step gave no verdict."""
    reason = run.diagnostics.get("det_route_fallback",
                                 f"determinant route needs a square augmented class "
                                 f"(rows {run.rows} vs dim S {run.problem.S.dim})")
    return _inconclusive(run, Route.DET, reason)


def _sign_step(run: _Run) -> Optional[Verdict]:
    """The sign sweep, exact and complete for the shapes sign_route serves."""
    diagnostics = run.diagnostics
    S = run.problem.S
    try:
        srr = sign_route(run.cls, S, run.A, run.caps)
    except CapExceeded as exc:
        diagnostics["sign_route_fallback"] = str(exc)
        return None
    if not srr.supported:
        return None
    diagnostics.update({f"sign_{k}": v for k, v in srr.diagnostics.items()})
    if srr.injective:
        cert = _sweep_certificate(S, srr.diagnostics, run.caps)
        return Verdict(Status.INJECTIVE, Route.SIGN, cert, diagnostics)
    witness = _witness_from_hit(run.A, srr.hit)
    _require_witness(run.problem, witness, "sign-route witness", diagnostics)
    return Verdict(Status.NOT_INJECTIVE, Route.SIGN, witness, diagnostics)


def _sign_inconclusive(run: _Run) -> Verdict:
    return _inconclusive(run, Route.SIGN, f"no sign route for {run.cls.describe()}")


def _sweep_certificate(S: Subspace, diag: dict, caps: Caps) -> PositivityCertificate:
    taus = subspace_sign_vectors(S, caps)
    payload = {
        "sign_vectors_of_S": [sign_text(*t, S.n) for t in taus] if len(taus) <= 64 else len(taus),
        "pairs_checked": diag.get("pairs_checked", 0),
    }
    if "rhos" in diag:
        payload["rho_candidates"] = diag["rhos"]
    return PositivityCertificate("sign-sweep", payload)


def _pattern_union_step(run: _Run) -> Optional[Verdict]:
    """A sign-set class (alone or as the outer factor of a product) is the
    union of its sign patterns: decide each pattern with the auto route."""
    cls, diagnostics = run.cls, run.diagnostics
    if isinstance(cls, SignSets):
        W, rebuild = cls.W, lambda pat: pat
    elif isinstance(cls, Product) and isinstance(cls.left, SignSets):
        W, rebuild = cls.left.W, lambda pat: Product(pat, cls.right)
    else:
        return None
    try:
        patterns = enumerate_patterns(W, run.caps.patterns)
    except CapExceeded as exc:
        diagnostics["pattern_union"] = str(exc)
        return None
    injective = True
    for idx, pat in enumerate(patterns):
        sub = Problem(rebuild(pat), run.problem.S, left=run.A)
        sub_verdict = check_injectivity(sub, caps=run.caps)
        if sub_verdict.status is Status.NOT_INJECTIVE:
            diagnostics["patterns_checked"] = idx + 1
            diagnostics["pattern_total"] = len(patterns)
            diagnostics["falsified_by_pattern"] = [
                "".join("+0-"[1 - s] for s in row) for row in pat.signs
            ]
            return Verdict(Status.NOT_INJECTIVE, Route.PATTERN_UNION,
                           sub_verdict.certificate, diagnostics)
        injective = injective and sub_verdict.status is Status.INJECTIVE
    diagnostics["patterns_checked"] = len(patterns)
    if injective:
        cert = PositivityCertificate("pattern-union",
                                     {"patterns": len(patterns), "each": "INJECTIVE"})
        return Verdict(Status.INJECTIVE, Route.PATTERN_UNION, cert, diagnostics)
    diagnostics["pattern_union"] = "some patterns inconclusive"
    return Verdict(Status.INCONCLUSIVE, Route.PATTERN_UNION, None, diagnostics)


def _pattern_union_inconclusive(run: _Run) -> Verdict:
    """The pattern cap when the pattern union hit it, else the class shape."""
    reason = run.diagnostics.get("pattern_union", "pattern union needs sign-set entries")
    return _inconclusive(run, Route.PATTERN_UNION, reason)


def _no_route(run: _Run) -> Verdict:
    return _inconclusive(run, Route.NONE, f"no route applies to {run.cls.describe()}")


# For each `route` value, the steps in the order they run; the first verdict
# wins, and the last step of every route always returns one.
_ROUTES = {
    "auto": (_det_step, _sign_step, _pattern_union_step, _no_route),
    "det": (_det_step, _det_inconclusive),
    "sign": (_sign_step, _sign_inconclusive),
    "pattern-union": (_pattern_union_step, _pattern_union_inconclusive),
}


def check_injectivity(problem: Problem, caps: Optional[Caps] = None,
                      route: Optional[str] = None) -> Verdict:
    """Decide injectivity on cosets of S and certify the answer.

    S = {0} is INJECTIVE (route TRIVIAL) under every route. Otherwise the
    steps of `route` (None means 'auto') run in this order until one returns
    a verdict:

        auto           det, sign, pattern union, INCONCLUSIVE (route NONE)
        det            det, INCONCLUSIVE
        sign           sign, INCONCLUSIVE
        pattern-union  pattern union, INCONCLUSIVE

    The det step decides every square class it can expand (det is multilinear,
    so a MIXED table has an exact zero); no verdict depends on a random trial.
    """
    name = (route or "auto").lower().replace("_", "-")
    if name not in _ROUTES:
        raise ValueError(f"unknown route {name!r}")
    S = problem.S
    diagnostics: dict = {"ambient_dim": S.n, "subspace_dim": S.dim}
    if problem.note:
        diagnostics["note"] = problem.note
    if S.dim == 0:
        cert = PositivityCertificate(
            "trivial", {"reason": "S = {0}: distinct points never differ by an element of S"}
        )
        return Verdict(Status.INJECTIVE, Route.TRIVIAL, cert, diagnostics)
    A, cls = effective_parts(problem)
    run = _Run(problem, caps or DEFAULT_CAPS, A, cls,
               A.rows if A is not None else cls.rows, diagnostics)
    diagnostics["square"] = run.square
    for step in _ROUTES[name]:
        verdict = step(run)
        if verdict is not None:
            return verdict
    raise AssertionError(f"route {name!r} ended without a verdict")
