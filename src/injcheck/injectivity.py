"""Injectivity decisions with machine-checkable certificates.

A Problem asks: is the map family injective on cosets of S, i.e. is there no
class member M and z in S \\ {0} with (A) M z = 0? The answer is reached by

* the determinant route - square case only (class rows equal dim S after the
  left matrix is folded in): sign of det over the augmented class [Z; M],

* the sign route - a sweep over sigma(S \\ {0}) and, with a left matrix, over
  {0} union sigma(ker A \\ {0}), one exact feasibility question per pair,

* the pattern union - a sign-set class is the union of its sign patterns, so
  the verdict is the conjunction of the per-pattern verdicts.

NOT_INJECTIVE always carries a SingularWitness: an exact class member (with
its membership evidence) and an exact z in S \\ {0} it kills, plus, for scaled
classes, a floating-point lift to a colliding point pair of the corresponding
generalized monomial map. INJECTIVE carries the positivity data of the route
that proved it. Both are rechecked by verify_certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .classes import (
    Augmented,
    Interval,
    MatrixClass,
    Member,
    Product,
    Scaled,
    SignPattern,
    SignSets,
    SignSetMatrix,
    augment_with_kernel_rep,
    class_contains,
    enumerate_patterns,
)
from .detroute import DetAnalysis, DetSign, det_sign_analysis
from .classes import UnsupportedClassError
from .limits import CapExceeded, Caps, DEFAULT_CAPS
from .linalg import RationalMatrix, Subspace, kernel_basis, rat_vector
from .signroute import SignRouteHit, sign_route, subspace_sign_vectors
from .signs import SignVector, sigma

_ZERO = Fraction(0)
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
    full_dimensional_domain: bool = True
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
    floating-point construction in the library outside the oracle.
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
    return _lift_points(v, w)


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


def _monomial_image(B: RationalMatrix, point: Sequence[float]) -> list[float]:
    logs = [math.log(p) for p in point]
    return [
        math.exp(sum(float(B.at(i, j)) * logs[j] for j in range(B.cols)))
        for i in range(B.rows)
    ]


def _build_monomial_lift(B: RationalMatrix, v, w, kappa, z,
                         A: Optional[RationalMatrix]) -> dict:
    x, y = _lift_points(v, w)
    fx = _monomial_image(B, x)
    fy = _monomial_image(B, y)
    diffs = [a - b for a, b in zip(fx, fy)]
    if A is None:
        residual = max(
            (abs(d) / max(abs(a), abs(b), 1.0) for d, a, b in zip(diffs, fx, fy)),
            default=0.0,
        )
        kappa_map = [float(k) for k in (kappa or [_ONE] * B.rows)]
    else:
        # map coefficients that send the image difference onto the exact
        # kernel vector kappa * Bv of the left matrix: the signs of
        # x^B - y^B match those of Bv, so the ratios are positive
        w_mid = B.apply(v)
        y_exact = [float(k) * float(t) for k, t in zip(kappa or [_ONE] * B.rows, w_mid)]
        kappa_map = []
        for i, d in enumerate(diffs):
            if abs(d) > 1e-300 and y_exact[i] != 0.0:
                kappa_map.append(y_exact[i] / d)
            else:
                kappa_map.append(1.0)
        mapped = [km * d for km, d in zip(kappa_map, diffs)]
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
        "kappa_map": kappa_map if A is not None else None,
        "max_residual": max(residual, drift),
    }


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
    lift = None
    if hit.lift_data is not None:
        B, v, w = hit.lift_data
        lift = _build_monomial_lift(B, v, w, hit.member.kappa, hit.z, A)
    return SingularWitness(eff, hit.z, hit.tau, hit.rho, lift)


def witness_from_aug_member(A: Optional[RationalMatrix], cls: MatrixClass,
                            aug_member: Member) -> SingularWitness:
    """Singular witness from a member of the augmented class [Z; M] whose
    matrix has a nontrivial kernel. The first kernel basis vector is z."""
    eff_member = aug_member.factors[-1]
    K = kernel_basis(aug_member.matrix)
    if K.cols == 0:
        raise ArithmeticError("augmented member is nonsingular")
    z = K.col(0)
    lift = None
    inner = eff_member
    if A is not None and inner.kind == "product" and inner.factors:
        inner = inner.factors[-1]
    if isinstance(cls, Scaled) and inner.kind == "scaled":
        lam = inner.lam or tuple([_ONE] * cls.B.cols)
        v = tuple(l * zi for l, zi in zip(lam, z))
        lift = _build_monomial_lift(cls.B, v, z, inner.kappa, z, A)
    return SingularWitness(eff_member, tuple(z), sigma(z), None, lift)


def _witness_from_assignment(A: Optional[RationalMatrix], cls: MatrixClass,
                             analysis: DetAnalysis) -> SingularWitness:
    assignment = analysis.zero_assignment or {}
    aug_member = analysis.view.build_member(assignment)
    return witness_from_aug_member(A, cls, aug_member)


def build_witness(problem: Problem, evidence: Union[SignRouteHit, DetAnalysis],
                  caps: Optional[Caps] = None) -> SingularWitness:
    """Assemble and exactness-check a singular witness from route evidence.

    Accepts a sign-route hit or a determinant analysis whose sign is ZERO or
    MIXED with a zero assignment. Raises if the evidence does not check out.
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
    problem_check = _check_witness(problem, witness, tol=1e-9)
    if problem_check is not None:
        raise ArithmeticError(f"constructed witness failed verification: {problem_check}")
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
    lift = witness.monomial_lift
    if lift is not None:
        if lift["max_residual"] > tol:
            return f"lift residual {lift['max_residual']} above tolerance"
        if any(x <= 0 for x in lift["x"]) or any(y <= 0 for y in lift["y"]):
            return "lift points are not positive"
        if all(abs(a - b) <= tol * max(abs(a), abs(b), 1.0)
               for a, b in zip(lift["x"], lift["y"])):
            return "lift points coincide"
    return None


def verify_certificate(verdict: Verdict, problem: Problem,
                       caps: Optional[Caps] = None, tol: float = 1e-9) -> bool:
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
# routes


def _sign_route_supported(cls: MatrixClass) -> bool:
    if isinstance(cls, (Scaled, SignPattern, SignSets, Interval)):
        return True
    if isinstance(cls, Product) and not isinstance(cls.left, RationalMatrix):
        return isinstance(cls.left, (SignPattern, SignSets)) and isinstance(
            cls.right, (Scaled, SignPattern, SignSets)
        )
    return False


def _sweep_certificate(S: Subspace, diag: dict, caps: Caps) -> PositivityCertificate:
    taus = subspace_sign_vectors(S, caps)
    payload = {
        "sign_vectors_of_S": [str(t) for t in taus] if len(taus) <= 64 else len(taus),
        "pairs_checked": diag.get("pairs_checked", 0),
    }
    if "rhos" in diag:
        payload["rho_candidates"] = diag["rhos"]
    return PositivityCertificate("sign-sweep", payload)


def _pattern_union(problem: Problem, A: Optional[RationalMatrix], cls: MatrixClass,
                   caps: Caps, diagnostics: dict) -> Optional[Verdict]:
    if isinstance(cls, SignSets):
        W = cls.W
        def rebuild(pat: SignPattern) -> MatrixClass:
            return pat
    elif (isinstance(cls, Product) and isinstance(cls.left, SignSets)):
        W = cls.left.W
        inner_cls = cls.right
        def rebuild(pat: SignPattern) -> MatrixClass:
            return Product(pat, inner_cls)
    else:
        return None
    try:
        patterns = enumerate_patterns(W, caps.patterns)
    except CapExceeded as exc:
        diagnostics["pattern_union"] = str(exc)
        return None
    statuses = []
    for idx, pat in enumerate(patterns):
        sub = Problem(rebuild(pat), problem.S, left=A,
                      full_dimensional_domain=problem.full_dimensional_domain)
        sub_verdict = check_injectivity(sub, caps=caps)
        if sub_verdict.status is Status.NOT_INJECTIVE:
            diagnostics["patterns_checked"] = idx + 1
            diagnostics["pattern_total"] = len(patterns)
            diagnostics["falsified_by_pattern"] = [
                "".join("+0-"[1 - s] for s in row) for row in pat.signs
            ]
            return Verdict(Status.NOT_INJECTIVE, Route.PATTERN_UNION,
                           sub_verdict.certificate, diagnostics)
        statuses.append(sub_verdict.status)
    diagnostics["patterns_checked"] = len(patterns)
    if all(s is Status.INJECTIVE for s in statuses):
        cert = PositivityCertificate(
            "pattern-union", {"patterns": len(patterns), "each": "INJECTIVE"}
        )
        return Verdict(Status.INJECTIVE, Route.PATTERN_UNION, cert, diagnostics)
    diagnostics["pattern_union"] = "some patterns inconclusive"
    return Verdict(Status.INCONCLUSIVE, Route.PATTERN_UNION, None, diagnostics)


def _oracle_fallback(problem: Problem, diagnostics: dict) -> Optional[SingularWitness]:
    from .oracle import OracleConfig, falsify

    cfg = OracleConfig(trials=2000, seed=0)
    hit = falsify(problem, cfg)
    diagnostics["falsifier_trials"] = cfg.trials
    return hit


def check_injectivity(problem: Problem, caps: Optional[Caps] = None,
                      route: Optional[str] = None) -> Verdict:
    """Decide injectivity on cosets of S and certify the answer.

    route: None/'auto' picks the determinant route in the square case and the
    sign route otherwise; 'det', 'sign', 'pattern-union' force one route and
    return INCONCLUSIVE (with the reason) when it does not apply.
    """
    if caps is None:
        caps = DEFAULT_CAPS
    route = (route or "auto").lower().replace("_", "-")
    if route not in ("auto", "det", "sign", "pattern-union"):
        raise ValueError(f"unknown route {route!r}")
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
    eff_rows = A.rows if A is not None else cls.rows
    square = eff_rows == S.dim
    diagnostics["square"] = square

    if route == "pattern-union":
        out = _pattern_union(problem, A, cls, caps, diagnostics)
        if out is not None:
            return out
        diagnostics["reason"] = "pattern union needs sign-set entries"
        return Verdict(Status.INCONCLUSIVE, Route.PATTERN_UNION, None, diagnostics)

    expect_not_injective = False
    analysis: Optional[DetAnalysis] = None
    if route in ("auto", "det") and square:
        effcls = cls if A is None else Product(A, cls)
        try:
            aug = augment_with_kernel_rep(S, effcls)
            analysis = det_sign_analysis(aug, caps)
        except (UnsupportedClassError, CapExceeded) as exc:
            diagnostics["det_route_fallback"] = str(exc)
        if analysis is not None:
            diagnostics["det_sign"] = analysis.sign.value
            diagnostics["det_kind"] = analysis.kind
            if analysis.sign in (DetSign.POS, DetSign.NEG, DetSign.NONZERO):
                cert = PositivityCertificate("determinant", analysis.certificate_payload())
                return Verdict(Status.INJECTIVE, Route.DET, cert, diagnostics)
            if analysis.sign is DetSign.ZERO or analysis.zero_assignment is not None:
                witness = _witness_from_assignment(A, cls, analysis)
                reason = _check_witness(problem, witness, tol=1e-9)
                if reason is not None:
                    raise ArithmeticError(f"determinant witness failed its own check: {reason}")
                return Verdict(Status.NOT_INJECTIVE, Route.DET, witness, diagnostics)
            # MIXED monomial table: the table alone does not locate a zero;
            # defer to the sign route (exact and complete for these classes)
            table = analysis.table
            if table is not None:
                diagnostics["det_table_homogeneous"] = table.homogeneous
                diagnostics["det_table_distinct_supports"] = table.distinct_supports
                expect_not_injective = (
                    table.homogeneous
                    and table.distinct_supports
                    and (isinstance(cls, (Scaled, SignPattern))
                         or (isinstance(cls, SignSets) and cls.W.is_pattern))
                )
    elif route == "det" and not square:
        diagnostics["reason"] = (
            f"determinant route needs a square augmented class "
            f"(rows {eff_rows} vs dim S {S.dim})"
        )
        return Verdict(Status.INCONCLUSIVE, Route.DET, None, diagnostics)
    if route == "det" and analysis is None:
        diagnostics.setdefault("reason", diagnostics.get("det_route_fallback", "no analysis"))
        return Verdict(Status.INCONCLUSIVE, Route.DET, None, diagnostics)

    if route in ("auto", "sign", "det") and _sign_route_supported(cls):
        try:
            srr = sign_route(cls, S, A, caps)
        except CapExceeded as exc:
            diagnostics["sign_route_fallback"] = str(exc)
            srr = None
        if srr is not None and srr.supported:
            diagnostics.update({f"sign_{k}": v for k, v in srr.diagnostics.items()})
            if srr.injective:
                if expect_not_injective:
                    raise ArithmeticError(
                        "inconsistent routes: mixed homogeneous determinant table "
                        "but the sign sweep found no singular pair"
                    )
                cert = _sweep_certificate(S, srr.diagnostics, caps)
                return Verdict(Status.INJECTIVE, Route.SIGN, cert, diagnostics)
            witness = _witness_from_hit(A, srr.hit)
            reason = _check_witness(problem, witness, tol=1e-9)
            if reason is not None:
                raise ArithmeticError(f"sign-route witness failed its own check: {reason}")
            if analysis is not None:
                diagnostics["mixed_resolution"] = "sign-route witness"
            return Verdict(Status.NOT_INJECTIVE,
                           Route.SIGN if analysis is None else Route.DET,
                           witness, diagnostics)

    if route == "sign":
        diagnostics["reason"] = f"no sign route for {cls.describe()}"
        return Verdict(Status.INCONCLUSIVE, Route.SIGN, None, diagnostics)

    # auto: remaining fallbacks
    out = _pattern_union(problem, A, cls, caps, diagnostics)
    if out is not None:
        return out
    if analysis is not None:
        # mixed determinant over a class product: try the falsifier briefly
        hit = _oracle_fallback(problem, diagnostics)
        if hit is not None:
            diagnostics["mixed_resolution"] = "random falsifier"
            return Verdict(Status.NOT_INJECTIVE, Route.DET, hit, diagnostics)
        cert = PositivityCertificate("determinant", analysis.certificate_payload())
        diagnostics["reason"] = "mixed determinant table and no exact route for this class shape"
        return Verdict(Status.INCONCLUSIVE, Route.DET, cert, diagnostics)
    diagnostics["reason"] = f"no route applies to {cls.describe()}"
    return Verdict(Status.INCONCLUSIVE, Route.NONE, None, diagnostics)
