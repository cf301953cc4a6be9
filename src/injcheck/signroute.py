"""Sign-vector route: decide injectivity through sign arithmetic and exact
feasibility, and construct singular members when the answer is negative.

The driving fact: for z in a subspace S and positive scalings lambda, the
vectors lambda * z sweep the whole open sign orthant of sigma(z). A class
served here is an inner factor (Scaled or sign sets) behind a left side, and
it has a singular member exactly when some pair (tau, rho) passes the inner
factor's test: tau in sigma(S \\ {0}), rho a sign of the inner image that the
left side can send to 0. The left side contributes only the list of rho:
the zero vector alone when there is none, {0} union sigma(ker A \\ {0}) for a
left matrix A, and the sign vectors every row of an outer sign-set factor can
be orthogonal to. The test is one exact feasibility question for Scaled and a
sign test for sign sets; an Interval class is swept over tau alone, one
feasibility question each. sigma(S) and sigma(ker A) need no feasibility
question: they are the signs of the elementary vectors, closed under
conformal composition (`subspace_sign_vectors`).

Every search is lexicographic (-1 < 0 < +1) and the first feasible pair is the
one a witness is built from, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .classes import (
    Interval,
    IntervalBox,
    IntervalEntry,
    MatrixClass,
    Member,
    Product,
    Scaled,
    SignPattern,
    SignSetMatrix,
    SignSets,
)
from .feasibility import feasible_cone, strict_sign_feasible
from .limits import CapExceeded, Caps, DEFAULT_CAPS
from .linalg import RationalMatrix, Subspace, kernel_basis
from .signs import (
    SignVector,
    sigma,
    sign_of,
    signset_row_orthogonal,
    signset_row_orthogonal_witness,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sign vectors of a subspace


def subspace_sign_vectors(S: Subspace, caps: Optional[Caps] = None) -> tuple[SignVector, ...]:
    """sigma(S \\ {0}) as a lexicographically sorted tuple (cached on S).

    Computed without a feasibility problem, from the elementary vectors of S
    (its nonzero vectors of minimal support) and conformal composition
    (X o Y)_i = X_i if X_i != 0 else Y_i.

    Exactness: with an image basis V (n x d), Vc is elementary exactly when the
    rows of V it vanishes on have rank d - 1, so every elementary vector is
    +-Vc for c spanning the exact kernel of some d - 1 rows of V of rank d - 1.
    Every z in S \\ {0} is a conformal sum of elementary vectors, so sigma(z)
    is a composition of their signs (Rockafellar, "The elementary vectors of a
    subspace of R^N", 1969); conversely sigma(x + eps y) = sigma(x) o sigma(y)
    for x, y in S and small eps > 0. The closure of the elementary signs under
    composition is therefore sigma(S \\ {0}), with nothing sampled or dropped.
    """
    if caps is None:
        caps = DEFAULT_CAPS
    n = S.n
    if S.dim == 0:
        return ()
    # the cap comes before the cache: a verdict under a cap must not depend
    # on what an earlier call with other caps left on S
    if n > caps.sign_enum_dim:
        raise CapExceeded("sign_enum_dim", n, caps.sign_enum_dim)
    cache_key = "sign_vectors"
    cached = S._sign_vectors_cache.get(cache_key)
    if cached is not None:
        return cached
    if S.kernel_rep().rows == 0:
        out = tuple(SignVector(c) for c in itertools.product((-1, 0, 1), repeat=n)
                    if any(c))
        S._sign_vectors_cache[cache_key] = out
        return out

    # sign vectors as (positive, negative) bit masks over the coordinates
    V = S.image_basis()
    d = V.cols
    elementary: set[tuple[int, int]] = set()
    for rows in itertools.combinations(range(n), d - 1):
        c = kernel_basis(RationalMatrix(d - 1, d, [V.row(i) for i in rows]))
        if c.cols != 1:
            continue
        z = V.apply(c.col(0))
        pos = sum(1 << i for i in range(n) if z[i] > 0)
        neg = sum(1 << i for i in range(n) if z[i] < 0)
        elementary.update({(pos, neg), (neg, pos)})
    # X o Y depends on Y only through its signs where X is zero, so the
    # elementary signs are restricted once per zero set
    restricted: dict[int, set[tuple[int, int]]] = {}
    found = set(elementary)
    newest = elementary
    while newest:
        composed: set[tuple[int, int]] = set()
        for xp, xn in newest:
            zero = ~(xp | xn) & ((1 << n) - 1)
            if zero not in restricted:
                restricted[zero] = {(yp & zero, yn & zero) for yp, yn in elementary}
            composed.update((xp | yp, xn | yn) for yp, yn in restricted[zero])
        newest = composed - found
        found |= newest
    out = tuple(SignVector(c) for c in sorted(
        tuple((p >> i & 1) - (m >> i & 1) for i in range(n)) for p, m in found))
    S._sign_vectors_cache[cache_key] = out
    return out


def realize_sign_in_subspace(S: Subspace, tau: SignVector) -> Optional[tuple[Fraction, ...]]:
    """Exact z in S with sigma(z) = tau."""
    return strict_sign_feasible(S.kernel_rep(), tau)


def kernel_sign_vectors(A: RationalMatrix, caps: Optional[Caps] = None) -> tuple[SignVector, ...]:
    """sigma(ker A \\ {0}), lexicographically sorted."""
    return subspace_sign_vectors(Subspace.from_kernel_rep(A), caps)


# ---------------------------------------------------------------------------
# pairs and concordance


def pair_sign_feasible(B: RationalMatrix, tau, rho) -> Optional[tuple[Fraction, ...]]:
    """Exact v with sigma(v) = tau and sigma(Bv) = rho, or None."""
    return strict_sign_feasible(None, tau, extra=[(B, rho)])


def concordant_pair(rho, tau, W: SignSetMatrix) -> bool:
    """Is there a member of the sign-set class mapping some x with sigma(x) =
    tau to some y with sigma(y) = rho?

    Row i needs: a coordinate j and sign s in w_ij with s * tau_j = rho_i when
    rho_i is nonzero (the row can then be made to dominate); and a sign row
    orthogonal to tau inside the row's sign sets when rho_i = 0.
    """
    rho_e = rho.entries if isinstance(rho, SignVector) else tuple(int(s) for s in rho)
    tau_e = tau.entries if isinstance(tau, SignVector) else tuple(int(s) for s in tau)
    if len(rho_e) != W.rows or len(tau_e) != W.cols:
        raise ValueError("dimension mismatch")
    for i in range(W.rows):
        row = W.row(i)
        if rho_e[i] == 0:
            if not signset_row_orthogonal(row, tau_e):
                return False
        else:
            if not any(
                s * tau_e[j] == rho_e[i] for j in range(W.cols) for s in row[j]
            ):
                return False
    return True


def signset_member_rows(W: SignSetMatrix, x: Sequence[Fraction],
                        targets: Sequence[Fraction]) -> RationalMatrix:
    """A matrix with entry signs in W and Bx = targets exactly.

    Preconditions (checked): sigma(targets_i) is concordant with sigma(x) row
    by row, i.e. concordant_pair(sigma(targets), sigma(x), W) holds.

    Zero-target rows come from the exact feasibility solver on the orthogonal
    sign choice; nonzero-target rows place a dominant entry and shrink the
    other magnitudes by exact halving until the sign is right, then rescale.
    """
    n = len(x)
    tau = sigma(x)
    rows: list[list[Fraction]] = []
    for i in range(W.rows):
        row_sets = W.row(i)
        target = targets[i]
        if target == 0:
            tau_prime = signset_row_orthogonal_witness(row_sets, tau)
            if tau_prime is None:
                raise ArithmeticError(f"row {i} cannot be made orthogonal to {tau}")
            if tau_prime.is_zero():
                rows.append([_ZERO] * n)
                continue
            xmat = RationalMatrix(1, n, [list(x)])
            b = strict_sign_feasible(xmat, tau_prime)
            if b is None:
                raise ArithmeticError(f"orthogonal row {i} infeasible for {tau_prime}")
            rows.append(list(b))
            continue
        want = sign_of(target)
        dominant = None
        for j in range(n):
            for s in sorted(row_sets[j]):
                if s * tau[j] == want:
                    dominant = (j, s)
                    break
            if dominant:
                break
        if dominant is None:
            raise ArithmeticError(f"row {i}: no entry can produce sign {want} against {tau}")
        j0, s0 = dominant
        fill = []
        for j in range(n):
            if j == j0:
                fill.append(None)
            elif 0 in row_sets[j]:
                fill.append(0)
            else:
                fill.append(sorted(row_sets[j])[0])
        eps = _ONE
        while True:
            b = [
                (Fraction(s0) if j == j0 else Fraction(fill[j]) * eps)
                for j in range(n)
            ]
            dot = sum((bi * xi for bi, xi in zip(b, x)), _ZERO)
            if dot != 0 and sign_of(dot) == want:
                break
            eps = eps / 2
        scale = target / dot  # positive: same sign
        rows.append([bi * scale for bi in b])
    M = RationalMatrix(W.rows, n, rows)
    if not W.contains(M):
        raise ArithmeticError("constructed rows left the sign-set class")
    if M.apply(x) != tuple(targets):
        raise ArithmeticError("constructed rows miss the targets")
    return M


# ---------------------------------------------------------------------------
# interval feasibility route


def _product_range(e: IntervalEntry, zsign: int) -> tuple[Optional[Fraction], Optional[Fraction],
                                                          bool, bool]:
    """Range of b * z over b in e for a z of known sign, as a multiple of |z|:
    returns (lo, hi, lo_open, hi_open) of {b * s : b in e}, s = zsign."""
    if zsign > 0:
        return e.lower, e.upper, e.lower_open, e.upper_open
    lo = None if e.upper is None else -e.upper
    hi = None if e.lower is None else -e.lower
    return lo, hi, e.upper_open, e.lower_open


@dataclass
class _RowPlan:
    eq: list[list[Fraction]] = field(default_factory=list)
    nonneg: list[list[Fraction]] = field(default_factory=list)
    strict: list[list[Fraction]] = field(default_factory=list)
    branch_rows: list[list[Fraction]] = field(default_factory=list)  # each: row != 0


def _interval_row_constraints(D: IntervalBox, i: int, tau: SignVector,
                              width: int, u_index: Optional[int]) -> _RowPlan:
    """Linear constraints tying u_i to the achievable values of row i applied
    to a z with sigma(z) = tau. Variables are (z, u); width is their total
    count; u_index is the column of u_i or None when u is identically zero."""
    n = len(tau)
    plan = _RowPlan()
    base = [_ZERO] * width
    if u_index is not None:
        base[u_index] = _ONE

    points = [_ZERO] * width  # sum of point entries c_ij z_j
    active: list[tuple[int, IntervalEntry]] = []
    for j in range(n):
        if tau[j] == 0:
            continue
        e = D.at(i, j)
        if e.is_point:
            points[j] = e.lower
        else:
            active.append((j, e))

    # u_i - sum(point terms) is what the free entries must produce
    residual = [b - p for b, p in zip(base, points)]

    if not active:
        plan.eq.append(residual)
        return plan

    punctured_alone = len(active) == 1 and active[0][1].punctured
    # lower bound: residual >= sum of per-entry range minima (when finite)
    lo_coeffs = [_ZERO] * width
    lo_open = False
    lo_finite = True
    hi_coeffs = [_ZERO] * width
    hi_open = False
    hi_finite = True
    for j, e in active:
        lo, hi, lo_o, hi_o = _product_range(e, tau[j])
        if lo is None:
            lo_finite = False
        else:
            lo_coeffs[j] = lo if tau[j] > 0 else -lo
            lo_open = lo_open or lo_o
        if hi is None:
            hi_finite = False
        else:
            hi_coeffs[j] = hi if tau[j] > 0 else -hi
            hi_open = hi_open or hi_o
    # The range of b_ij z_j is (lo * |z_j|, hi * |z_j|); |z_j| = tau_j z_j,
    # so the bound rows are linear in z with the sign folded into the
    # coefficient above.
    if lo_finite:
        row = list(residual)
        for j, _ in active:
            row[j] -= lo_coeffs[j]
        (plan.strict if lo_open else plan.nonneg).append(row)
    if hi_finite:
        row = [-r for r in residual]
        for j, _ in active:
            row[j] += hi_coeffs[j]
        (plan.strict if hi_open else plan.nonneg).append(row)
    if punctured_alone:
        plan.branch_rows.append(list(residual))
    return plan


def interval_kernel_feasible(
    D: IntervalBox,
    S: Subspace,
    tau: SignVector,
    A: Optional[RationalMatrix] = None,
    caps: Optional[Caps] = None,
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Exact (z, u) with z in S, sigma(z) = tau, u = Mz achievable for some
    member M of the interval class, and Au = 0 (u = 0 when A is None)."""
    if caps is None:
        caps = DEFAULT_CAPS
    n = S.n
    r = D.rows
    has_u = A is not None
    width = n + (r if has_u else 0)

    eq: list[list[Fraction]] = []
    nonneg: list[list[Fraction]] = []
    strict: list[list[Fraction]] = []
    branch_rows: list[list[Fraction]] = []

    def pad(row, offset):
        out = [_ZERO] * width
        for k, v in enumerate(row):
            out[offset + k] = v
        return out

    for zr in S.kernel_rep().data:
        eq.append(pad(zr, 0))
    if has_u:
        for ar in A.data:
            eq.append(pad(ar, n))
    for j, s in enumerate(tau):
        unit = [_ZERO] * width
        unit[j] = _ONE
        if s == 0:
            eq.append(unit)
        elif s > 0:
            strict.append(unit)
        else:
            strict.append([-v for v in unit])

    for i in range(r):
        plan = _interval_row_constraints(D, i, tau, width, n + i if has_u else None)
        eq.extend(plan.eq)
        nonneg.extend(plan.nonneg)
        strict.extend(plan.strict)
        branch_rows.extend(plan.branch_rows)

    if len(branch_rows) > 0 and 2 ** len(branch_rows) > caps.branches:
        raise CapExceeded("branches", 2 ** len(branch_rows), caps.branches)

    branch_space = itertools.product((1, -1), repeat=len(branch_rows))
    for orientation in branch_space:
        extra = [
            [v * o for v in row] for row, o in zip(branch_rows, orientation)
        ]
        sol = feasible_cone(width, eq=eq, nonneg=nonneg, strict=strict + extra)
        if sol is not None:
            z = sol[:n]
            u = sol[n:] if has_u else tuple([_ZERO] * r)
            return tuple(z), tuple(u)
    return None


def interval_member_through(D: IntervalBox, z: Sequence[Fraction],
                            targets: Sequence[Fraction]) -> RationalMatrix:
    """A member M of the interval box with Mz = targets exactly.

    Each row is one small exact feasibility problem in the products
    v_j = b_ij z_j: they must sum to the row target, stay in the per-entry
    product ranges (openness as strictness), and avoid zero for punctured
    entries (a two-way branch per such entry). Homogenized with one extra
    positive scale variable so the cone solver applies.
    """
    n = len(z)
    tau = sigma(z)
    rows_out: list[list[Fraction]] = []
    for i in range(D.rows):
        active: list[tuple[int, IntervalEntry]] = []
        fixed = _ZERO
        for j in range(n):
            e = D.at(i, j)
            if tau[j] == 0:
                continue
            if e.is_point:
                fixed += e.lower * z[j]
            else:
                active.append((j, e))
        T = targets[i] - fixed  # what the active entries must sum to
        if not active:
            if T != 0:
                raise ArithmeticError(f"row {i}: target unreachable, no active entries")
            values: dict[int, Fraction] = {}
        else:
            values = _solve_row_products(active, tau, z, T)

        row = []
        for j in range(n):
            e = D.at(i, j)
            if tau[j] == 0:
                row.append(e.pick_point())
            elif e.is_point:
                row.append(e.lower)
            else:
                row.append(values[j] / z[j])
        rows_out.append(row)
    M = RationalMatrix(D.rows, n, rows_out)
    if not D.contains(M):
        raise ArithmeticError("constructed member left the box")
    if M.apply(z) != tuple(targets):
        raise ArithmeticError("constructed member misses the targets")
    return M


def _solve_row_products(active: list[tuple[int, IntervalEntry]], tau, z,
                        T: Fraction) -> dict[int, Fraction]:
    """Exact products v_j = b_ij z_j for one row: sum T, each within its range,
    nonzero where punctured. Variables (v_1..v_m, t), t > 0 a homogenizing
    scale; the returned values are v/t."""
    m = len(active)
    width = m + 1
    eq: list[list[Fraction]] = []
    nonneg: list[list[Fraction]] = []
    strict: list[list[Fraction]] = []
    total = [_ONE] * m + [-T]
    eq.append(total)
    t_row = [_ZERO] * m + [_ONE]
    strict.append(t_row)
    punctured_idx: list[int] = []
    for k, (j, e) in enumerate(active):
        lo, hi, lo_o, hi_o = _product_range(e, tau[j])
        azj = z[j] if z[j] > 0 else -z[j]
        if lo is not None:
            row = [_ZERO] * width
            row[k] = _ONE
            row[m] = -lo * azj
            (strict if lo_o else nonneg).append(row)
        if hi is not None:
            row = [_ZERO] * width
            row[k] = -_ONE
            row[m] = hi * azj
            (strict if hi_o else nonneg).append(row)
        if e.punctured:
            punctured_idx.append(k)
    for orientation in itertools.product((1, -1), repeat=len(punctured_idx)):
        extra = []
        for k, o in zip(punctured_idx, orientation):
            row = [_ZERO] * width
            row[k] = Fraction(o)
            extra.append(row)
        sol = feasible_cone(width, eq=eq, nonneg=nonneg, strict=strict + extra)
        if sol is not None:
            t = sol[m]
            return {active[k][0]: sol[k] / t for k in range(m)}
    raise ArithmeticError("row products infeasible; targets were not achievable")


# ---------------------------------------------------------------------------
# route driver


@dataclass
class SignRouteHit:
    member: Member
    z: tuple[Fraction, ...]
    tau: SignVector
    rho: Optional[SignVector]
    lift_data: Optional[tuple] = None  # (B, v, w) exact data for a monomial lift


@dataclass
class SignRouteResult:
    supported: bool
    injective: Optional[bool] = None
    hit: Optional[SignRouteHit] = None
    diagnostics: dict = field(default_factory=dict)


def _achievable_row_signs(brow: Sequence[Fraction], tau: SignVector) -> frozenset:
    contribs = {sign_of(b) * t for b, t in zip(brow, tau)} - {0}
    if not contribs:
        return frozenset({0})
    if contribs == {1}:
        return frozenset({1})
    if contribs == {-1}:
        return frozenset({-1})
    return frozenset({-1, 0, 1})


def _signsets_of(cls: MatrixClass) -> SignSetMatrix:
    return cls.to_signsets() if isinstance(cls, SignPattern) else cls.W


def _serves(cls: MatrixClass, A: Optional[RationalMatrix]) -> bool:
    if isinstance(cls, (Scaled, SignPattern, SignSets, Interval)):
        return True
    return (A is None and isinstance(cls, Product)
            and isinstance(cls.left, (SignPattern, SignSets))
            and isinstance(cls.right, (Scaled, SignPattern, SignSets)))


def sign_route(cls: MatrixClass, S: Subspace, A: Optional[RationalMatrix],
               caps: Optional[Caps] = None) -> SignRouteResult:
    """Decide injectivity by the sign sweep for the supported class shapes.

    Supported: Scaled, SignPattern, SignSets, Interval (each optionally with a
    left matrix A), and the left-free class products SignSets x Scaled,
    SignPattern x Scaled, SignSets x SignSets and mixtures of those two kinds.
    Any other shape comes back unsupported before sigma(S) is computed.

    Every shape but Interval runs one loop over the pairs (tau, rho): the
    left side (none, A, or an outer sign-set factor) supplies the list of rho
    (`_left_zero_signs`), the inner factor tests each pair (the
    `pair_sign_feasible` LP after a row-sign prefilter for Scaled,
    `concordant_pair` for sign sets), and `_hit` builds the witness of the
    first pair that passes. Interval runs one LP per tau.
    """
    if not _serves(cls, A):
        return SignRouteResult(False)
    if caps is None:
        caps = DEFAULT_CAPS
    taus = subspace_sign_vectors(S, caps)
    diag = {"taus": len(taus), "pairs_checked": 0}

    if isinstance(cls, Interval):
        for tau in taus:
            diag["pairs_checked"] += 1
            got = interval_kernel_feasible(cls.D, S, tau, A, caps)
            if got is not None:
                z, u = got
                M = interval_member_through(cls.D, z, u)
                member = Member(M, "interval")
                return SignRouteResult(True, injective=False,
                                       hit=SignRouteHit(member, z, tau, None),
                                       diagnostics=diag)
        return SignRouteResult(True, injective=True, diagnostics=diag)

    outer, inner = (cls.left, cls.right) if isinstance(cls, Product) else (None, cls)
    W_out = _signsets_of(outer) if outer is not None else None
    W_in = None if isinstance(inner, Scaled) else _signsets_of(inner)
    rhos = _left_zero_signs(W_out, A, inner.rows, caps)
    if W_out is None:
        diag["rhos"] = len(rhos)
    for tau in taus:
        if W_in is None:
            options = [_achievable_row_signs(inner.B.row(i), tau) for i in range(inner.rows)]
        for rho in rhos:
            v = None
            if W_in is None:
                if any(rho[i] not in options[i] for i in range(inner.rows)):
                    continue
                diag["pairs_checked"] += 1
                v = pair_sign_feasible(inner.B, tau, rho)
                if v is None:
                    continue
            else:
                diag["pairs_checked"] += 1
                if not concordant_pair(rho, tau, W_in):
                    continue
            hit = _hit(inner, W_in, W_out, S, A, tau, rho, v)
            return SignRouteResult(True, injective=False, hit=hit, diagnostics=diag)
    return SignRouteResult(True, injective=True, diagnostics=diag)


def _left_zero_signs(W_out: Optional[SignSetMatrix], A: Optional[RationalMatrix],
                     rows: int, caps: Caps) -> list[SignVector]:
    """The sorted signs rho of an inner image that the left side can send to
    0: with an outer sign-set factor, those every row of it can be orthogonal
    to; otherwise {0} union sigma(ker A), just 0 without a left matrix."""
    if W_out is not None:
        if rows > caps.sign_enum_dim:
            raise CapExceeded("sign_enum_dim", rows, caps.sign_enum_dim)
        return [SignVector(c) for c in itertools.product((-1, 0, 1), repeat=rows)
                if all(signset_row_orthogonal(W_out.row(i), c) for i in range(W_out.rows))]
    kernel = kernel_sign_vectors(A, caps) if A is not None else ()
    return [SignVector(c) for c in sorted({(0,) * rows} | {k.entries for k in kernel})]


def _hit(inner: MatrixClass, W_in: Optional[SignSetMatrix], W_out: Optional[SignSetMatrix],
         S: Subspace, A: Optional[RationalMatrix], tau: SignVector, rho: SignVector,
         v: Optional[tuple[Fraction, ...]]) -> SignRouteHit:
    """The singular member of a feasible pair: z in S with signs tau, a target
    image y with signs rho that the left side sends to 0, the inner member
    mapping z to y and, under an outer sign-set factor W_out, the outer member
    killing y. W_in is the inner sign sets (None for Scaled, whose v has signs
    tau and Bv signs rho)."""
    z = realize_sign_in_subspace(S, tau)
    if z is None:
        raise ArithmeticError(f"{tau} not realizable in S")
    if W_in is None:
        w = inner.B.apply(v)
    if W_out is not None:
        # the inner member's own image: Bv, or rho itself for sign sets
        y = w if W_in is None else tuple(Fraction(s) for s in rho)
    elif rho.is_zero():
        y = (_ZERO,) * inner.rows
    else:
        y = strict_sign_feasible(A, rho)
        if y is None:
            raise ArithmeticError(f"{rho} not realizable in the left kernel")
    lift_data = None
    if W_in is None:
        B = inner.B
        lam = tuple(v[j] / z[j] if z[j] != 0 else _ONE for j in range(len(z)))
        kappa = tuple(y[i] / w[i] if w[i] != 0 else _ONE for i in range(B.rows))
        if any(s <= 0 for s in lam + kappa):
            raise ArithmeticError("a scaling went nonpositive; sign bookkeeping broken")
        matrix = RationalMatrix(
            B.rows, B.cols,
            [[kappa[i] * B.at(i, j) * lam[j] for j in range(B.cols)] for i in range(B.rows)],
        )
        member = Member(matrix, "scaled", kappa=kappa, lam=lam)
        if W_out is None:
            lift_data = (B, tuple(lam[j] * z[j] for j in range(len(z))), tuple(z))
    else:
        kind = "pattern" if isinstance(inner, SignPattern) and W_out is None else "signsets"
        member = Member(signset_member_rows(W_in, z, y), kind)
    if W_out is not None:
        H = signset_member_rows(W_out, y, [_ZERO] * W_out.rows)
        member = Member(H.matmul(member.matrix), "product",
                        factors=(Member(H, "signsets"), member))
    return SignRouteHit(member, tuple(z), tau, rho, lift_data)
