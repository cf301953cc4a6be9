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
be orthogonal to. Every inner factor is tested by sign concordance (a Scaled
B by the sign pattern of B, which holds it), and Scaled then by one exact
feasibility question. An Interval class is swept over tau alone, one exact
feasibility question per tau; without a left matrix each tau is first
screened by concordance of the box's sign sets with rho = 0, and only a tau
that passes gets its question.

sigma(S), sigma(ker A) and the vectors with a given sign that a witness needs
come from the elementary vectors of the subspace (`subspace_sign_vectors`,
`realize_sign_in_subspace`), each read off one `linalg._eliminate` of int
rows, and sign-set members have a closed form (`signset_member_rows`), so the
phase-1 LP serves only Scaled pairs and intervals. Every tau and rho is a
pair (pos, neg) of bit masks from the closure through the concordance test
(`signs._concordant_rows`, three mask tests a pair), and becomes a SignVector
only when an LP or a witness (`_hit`) takes it.

Every search is lexicographic (-1 < 0 < +1) and the first feasible pair is the
one a witness is built from, so runs are reproducible bit for bit. Each test
is odd, (tau, rho) passing exactly when (-tau, -rho) does, so only the tau
whose first nonzero entry is -1 are swept, the first half of sigma(S) in that
order.
"""

from __future__ import annotations

import itertools
import operator
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
    SignSetMatrix,
    SignSets,
)
from .feasibility import feasible_cone, strict_sign_feasible
from .limits import CapExceeded, Caps, DEFAULT_CAPS
from .linalg import RationalMatrix, Subspace, _eliminate
from .signs import (SignVector, _concordant_rows, _passes, _row_masks, sigma, sign_masks,
                    sign_of, signset_row_orthogonal_witness)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sign vectors of a subspace


def subspace_sign_vectors(S: Subspace, caps: Optional[Caps] = None) -> tuple[tuple[int, int], ...]:
    """sigma(S \\ {0}) as sorted (positive, negative) bit-mask pairs, bit i for
    coordinate i (`SignVector.from_masks` decodes one); cached on S.

    Computed without a feasibility problem, as the closure of the signs of the
    elementary vectors of S (`_elementary`) under conformal composition
    (X o Y)_i = X_i if X_i != 0 else Y_i. Every z in S \\ {0} is a conformal
    sum of elementary vectors, so sigma(z) is a composition of their signs
    (Rockafellar, "The elementary vectors of a subspace of R^N", 1969);
    conversely sigma(x + eps y) = sigma(x) o sigma(y) for x, y in S and small
    eps > 0. The closure is therefore sigma(S \\ {0}), with nothing sampled or
    dropped. Sorted is lexicographic (-1 < 0 < +1, coordinate 0 first), the
    order of w(pos) - w(neg), w(mask) the sum of 3^(n-1-i) over its bits i, so
    the vectors led by -1 (key below 0) are the first half.
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
    cached = S._sign_vectors_cache.get("sign_vectors")
    if cached is not None:
        return cached
    if S.kernel_rep().rows == 0:
        found = _all_sign_masks(n)
        del found[len(found) // 2]  # the zero vector
    else:
        # while closing, a sign vector is one int pos | neg << n, and X o Y is
        # X | Y with Y restricted to the zero set of X (once per zero set)
        low = (1 << n) - 1
        elementary = {p | m << n for p, m in _elementary(S)}
        restricted: dict[int, set[int]] = {}
        found = set(elementary)
        newest = elementary
        while newest:
            composed: set[int] = set()
            for x in newest:
                zero = ~(x | x >> n) & low
                if zero not in restricted:
                    restricted[zero] = {y & (zero | zero << n) for y in elementary}
                composed.update(map(x.__or__, restricted[zero]))
            newest = composed - found
            found |= newest
        weight = {mask: int(format(mask, f"0{n}b")[::-1], 3)
                  for mask in {x & low for x in found} | {x >> n for x in found}}
        found = [(x & low, x >> n) for x in
                 sorted(found, key=lambda x: weight[x & low] - weight[x >> n])]
    S._sign_vectors_cache["sign_vectors"] = out = tuple(found)
    return out


def _all_sign_masks(n: int) -> list[tuple[int, int]]:
    """Every sign vector of length n as (positive, negative) masks, sorted (0 in the middle)."""
    out = [(0, 0)]
    for bit in (1 << i for i in reversed(range(n))):
        out = [(p, m | bit) for p, m in out] + out + [(p | bit, m) for p, m in out]
    return out


def _elementary(S: Subspace) -> dict[tuple[int, int], tuple[tuple[int, ...], int]]:
    """The elementary vectors of S (its nonzero vectors of minimal support),
    one exact vector per sign, keyed by its (positive, negative) bit masks over
    the coordinates; cached on S. With an image basis V (n x d), Vc is
    elementary exactly when the rows of V it vanishes on have rank d - 1, so
    every elementary vector is +-Vc for c spanning the kernel of some d - 1
    rows of V of rank d - 1. `_eliminate` of their int rows gives den * c
    (free coordinate den, pivot coordinates -work[i][free]); with row j of V
    ints_j / s_j, (Vc)_j = (ints_j . den c) / (den * s_j), held as the ints
    (nums, den) until `realize_sign_in_subspace` sums it."""
    cached = S._sign_vectors_cache.get("elementary")
    if cached is not None:
        return cached
    n = S.n
    V = S.image_basis()
    d = V.cols
    rows = V.int_rows()
    elementary: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
    for subset in itertools.combinations(range(n), d - 1) if d else ():
        work = [rows[i][0] for i in subset]
        pivots, den, _ = _eliminate(work)
        if len(pivots) != d - 1:
            continue
        free = next(j for j in range(d) if j not in pivots)
        c = [den if j == free else -work[pivots.index(j)][free] for j in range(d)]
        nums = [sum(map(operator.mul, ints, c)) for ints, _ in rows]
        pos, neg = sign_masks([num * den for num in nums])
        for key, sign in (((pos, neg), 1), ((neg, pos), -1)):
            if key not in elementary:
                elementary[key] = (tuple(sign * num for num in nums), den)
    S._sign_vectors_cache["elementary"] = elementary
    return elementary


def realize_sign_in_subspace(S: Subspace, tau: SignVector) -> Optional[tuple[Fraction, ...]]:
    """Exact z in S with sigma(z) = tau, or None when there is none.

    z is the sum of the elementary vectors of S whose signs are conformal to
    tau (nonzero only where tau is, and with its sign there). Every vector
    with signs tau is a conformal sum of such vectors (Rockafellar), so tau is
    realizable exactly when their supports cover supp tau; the sum cannot
    cancel, since all its terms agree with tau.
    """
    if len(tau) != S.n:
        raise ValueError("dimension mismatch")
    pos, neg = sign_masks(tau)
    z = [_ZERO] * S.n
    covered = 0
    scales = [s for _, s in S.image_basis().int_rows()]
    for (p, m), (nums, den) in _elementary(S).items():
        if p & ~pos == 0 and m & ~neg == 0:
            z = [a + Fraction(num, den * s) for a, num, s in zip(z, nums, scales)]
            covered |= p | m
    return tuple(z) if covered == pos | neg else None


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
    if len(rho) != W.rows or len(tau) != W.cols:
        raise ValueError("dimension mismatch")
    return _passes(_concordant_rows(_row_masks(W), *sign_masks(tau)), *sign_masks(rho))


def signset_member_rows(W: SignSetMatrix, x: Sequence[Fraction],
                        targets: Sequence[Fraction]) -> RationalMatrix:
    """A matrix with entry signs in W and Bx = targets exactly, in closed form.

    Preconditions (checked): sigma(targets_i) is concordant with sigma(x) row
    by row, i.e. concordant_pair(sigma(targets), sigma(x), W) holds.

    Each row first picks a sign row s in W: one orthogonal to sigma(x) for a
    zero target, otherwise the first entry that can give the target's sign,
    with 0 (or the entry's first sign) elsewhere. With P and N the coordinates
    where s_j x_j is positive or negative, and t the target, the magnitudes
    |b_j x_j| = ([N nonempty] + max(t, 0)) / |P| on P and
    ([P nonempty] + max(-t, 0)) / |N| on N make b.x = t; b_j = s_j elsewhere.
    """
    n = len(x)
    tau = sigma(x)
    rows: list[list[Fraction]] = []
    for i in range(W.rows):
        row_sets, t = W.row(i), targets[i]
        if t == 0:
            s = signset_row_orthogonal_witness(row_sets, tau)
            if s is None:
                raise ArithmeticError(f"row {i} cannot be made orthogonal to {tau}")
        else:
            want = sign_of(t)
            j0 = next((j for j in range(n) if tau[j] and want * tau[j] in row_sets[j]), None)
            if j0 is None:
                raise ArithmeticError(f"row {i}: no entry can produce sign {want} against {tau}")
            s = [want * tau[j] if j == j0 else 0 if 0 in row_sets[j] else min(row_sets[j])
                 for j in range(n)]
        prods = [s[j] * tau[j] for j in range(n)]
        P, N = prods.count(1), prods.count(-1)
        # |b_j x_j| on P and on N
        share = {1: (Fraction(N > 0) + max(t, _ZERO)) / (P or 1),
                 -1: (Fraction(P > 0) + max(-t, _ZERO)) / (N or 1)}
        rows.append([s[j] * share[prods[j]] / abs(x[j]) if prods[j] else Fraction(s[j])
                     for j in range(n)])
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


def _interval_row_constraints(D: IntervalBox, i: int, tau: SignVector, width: int,
                              u_index: Optional[int], plan: _RowPlan) -> None:
    """Add to plan the linear constraints tying u_i to the achievable values of
    row i applied to a z with sigma(z) = tau. Variables are (z, u); width is
    their total count; u_index is the column of u_i or None when u is
    identically zero."""
    n = len(tau)
    base = [0] * width
    if u_index is not None:
        base[u_index] = 1

    points = [0] * width  # sum of point entries c_ij z_j
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
        return

    punctured_alone = len(active) == 1 and active[0][1].punctured
    # lower bound: residual >= sum of per-entry range minima (when finite)
    lo_coeffs = [0] * width
    lo_open = False
    lo_finite = True
    hi_coeffs = [0] * width
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

    plan = _RowPlan()

    def pad(row, offset):
        out = [0] * width
        for k, v in enumerate(row):
            out[offset + k] = v
        return out

    for zr in S.kernel_rep().data:
        plan.eq.append(pad(zr, 0))
    if has_u:
        for ar in A.data:
            plan.eq.append(pad(ar, n))
    for j, s in enumerate(tau):
        unit = [0] * width
        unit[j] = s or 1
        (plan.strict if s else plan.eq).append(unit)

    for i in range(r):
        _interval_row_constraints(D, i, tau, width, n + i if has_u else None, plan)

    if len(plan.branch_rows) > 0 and 2 ** len(plan.branch_rows) > caps.branches:
        raise CapExceeded("branches", 2 ** len(plan.branch_rows), caps.branches)

    branch_space = itertools.product((1, -1), repeat=len(plan.branch_rows))
    for orientation in branch_space:
        extra = [
            [v * o for v in row] for row, o in zip(plan.branch_rows, orientation)
        ]
        sol = feasible_cone(width, eq=plan.eq, nonneg=plan.nonneg,
                            strict=plan.strict + extra)
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
    total = [1] * m + [-T]
    eq.append(total)
    t_row = [0] * m + [1]
    strict.append(t_row)
    punctured_idx: list[int] = []
    for k, (j, e) in enumerate(active):
        lo, hi, lo_o, hi_o = _product_range(e, tau[j])
        azj = z[j] if z[j] > 0 else -z[j]
        if lo is not None:
            row = [0] * width
            row[k] = 1
            row[m] = -lo * azj
            (strict if lo_o else nonneg).append(row)
        if hi is not None:
            row = [0] * width
            row[k] = -1
            row[m] = hi * azj
            (strict if hi_o else nonneg).append(row)
        if e.punctured:
            punctured_idx.append(k)
    for orientation in itertools.product((1, -1), repeat=len(punctured_idx)):
        extra = []
        for k, o in zip(punctured_idx, orientation):
            row = [0] * width
            row[k] = o
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


def _signsets_of(cls: MatrixClass) -> SignSetMatrix:
    """The sign sets of a sign-set factor; for Scaled(B) the sign pattern of
    B, a class that holds every member of Scaled(B)."""
    if isinstance(cls, Scaled):
        return SignSetMatrix.from_signs([[sign_of(b) for b in row] for row in cls.B.data])
    return cls.W


def _serves(cls: MatrixClass, A: Optional[RationalMatrix]) -> bool:
    if isinstance(cls, (Scaled, SignSets, Interval)):
        return True
    return (A is None and isinstance(cls, Product)
            and isinstance(cls.left, SignSets)
            and isinstance(cls.right, (Scaled, SignSets)))


def sign_route(cls: MatrixClass, S: Subspace, A: Optional[RationalMatrix],
               caps: Optional[Caps] = None) -> SignRouteResult:
    """Decide injectivity by the sign sweep for the supported class shapes.

    Supported: Scaled, SignSets, Interval (each optionally with a left matrix
    A), and the left-free class products SignSets x Scaled and SignSets x
    SignSets. Any other shape comes back unsupported before sigma(S) is
    computed.

    Every shape but Interval runs one loop over the pairs (tau, rho): the
    left side (none, A, or an outer sign-set factor) supplies the list of rho
    (`_left_zero_signs`), the inner factor tests each pair (`concordant_pair`,
    then for Scaled the `pair_sign_feasible` LP), and `_hit` builds the
    witness of the first pair that passes. Interval runs one LP per tau
    (`interval_kernel_feasible`); without a left matrix it first screens each
    tau by the same concordance test with rho = 0 on the box's sign hull
    (every member lies in that sign-set class) and skips a tau that fails.
    pairs_checked counts every tau either way. A skipped tau builds no branch
    plan, so the branches cap bounds only the LPs that run.

    Only the taus whose first nonzero entry is -1 are swept. sigma(S) and
    every list of rho are closed under negation, and every pair test is odd:
    (tau, rho) passes exactly when (-tau, -rho) does (negate z, the image and
    the LP point). Those taus are the first half of the sorted sigma(S), since
    every tau before one of them starts with -1 too, so a NOT_INJECTIVE sweep
    stops at the same first pair, with the same pairs_checked, as a sweep over
    all of sigma(S), and an INJECTIVE one checks half the pairs. diagnostics
    "taus" still counts all of sigma(S).
    """
    if not _serves(cls, A):
        return SignRouteResult(False)
    if caps is None:
        caps = DEFAULT_CAPS
    taus = subspace_sign_vectors(S, caps)
    diag = {"taus": len(taus), "pairs_checked": 0}
    # the half whose first nonzero entry is -1, a prefix of the sorted taus
    taus = taus[:len(taus) // 2]

    if isinstance(cls, Interval):
        hull = None if A is not None else _row_masks(SignSetMatrix(
            tuple(tuple(e.sign_set() for e in row) for row in cls.D.entries)))
        for tau in taus:
            diag["pairs_checked"] += 1
            if hull is not None and not _passes(_concordant_rows(hull, *tau), 0, 0):
                continue
            tau = SignVector.from_masks(*tau, S.n)
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
    scaled = isinstance(inner, Scaled)
    W_out = _signsets_of(outer) if outer is not None else None
    W_in = _signsets_of(inner)
    K = Subspace.from_kernel_rep(A) if A is not None else None
    rhos = _left_zero_signs(W_out, K, inner.rows, caps)
    if W_out is None:
        diag["rhos"] = len(rhos)
    masks = _row_masks(W_in)
    for tau in taus:
        rows_ok = _concordant_rows(masks, *tau)
        for rho in rhos:
            # pairs_checked counts the deciding test: concordance for sign
            # sets, the LP behind it for Scaled
            if not scaled:
                diag["pairs_checked"] += 1
            if not _passes(rows_ok, *rho):
                continue
            tau_v = SignVector.from_masks(*tau, S.n)
            rho_v = SignVector.from_masks(*rho, inner.rows)
            v = None
            if scaled:
                diag["pairs_checked"] += 1
                v = pair_sign_feasible(inner.B, tau_v, rho_v)
                if v is None:
                    continue
            hit = _hit(inner, W_in, W_out, S, K, tau_v, rho_v, v)
            return SignRouteResult(True, injective=False, hit=hit, diagnostics=diag)
    return SignRouteResult(True, injective=True, diagnostics=diag)


def _left_zero_signs(W_out: Optional[SignSetMatrix], K: Optional[Subspace],
                     rows: int, caps: Caps) -> list[tuple[int, int]]:
    """The sorted signs rho (as masks) of an inner image that the left side
    can send to 0: with an outer sign-set factor, those every row of it can
    be orthogonal to; otherwise {0} union sigma(K) for K = ker A (0 sorts to
    the middle), just 0 without a left matrix."""
    if W_out is not None:
        if rows > caps.sign_enum_dim:
            raise CapExceeded("sign_enum_dim", rows, caps.sign_enum_dim)
        masks = _row_masks(W_out)
        return [rho for rho in _all_sign_masks(rows) if not _concordant_rows(masks, *rho)[2]]
    kernel = subspace_sign_vectors(K, caps) if K is not None else ()
    return [*kernel[:len(kernel) // 2], (0, 0), *kernel[len(kernel) // 2:]]


def _hit(inner: MatrixClass, W_in: SignSetMatrix, W_out: Optional[SignSetMatrix],
         S: Subspace, K: Optional[Subspace], tau: SignVector, rho: SignVector,
         v: Optional[tuple[Fraction, ...]]) -> SignRouteHit:
    """The singular member of a feasible pair: z in S with signs tau, a target
    image y with signs rho that the left side sends to 0, the inner member
    mapping z to y and, under an outer sign-set factor W_out, the outer member
    killing y. z, and y in K = ker A, come from the elementary vectors of S and
    K. v is the LP point of a Scaled inner factor (signs tau, Bv signs rho),
    None for sign sets."""
    z = realize_sign_in_subspace(S, tau)
    # w has signs rho (Bv, or rho itself for sign sets); y is the image the
    # inner member must reach: w under an outer factor, else a vector of K
    w = inner.B.apply(v) if v is not None else tuple(Fraction(s) for s in rho)
    if W_out is not None:
        y = w
    else:
        y = realize_sign_in_subspace(K, rho) if K is not None else (_ZERO,) * inner.rows
    if z is None or y is None:
        raise ArithmeticError(f"pair ({tau}, {rho}) not realizable")
    lift_data = None
    if v is not None:
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
        member = Member(signset_member_rows(W_in, z, y), "signsets")
    if W_out is not None:
        H = signset_member_rows(W_out, y, [_ZERO] * W_out.rows)
        member = Member(H.matmul(member.matrix), "product",
                        factors=(Member(H, "signsets"), member))
    return SignRouteHit(member, tuple(z), tau, rho, lift_data)
