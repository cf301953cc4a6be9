"""Independent checkers used by the test suite.

These deliberately avoid the library's own combinatorial shortcuts: sign-set
concordance is re-decided with one exact feasibility problem per row, and
subspace sign vectors are re-enumerated by solving one feasibility problem
per candidate.  Slow, but a second opinion.  The rational phase-1 simplex,
the rational eliminations, products and elementary vectors, the set-based
concordance test and the falsifier's finite-difference repair are kept here
as the references for the integer tableau, the int-row core, the bit-mask
concordance and the one-elimination repair the library runs. The closure of
sigma(S) over SignVectors is the reference for its bit-mask pairs. The cone
system that splits every coordinate as u - v is the reference for the
presolve of `feasible_cone`, and the sweep over all of sigma(S), with one LP
per tau of an interval class, is the reference for the half sweep and for
the sign screen.
"""

import itertools
import math
from fractions import Fraction

from injcheck.classes import Interval, Member, Product, Scaled, SignSetMatrix
from injcheck.feasibility import strict_sign_feasible
from injcheck.limits import DEFAULT_CAPS
from injcheck.linalg import RationalMatrix, Subspace, integer_row, kernel_basis, rat_vector
from injcheck.signroute import (
    SignRouteHit,
    SignRouteResult,
    _hit,
    _left_zero_signs,
    _signsets_of,
    interval_kernel_feasible,
    interval_member_through,
    pair_sign_feasible,
    subspace_sign_vectors,
)
from injcheck.signs import SignVector, _achievable_products, _entries

ALL_SIGN_SETS = (
    frozenset({0}),
    frozenset({-1}),
    frozenset({1}),
    frozenset({-1, 0}),
    frozenset({0, 1}),
    frozenset({-1, 1}),
    frozenset({-1, 0, 1}),
)


def all_sign_vectors(n, include_zero=False):
    """All sign vectors of length n in lexicographic order (-1 < 0 < +1)."""
    for combo in itertools.product((-1, 0, 1), repeat=n):
        if include_zero or any(combo):
            yield SignVector(combo)


def lp_concordant(rho, tau, W: SignSetMatrix) -> bool:
    """Row-by-row constructive check: is there a member matrix of the sign-set
    class and a vector x with sigma(x) = tau whose image has signs rho?

    Fixes x = tau (any realization works, by positive rescaling) and asks the
    exact solver, for every admissible sign row, whether some row vector with
    those signs hits the required image sign.
    """
    tau_e = tuple(int(t) for t in tau)
    rho_e = tuple(int(r) for r in rho)
    n = W.cols
    xmat = RationalMatrix(1, n, [[Fraction(t) for t in tau_e]])
    for i in range(W.rows):
        row_sets = W.row(i)
        ok = False
        for choice in itertools.product(*[tuple(sorted(s)) for s in row_sets]):
            if strict_sign_feasible(None, choice, extra=[(xmat, (rho_e[i],))]) is not None:
                ok = True
                break
        if not ok:
            return False
    return True


def enumerate_subspace_signs(S: Subspace):
    """sigma(S minus the origin) by brute candidate enumeration."""
    Z = S.kernel_rep()
    out = []
    for cand in all_sign_vectors(S.n):
        if strict_sign_feasible(Z, cand.entries) is not None:
            out.append(cand)
    return tuple(sorted(out, key=lambda v: v.entries))


def signvector_closure(S: Subspace):
    """sigma(S minus the origin) as sorted SignVectors: the closure of the
    signs of the elementary vectors (from `fraction_elementary`) under
    conformal composition, every nonzero sign vector for the full space. The
    reference for the bit-mask pairs of `subspace_sign_vectors`."""
    n = S.n
    if S.dim == 0:
        return ()
    if S.kernel_rep().rows == 0:
        return tuple(all_sign_vectors(n))
    elementary = set(fraction_elementary(S))
    restricted = {}
    found = set(elementary)
    newest = elementary
    while newest:
        composed = set()
        for xp, xn in newest:
            zero = ~(xp | xn) & ((1 << n) - 1)
            if zero not in restricted:
                restricted[zero] = {(yp & zero, yn & zero) for yp, yn in elementary}
            composed.update((xp | yp, xn | yn) for yp, yn in restricted[zero])
        newest = composed - found
        found |= newest
    return tuple(SignVector(c) for c in sorted(
        tuple((p >> i & 1) - (m >> i & 1) for i in range(n)) for p, m in found))


def decoded_sign_vectors(S: Subspace, caps=DEFAULT_CAPS):
    """`subspace_sign_vectors` decoded to SignVectors, in its order."""
    return tuple(SignVector.from_masks(p, m, S.n) for p, m in subspace_sign_vectors(S, caps))


def fraction_phase1(D, b):
    """Find y >= 0 with Dy = b (b >= 0 required), or None: the phase-1 simplex
    of `injcheck.feasibility` pivoted over Fraction, kept as the reference for
    its integer tableau.

    Classic phase-1: one artificial per row, minimize their sum with Bland's
    smallest-index rule for both the entering and the tie-broken leaving
    variable.
    """
    m = len(D)
    if m == 0:
        return []
    n = len(D[0])
    total = n + m
    T = [list(D[i]) + [Fraction(int(j == i)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, total))
    # reduced costs r_j = c_j - sum_i T[i][j]  (cost 1 on artificials, 0 elsewhere)
    reduced = []
    for j in range(total + 1):
        column_sum = Fraction(0)
        for i in range(m):
            column_sum += T[i][j]
        cost = Fraction(1) if n <= j < total else Fraction(0)
        reduced.append(cost - column_sum)
    while True:
        enter = next((j for j in range(total) if reduced[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = T[i][enter]
            if coeff > 0:
                ratio = T[i][total] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; malformed tableau")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        lead = T[leave]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * c for a, c in zip(T[i], lead)]
        if reduced[enter] != 0:
            f = reduced[enter]
            reduced = [a - f * c for a, c in zip(reduced, lead)]
        basis[leave] = enter
    if -reduced[total] != 0:  # optimal artificial sum
        return None
    y = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = T[i][total]
    return y


def free_split_system(n, eq=(), nonneg=(), strict=()):
    """The phase-1 system (D, b) of the cone e.x = 0, g.x >= 0, h.x >= 1 with
    every coordinate split as x = u - v and one surplus per weak or strict
    row, columns (u, v, weak surpluses, strict surpluses): the formulation
    `injcheck.feasibility.feasible_cone` solved before its presolve."""
    eq, nonneg, strict = ([rat_vector(r) for r in rows] for rows in (eq, nonneg, strict))
    ns, nt = len(nonneg), len(strict)
    D, b = [], []
    for rows, offset, rhs in ((eq, None, 0), (nonneg, 0, 0), (strict, ns, 1)):
        for k, r in enumerate(rows):
            row = list(r) + [-v for v in r] + [Fraction(0)] * (ns + nt)
            if offset is not None:
                row[2 * n + offset + k] = Fraction(-1)
            D.append(row)
            b.append(Fraction(rhs))
    return D, b


def fraction_cone(n, eq=(), nonneg=(), strict=()):
    """`injcheck.feasibility.feasible_cone` without its presolve: the free
    split system solved by the rational reference simplex."""
    if not strict:
        return tuple([Fraction(0)] * n)
    y = fraction_phase1(*free_split_system(n, eq, nonneg, strict))
    return None if y is None else tuple(y[i] - y[n + i] for i in range(n))


def _primitive(row):
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def fraction_row_phase1(D, b):
    """Find y >= 0 with Dy = b (b >= 0 required), or None: the int tableau of
    `injcheck.feasibility._phase1` started from Fraction rows, each row
    (D_i, e_i, b_i) scaled to ints by `integer_row`. Kept as the reference for
    the int rows `feasible_cone` now builds itself; pivots as `_phase1` does.
    """
    m = len(D)
    if m == 0:
        return []
    n = len(D[0])
    total = n + m
    T = []
    for i in range(m):
        row = list(D[i]) + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        T.append(_primitive(integer_row(row)[0]))
    basis = list(range(n, total))
    lcm = math.lcm(*(T[i][n + i] for i in range(m)))
    reduced = [lcm if n <= j < total else 0 for j in range(total + 1)]
    for i in range(m):
        w = lcm // T[i][n + i]
        reduced = [r - w * v for r, v in zip(reduced, T[i])]
    reduced = _primitive(reduced)
    while True:
        enter = next((j for j in range(total) if reduced[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = T[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = T[i][total] * T[leave][enter]
                rhs = T[leave][total] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; malformed tableau")
        lead = T[leave]
        p = lead[enter]
        for i in range(m):
            f = T[i][enter]
            if i != leave and f != 0:
                T[i] = _primitive([p * a - f * c for a, c in zip(T[i], lead)])
        f = reduced[enter]
        reduced = _primitive([p * a - f * c for a, c in zip(reduced, lead)])
        basis[leave] = enter
    if reduced[total] != 0:
        return None
    y = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = Fraction(T[i][total], T[i][bv])
    return y


def presolved_fraction_cone(n, eq=(), nonneg=(), strict=()):
    """`injcheck.feasibility.feasible_cone` with its system assembled over
    Fraction: every row read by `rat_vector`, the unit-row presolve with
    Fraction bounds, Fraction tableau rows handed to `fraction_row_phase1`.
    The reference, point for point, for the cone built on int rows."""
    eq_rows = [rat_vector(r) for r in eq]
    nonneg_rows = [rat_vector(r) for r in nonneg]
    strict_rows = [rat_vector(r) for r in strict]
    for rows in (eq_rows, nonneg_rows, strict_rows):
        for r in rows:
            if len(r) != n:
                raise ValueError(f"constraint row length {len(r)} != {n}")
    if not strict_rows:
        return tuple([Fraction(0)] * n)
    zero = set()
    signs = {}
    low = {}
    kept = []
    for rows, kind in ((eq_rows, "eq"), (nonneg_rows, "weak"), (strict_rows, "strict")):
        for r in rows:
            nonzero = [j for j, v in enumerate(r) if v]
            if len(nonzero) != 1:
                kept.append((r, kind))
                continue
            j = nonzero[0]
            if kind == "eq":
                zero.add(j)
                continue
            signs.setdefault(j, set()).add(1 if r[j] > 0 else -1)
            if kind == "strict":
                low[j] = max(low.get(j, Fraction(0)), 1 / abs(r[j]))
    signed = {}  # x_j = s (low + w_j)
    for j in sorted(zero | signs.keys()):
        if j in low and (j in zero or len(signs[j]) > 1):
            return None
        if j not in zero and len(signs[j]) == 1:
            signed[j] = (next(iter(signs[j])), low.get(j, Fraction(0)))
        else:
            zero.add(j)
    free = [j for j in range(n) if j not in zero and j not in signed]
    first_surplus = 2 * len(free) + len(signed)
    width = first_surplus + sum(kind != "eq" for _, kind in kept)
    D, b = [], []
    surplus = first_surplus
    for r, kind in kept:
        row = ([r[j] for j in free] + [-r[j] for j in free]
               + [s * r[j] for j, (s, _) in signed.items()]
               + [Fraction(0)] * (width - first_surplus))
        if kind != "eq":
            row[surplus] = Fraction(-1)
            surplus += 1
        rhs = Fraction(kind == "strict") - sum(
            s * bound * r[j] for j, (s, bound) in signed.items())
        if rhs < 0:
            row, rhs = [-v for v in row], -rhs
        D.append(row)
        b.append(rhs)
    y = fraction_row_phase1(D, b) if D else [Fraction(0)] * width
    if y is None:
        return None
    x = [Fraction(0)] * n
    for k, j in enumerate(free):
        x[j] = y[k] - y[len(free) + k]
    for k, (j, (s, bound)) in enumerate(signed.items()):
        x[j] = s * (bound + y[2 * len(free) + k])
    return tuple(x)


def integer_tableau(D, b):
    """The int rows `injcheck.feasibility._phase1` takes for the system
    Dy = b: each row (D_i, e_i, b_i) scaled to ints by `integer_row`."""
    m = len(D)
    return [integer_row(list(D[i]) + [int(k == i) for k in range(m)] + [b[i]])[0]
            for i in range(m)]


def fraction_rref(data, rows, cols):
    """Reduced row echelon form pivoted over Fraction: (rows, pivot columns).
    The reference for the fraction-free elimination of `injcheck.linalg`."""
    work = [list(r) for r in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [v * inv for v in work[r]]
        lead = work[r]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], lead)]
        pivots.append(c)
        r += 1
    return work, pivots


def fraction_determinant(M):
    """Determinant by Gaussian elimination over Fraction, the reference for
    `injcheck.linalg.determinant`."""
    n = M.rows
    work = [list(r) for r in M.data]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            det = -det
        piv = work[c][c]
        det *= piv
        inv = Fraction(1) / piv
        lead = work[c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [a - f * b for a, b in zip(work[i], lead)]
    return det


def finite_difference_root_solve(grid, assignment):
    """The falsifier's exact repair by finite differences, the reference for
    `injcheck.oracle._root_solve`: the Fraction determinant of the grid at the
    assignment, then per atom one at the atom moved by 1 and one at the
    secant root. Returns the member at the first exact root inside its atom's
    domain (or at the assignment itself when singular), or None."""
    view = grid.view

    def det_at(values):
        return fraction_determinant(RationalMatrix(
            view.rows, view.cols, [[entry.evaluate(values) for entry in row] for row in view.grid]))

    d0 = det_at(assignment)
    if d0 == 0:
        return view.build_member(assignment)
    for name in grid.names:
        base = assignment[name]
        alpha = det_at({**assignment, name: base + 1}) - d0
        if alpha == 0:
            continue
        root = base - d0 / alpha
        if not view.atoms[name].domain.contains(root):
            continue
        done = {**assignment, name: root}
        if det_at(done) == 0:
            return view.build_member(done)
    return None


def fraction_apply(M, v):
    """Matrix-vector product summed over Fraction, the reference for
    `RationalMatrix.apply`."""
    vec = rat_vector(v)
    if len(vec) != M.cols:
        raise ValueError(f"vector length {len(vec)} != {M.cols} columns")
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in M.data)


def fraction_matmul(M, other):
    """Matrix product summed over Fraction, the reference for
    `RationalMatrix.matmul`."""
    if M.cols != other.rows:
        raise ValueError(f"shape mismatch: {M.shape} @ {other.shape}")
    ot = other.transpose()
    out = [
        [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ot.data]
        for row in M.data
    ]
    return RationalMatrix(M.rows, other.cols, out)


def fraction_elementary(S):
    """The elementary vectors of S keyed by their sign masks, from one
    `kernel_basis` and one Fraction product per d - 1 rows of the image basis:
    the reference for `injcheck.signroute._elementary` (uncached)."""
    n = S.n
    V = S.image_basis()
    d = V.cols
    elementary = {}
    for rows in itertools.combinations(range(n), d - 1) if d else ():
        c = kernel_basis(RationalMatrix(d - 1, d, [V.row(i) for i in rows]))
        if c.cols != 1:
            continue
        z = fraction_apply(V, c.col(0))
        pos = sum(1 << i for i in range(n) if z[i] > 0)
        neg = sum(1 << i for i in range(n) if z[i] < 0)
        elementary.setdefault((pos, neg), z)
        elementary.setdefault((neg, pos), tuple(-v for v in z))
    return elementary


def signset_row_orthogonal(w_row, rho):
    """Is some tau with tau_i in w_row[i] orthogonal to rho?

    Per coordinate the achievable products s * rho_i form a set; a valid tau
    needs either product 0 everywhere, or two distinct coordinates delivering
    -1 and +1 (remaining coordinates are then unconstrained).
    """
    r = _entries(rho)
    if len(w_row) != len(r):
        raise ValueError("length mismatch")
    prods = [_achievable_products(w, s) for w, s in zip(w_row, r)]
    if all(0 in p for p in prods):
        return True
    neg = [i for i, p in enumerate(prods) if -1 in p]
    pos = [i for i, p in enumerate(prods) if 1 in p]
    for i in neg:
        for j in pos:
            if i != j:
                return True
    return False


def set_concordant_pair(rho, tau, W: SignSetMatrix) -> bool:
    """`injcheck.signroute.concordant_pair` decided on the sign sets row by
    row, the reference for its bit-mask form."""
    rho_e = rho.entries if isinstance(rho, SignVector) else tuple(int(s) for s in rho)
    tau_e = tau.entries if isinstance(tau, SignVector) else tuple(int(s) for s in tau)
    if len(rho_e) != W.rows or len(tau_e) != W.cols:
        raise ValueError("dimension mismatch")
    for i in range(W.rows):
        row = W.row(i)
        if rho_e[i] == 0:
            if not signset_row_orthogonal(row, tau_e):
                return False
        elif not any(tau_e[j] and rho_e[i] * tau_e[j] in row[j] for j in range(W.cols)):
            return False
    return True


def full_sign_sweep(cls, S: Subspace, A=None, caps=DEFAULT_CAPS) -> SignRouteResult:
    """`injcheck.signroute.sign_route` over every tau of sigma(S), in sweep
    order, with the set-based concordance test and one exact feasibility
    question per tau of an interval class (no sign screen)."""
    taus = decoded_sign_vectors(S, caps)
    diag = {"taus": len(taus), "pairs_checked": 0}
    if isinstance(cls, Interval):
        for tau in taus:
            diag["pairs_checked"] += 1
            got = interval_kernel_feasible(cls.D, S, tau, A, caps)
            if got is not None:
                z, u = got
                member = Member(interval_member_through(cls.D, z, u), "interval")
                return SignRouteResult(True, injective=False, diagnostics=diag,
                                       hit=SignRouteHit(member, z, tau, None))
        return SignRouteResult(True, injective=True, diagnostics=diag)
    outer, inner = (cls.left, cls.right) if isinstance(cls, Product) else (None, cls)
    W_out = _signsets_of(outer) if outer is not None else None
    W_in = _signsets_of(inner)
    K = Subspace.from_kernel_rep(A) if A is not None else None
    rhos = [SignVector.from_masks(p, m, inner.rows)
            for p, m in _left_zero_signs(W_out, K, inner.rows, caps)]
    if W_out is None:
        diag["rhos"] = len(rhos)
    for tau in taus:
        for rho in rhos:
            if not isinstance(inner, Scaled):
                diag["pairs_checked"] += 1
            if not set_concordant_pair(rho, tau, W_in):
                continue
            v = None
            if isinstance(inner, Scaled):
                diag["pairs_checked"] += 1
                v = pair_sign_feasible(inner.B, tau, rho)
                if v is None:
                    continue
            return SignRouteResult(True, injective=False, diagnostics=diag,
                                   hit=_hit(inner, W_in, W_out, S, K, tau, rho, v))
    return SignRouteResult(True, injective=True, diagnostics=diag)
