"""Exact feasibility of homogeneous systems with equalities, weak and strict
inequalities, decided by a fraction-free phase-1 simplex over int.

The systems here are always cones: every constraint is of the form row.x = 0,
row.x >= 0, or row.x > 0. Scaling invariance lets row.x > 0 be replaced by
row.x >= 1, so strict feasibility reduces to ordinary LP feasibility with no
epsilon anywhere. Bland's rule guarantees termination.

The tableau is fraction-free, as in Bareiss's elimination (Math. Comp. 1968),
but it divides each updated row by the gcd of its entries instead of by the
previous pivot. Each row of ints is a positive multiple of the row of the
rational tableau. A positive factor changes no sign and no ratio, so every
entering and leaving choice, and the returned point, are those of the
rational simplex exactly. The rows start as `linalg.integer_row` scales them,
as the rows of every exact elimination in `linalg` do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import RationalMatrix, integer_row, rat_vector
from .signs import SignVector

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (row itself when that is 0 or 1)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _phase1(D: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Find y >= 0 with Dy = b (b >= 0 required), or None.

    Classic phase-1: one artificial per row, minimize their sum with Bland's
    smallest-index rule for both the entering and the tie-broken leaving
    variable.

    Each tableau row is an int multiple s > 0 of its rational row, where s is
    the coefficient of the row's basic variable (its artificial at the start).
    With L the lcm of the row scales, the reduced-cost row is
    L*c - sum_i (L/s_i)*row_i, so every artificial column starts at 0. A pivot
    sets row <- p*row - f*lead with p = lead[enter] > 0 and divides by the gcd;
    ratios are compared cross-multiplied. The point is read once at the end as
    y[bv] = rhs_i / T[i][bv].
    """
    m = len(D)
    if m == 0:
        return []
    n = len(D[0])
    total = n + m
    T: list[list[int]] = []
    for i in range(m):
        row = list(D[i]) + [_ZERO] * m + [b[i]]
        row[n + i] = _ONE
        T.append(_primitive(integer_row(row)[0]))
    basis = list(range(n, total))
    # reduced costs, times L: cost 1 on artificials, 0 elsewhere
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
    if reduced[total] != 0:  # minus the optimal artificial sum, times a positive factor
        return None
    y = [_ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = Fraction(T[i][total], T[i][bv])
    return y


def feasible_cone(
    n: int,
    eq: Sequence[Sequence] = (),
    nonneg: Sequence[Sequence] = (),
    strict: Sequence[Sequence] = (),
) -> Optional[tuple[Fraction, ...]]:
    """A point x in Q^n with e.x = 0, g.x >= 0, h.x > 0 for the given rows, or None.

    The constraint set is a cone, so strict rows are normalized to h.x >= 1;
    feasibility is unchanged and the returned witness satisfies every strict
    row with slack at least 1.
    """
    eq_rows = [rat_vector(r) for r in eq]
    nonneg_rows = [rat_vector(r) for r in nonneg]
    strict_rows = [rat_vector(r) for r in strict]
    for rows in (eq_rows, nonneg_rows, strict_rows):
        for r in rows:
            if len(r) != n:
                raise ValueError(f"constraint row length {len(r)} != {n}")
    if not strict_rows:
        return tuple([_ZERO] * n)  # x = 0 satisfies all weak rows

    ns, nt = len(nonneg_rows), len(strict_rows)
    width = 2 * n + ns + nt  # u, v (x = u - v), surplus for weak, surplus for strict
    D: list[list[Fraction]] = []
    b: list[Fraction] = []

    def build(row, surplus_index):
        out = list(row) + [-v for v in row] + [_ZERO] * (ns + nt)
        if surplus_index is not None:
            out[2 * n + surplus_index] = Fraction(-1)
        return out

    for r in eq_rows:
        D.append(build(r, None))
        b.append(_ZERO)
    for k, r in enumerate(nonneg_rows):
        D.append(build(r, k))
        b.append(_ZERO)
    for k, r in enumerate(strict_rows):
        D.append(build(r, ns + k))
        b.append(_ONE)

    y = _phase1(D, b)
    if y is None:
        return None
    return tuple(y[i] - y[n + i] for i in range(n))


def strict_sign_feasible(
    E: Optional[RationalMatrix],
    tau,
    extra: Sequence[tuple[RationalMatrix, object]] = (),
) -> Optional[tuple[Fraction, ...]]:
    """Exact witness x with Ex = 0, sigma(x) = tau, and sigma(Cx) = rho for each
    (C, rho) in extra; None when no such x exists.

    tau and each rho may be SignVector objects or plain sign sequences. Zero
    signs become equalities, nonzero signs strict inequalities of the matching
    direction.
    """
    tau_entries = tau.entries if isinstance(tau, SignVector) else tuple(int(s) for s in tau)
    n = len(tau_entries)
    eq: list[Sequence] = []
    strict: list[Sequence] = []
    if E is not None:
        if E.cols != n:
            raise ValueError(f"E has {E.cols} columns, tau has length {n}")
        eq.extend(E.data)

    def add_sign_rows(row, s):
        if s == 0:
            eq.append(row)
        elif s > 0:
            strict.append(row)
        else:
            strict.append([-v for v in row])

    for i, s in enumerate(tau_entries):
        unit = [_ZERO] * n
        unit[i] = _ONE
        add_sign_rows(unit, s)
    for C, rho in extra:
        rho_entries = rho.entries if isinstance(rho, SignVector) else tuple(int(s) for s in rho)
        if C.cols != n:
            raise ValueError(f"extra matrix has {C.cols} columns, expected {n}")
        if C.rows != len(rho_entries):
            raise ValueError("extra sign vector length mismatch")
        for i, s in enumerate(rho_entries):
            add_sign_rows(list(C.data[i]), s)
    return feasible_cone(n, eq=eq, strict=strict)
