"""Exact feasibility of homogeneous systems with equalities, weak and strict
inequalities, decided by a fraction-free phase-1 simplex over int.

The systems here are always cones: every constraint is of the form row.x = 0,
row.x >= 0, or row.x > 0. Scaling invariance lets row.x > 0 be replaced by
row.x >= 1, so strict feasibility reduces to ordinary LP feasibility with no
epsilon anywhere. Bland's rule guarantees termination. A row with one
nonzero entry is not put in the tableau: it bounds its variable instead (see
`feasible_cone`), so the sign rows of a sign-vector system cost no rows, and
only unbounded coordinates are split into two nonnegative parts.

Each input row h is scaled once, by `linalg.integer_row` as the rows of
every exact elimination in `linalg` are, to the int row d*h, d the lcm of its
denominators; the system is built from those ints with no Fraction between:
h.x >= 1 is (d*h).x >= d, and a strict bound 1/|c| is the int pair (d, |c|).
The tableau is fraction-free, as in Bareiss's elimination (Math. Comp. 1968),
but it divides each updated row by the gcd of its entries instead of by the
previous pivot. Each row of ints is a positive multiple of the row of the
rational tableau. A positive factor changes no sign and no ratio, so every
entering and leaving choice, and the returned point, are those of the
rational simplex exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import RationalMatrix, integer_row, rat
from .signs import SignVector

_ZERO = Fraction(0)


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (row itself when that is 0 or 1)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _phase1(T: list[list[int]]) -> Optional[list[Fraction]]:
    """Find y >= 0 with Dy = b (b >= 0 required), or None.

    T[i] is a positive int multiple of the tableau row (D_i, e_i, b_i): the
    columns of D, one artificial column per row, then the right side.
    Classic phase-1: minimize the sum of the artificials with Bland's
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
    m = len(T)
    if m == 0:
        return []
    n = len(T[0]) - m - 1
    total = n + m
    T = [_primitive(row) for row in T]
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
    row with slack at least 1. Entries are ints, Fractions or exact literal
    strings; each row h is scaled once to the int row d*h by `integer_row`,
    d the lcm of its denominators.

    Before the tableau is built, every unit row (one nonzero entry c on x_j)
    becomes a bound, the first step of LP presolve (Andersen & Andersen,
    Math. Programming 71, 1995): c x_j = 0 drops x_j; c x_j >= 0 makes
    x_j = s w_j and c x_j > 0 makes x_j = s (1/|c| + w_j), w_j >= 0, s the
    sign of c, with the largest 1/|c| when several strict rows name x_j; rows
    that contradict each other answer None. A bound 1/|c| is kept as the int
    pair (d, |c|) and compared by cross-multiplying. Only the coordinates no
    unit row names are split as x_j = u_j - v_j, so a sign-vector system,
    whose signs are all unit rows, keeps just the rows of its matrix. Each
    kept row goes into the tableau as ints: its u, v and w columns, surplus
    -d, artificial d and right side d if strict, all times the lcm of the |c|
    of the bounds it meets, the only way its right side can be fractional.
    """
    scaled = []
    for rows, kind in ((eq, "eq"), (nonneg, "weak"), (strict, "strict")):
        for r in rows:
            row, scale = integer_row([v if isinstance(v, (int, Fraction)) else rat(v) for v in r])
            if len(row) != n:
                raise ValueError(f"constraint row length {len(row)} != {n}")
            scaled.append((row, scale, kind))
    if not strict:
        return tuple([_ZERO] * n)  # x = 0 satisfies all weak rows

    # the coordinates a unit row sets to 0, the signs the other unit rows give
    # each coordinate, and the largest 1/|c| of its strict unit rows as (d, |c|)
    zero: set[int] = set()
    signs: dict[int, set[int]] = {}
    low: dict[int, tuple[int, int]] = {}
    kept: list[tuple[list[int], int, str]] = []
    for row, scale, kind in scaled:
        nonzero = [j for j, v in enumerate(row) if v]
        if len(nonzero) != 1:
            kept.append((row, scale, kind))
            continue
        j = nonzero[0]
        if kind == "eq":
            zero.add(j)
            continue
        signs.setdefault(j, set()).add(1 if row[j] > 0 else -1)
        t, c = low.get(j, (0, 1))
        if kind == "strict" and scale * c > t * abs(row[j]):
            low[j] = (scale, abs(row[j]))
    signed: dict[int, int] = {}  # x_j = s (low + w_j)
    for j in sorted(zero | signs.keys()):
        if j in low and (j in zero or len(signs[j]) > 1):
            return None
        if j not in zero and len(signs[j]) == 1:
            signed[j] = next(iter(signs[j]))
        else:
            zero.add(j)
    free = [j for j in range(n) if j not in zero and j not in signed]
    bounds = [(j, s * low[j][0], low[j][1]) for j, s in signed.items() if j in low]

    # columns: u and v of the free coordinates, w of the signed ones, then a
    # surplus per kept weak or strict row, an artificial per kept row and the
    # right side; a row the bounds leave with a negative right side is
    # negated, as phase 1 needs b >= 0
    first_surplus = 2 * len(free) + len(signed)
    width = first_surplus + sum(kind != "eq" for _, _, kind in kept)
    T: list[list[int]] = []
    surplus = first_surplus
    for i, (row, scale, kind) in enumerate(kept):
        shifts = [(row[j] * st, c) for j, st, c in bounds if row[j]]
        den = math.lcm(*(c for _, c in shifts))
        rhs = den * scale * (kind == "strict") - sum(v * (den // c) for v, c in shifts)
        f = -den if rhs < 0 else den
        line = ([f * row[j] for j in free] + [-f * row[j] for j in free]
                + [f * s * row[j] for j, s in signed.items()]
                + [0] * (width - first_surplus + len(kept)) + [abs(rhs)])
        if kind != "eq":
            line[surplus] = -f * scale
            surplus += 1
        line[width + i] = den * scale
        T.append(line)

    y = _phase1(T) if T else [_ZERO] * width
    if y is None:
        return None
    x = [_ZERO] * n
    for k, j in enumerate(free):
        x[j] = y[k] - y[len(free) + k]
    for k, (j, s) in enumerate(signed.items()):
        x[j] = s * (Fraction(*low.get(j, (0, 1))) + y[2 * len(free) + k])
    return tuple(x)


def _sign_entries(signs, name: str) -> tuple[int, ...]:
    """The entries of a SignVector or sign sequence; a ValueError names one
    outside {-1, 0, 1}."""
    entries = tuple(signs.entries if isinstance(signs, SignVector) else signs)
    bad = [i for i, s in enumerate(entries) if s not in (-1, 0, 1)]
    if bad:
        raise ValueError(f"{name}[{bad[0]}] = {entries[bad[0]]!r} is not a sign -1, 0 or 1")
    return tuple(map(int, entries))


def strict_sign_feasible(
    E: Optional[RationalMatrix],
    tau,
    extra: Sequence[tuple[RationalMatrix, object]] = (),
) -> Optional[tuple[Fraction, ...]]:
    """Exact witness x with Ex = 0, sigma(x) = tau, and sigma(Cx) = rho for each
    (C, rho) in extra; None when no such x exists.

    tau and each rho may be SignVector objects or plain sign sequences. Zero
    signs become equalities, nonzero signs strict inequalities of the matching
    direction; the rows of tau are int unit rows, which `feasible_cone` turns
    into bounds.
    """
    tau_entries = _sign_entries(tau, "tau")
    n = len(tau_entries)
    eq: list[Sequence] = []
    strict: list[Sequence] = []
    if E is not None:
        if E.cols != n:
            raise ValueError(f"E has {E.cols} columns, tau has length {n}")
        eq.extend(E.data)

    for i, s in enumerate(tau_entries):
        unit = [0] * n
        unit[i] = s or 1
        (strict if s else eq).append(unit)
    for C, rho in extra:
        rho_entries = _sign_entries(rho, "rho")
        if C.cols != n:
            raise ValueError(f"extra matrix has {C.cols} columns, expected {n}")
        if C.rows != len(rho_entries):
            raise ValueError("extra sign vector length mismatch")
        for row, s in zip(C.data, rho_entries):
            (strict if s else eq).append([-v for v in row] if s < 0 else row)
    return feasible_cone(n, eq=eq, strict=strict)
