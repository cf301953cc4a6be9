"""Determinant-sign analysis of a square matrix class.

The symbolic view turns det of a class member into one polynomial P in named
atoms, multilinear in every atom (each atom lives in a single row or a single
column of one factor). One analysis decides the sign of P over the atom
domains:

* Sub-boxes. A punctured domain, or (-inf, inf), is split at zero. Each piece
  is then bounded, or a half-line with anchor a and direction d = +1 or -1.

* Shifts. A half-line atom is written v = a + d*w with w >= 0, and w > 0 when
  the anchor is open. The shift is affine, so P stays multilinear in the
  bounded atoms and the w's.

* Vertex tables. For fixed w, P is affine in each bounded atom, so its
  extremes over the closed box of the bounded atoms sit at vertices. At each
  vertex one partial evaluation of P leaves a monomial table in the w's. On
  the closed orthant a table is >= 0 when all its coefficients are. A
  coefficient c on a monomial e gives the table the sign of c at w = t on e
  and 1/t elsewhere, for t large: every other monomial has lower degree in t.
  So a sub-box is MIXED when its tables hold coefficients of both signs, ZERO
  when they are all empty, and otherwise of one weak sign, where an exact
  recursion decides whether the zero is attained (see zero_attained_nonneg).
  The extremes of det over the closure of a sub-box are the extreme constant
  terms of its tables, or -inf/inf when some table has a nonconstant monomial
  whose coefficient points that way.

When every atom ranges over (0, inf) there is one sub-box, no bounded atom and
w = v: the one table is the monomial table of P, and it is the certificate
(kind "monomial-table"). Any other domain gives a box certificate (kind
"box"), in entry coordinates.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .classes import (
    IntervalEntry,
    MatrixClass,
    Monomial,
    Poly,
    SymbolicView,
    format_interval_entry,
    monomial_text,
    symbolic_view,
)
from .limits import CapExceeded, Caps, DEFAULT_CAPS

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_POSITIVE = IntervalEntry.positive()

Extreme = Union[Fraction, float]  # a float only for -inf or inf


class DetSign(enum.Enum):
    POS = "POS"          # det > 0 for every member
    NEG = "NEG"          # det < 0 for every member
    NONZERO = "NONZERO"  # det != 0 for every member, both signs occur
    ZERO = "ZERO"        # det = 0 for every member
    MIXED = "MIXED"      # det = 0 for some member (witness assignment attached)


@dataclass
class MonomialTable:
    terms: tuple[tuple[Monomial, Fraction], ...]
    homogeneous: bool
    distinct_supports: bool

    def to_payload(self) -> list[dict]:
        return [
            {"monomial": monomial_text(m), "coefficient": str(c)} for m, c in self.terms
        ]


@dataclass
class BoxSummary:
    atom_order: tuple[str, ...]
    atom_domains: dict[str, str]
    sub_boxes: int
    vertices_evaluated: int
    min_value: Extreme  # extremes of det over the closure of the box
    min_excluded: bool
    max_value: Extreme
    max_excluded: bool
    vertex_rows: Optional[list[dict]]  # kept when small enough to be readable

    def to_payload(self) -> dict:
        out = {
            "atoms": {a: self.atom_domains[a] for a in self.atom_order},
            "sub_boxes": self.sub_boxes,
            "vertices_evaluated": self.vertices_evaluated,
            "min_value": str(self.min_value),
            "min_at_excluded_vertex_only": self.min_excluded,
            "max_value": str(self.max_value),
            "max_at_excluded_vertex_only": self.max_excluded,
        }
        if self.vertex_rows is not None:
            out["vertices"] = self.vertex_rows
        return out


@dataclass
class DetAnalysis:
    sign: DetSign
    kind: str  # "monomial-table" or "box"
    poly: Poly
    view: SymbolicView
    table: Optional[MonomialTable] = None
    box: Optional[BoxSummary] = None
    zero_assignment: Optional[dict[str, Fraction]] = None

    def certificate_payload(self) -> dict:
        out = {"kind": self.kind, "sign": self.sign.value}
        if self.table is not None:
            out["monomials"] = self.table.to_payload()
            out["homogeneous"] = self.table.homogeneous
            out["distinct_supports"] = self.table.distinct_supports
        if self.box is not None:
            out["box"] = self.box.to_payload()
        if self.zero_assignment is not None:
            out["zero_assignment"] = {a: str(v) for a, v in self.zero_assignment.items()}
        return out


# ---------------------------------------------------------------------------
# determinant expansion


def symbolic_determinant(grid: Sequence[Sequence[Poly]], cap: Optional[int] = None) -> Poly:
    """Laplace expansion along rows with memoization on unused column masks."""
    if cap is None:
        cap = DEFAULT_CAPS.monomials
    n = len(grid)
    for row in grid:
        if len(row) != n:
            raise ValueError("determinant of a non-square grid")
    if n == 0:
        return Poly.const(1)
    memo: dict[int, Poly] = {}

    def minor(r: int, mask: int) -> Poly:
        if r == n:
            return Poly.const(1)
        got = memo.get(mask)
        if got is not None:
            return got
        acc = Poly()
        position = 0
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            entry = grid[r][j]
            if not entry.is_zero():
                sub = minor(r + 1, mask ^ bit)
                term = entry * sub
                if position % 2:
                    term = -term
                acc = acc + term
                if len(acc.terms) > cap:
                    raise CapExceeded("monomials", len(acc.terms), cap)
            position += 1
        memo[mask] = acc
        return acc

    return minor(0, (1 << n) - 1)


def _build_table(P: Poly) -> MonomialTable:
    terms = tuple(P.sorted_terms())
    degrees = {sum(e for _, e in m) for m, _ in terms}
    supports = [frozenset(a for a, e in m if e) for m, _ in terms]
    return MonomialTable(
        terms=terms,
        homogeneous=len(degrees) <= 1,
        distinct_supports=len(set(supports)) == len(supports),
    )


# ---------------------------------------------------------------------------
# sub-boxes


@dataclass
class _BoxAtom:
    """A bounded atom of one sub-box."""
    name: str
    lo: Fraction
    hi: Fraction
    lo_included: bool
    hi_included: bool


@dataclass
class _Ray:
    """A half-line atom of one sub-box: v = anchor + direction * w."""
    name: str
    anchor: Fraction
    direction: int
    closed: bool  # w >= 0 when closed, w > 0 when open


def _split_entry(e: IntervalEntry) -> list[IntervalEntry]:
    """Remove punctures and two-sided infinities by splitting at zero."""
    if e.punctured:
        lows = IntervalEntry(e.lower, _ZERO, e.lower_open, True)
        highs = IntervalEntry(_ZERO, e.upper, True, e.upper_open)
        return [lows, highs]
    if e.lower is None and e.upper is None:
        return [
            IntervalEntry(None, _ZERO, True, False),
            IntervalEntry(_ZERO, None, False, True),
        ]
    return [e]


def _is_bounded(e: IntervalEntry) -> bool:
    return e.lower is not None and e.upper is not None


def zero_attained_nonneg(P: Poly, atoms: Sequence[_BoxAtom],
                         rays: Sequence[_Ray]) -> Optional[dict[str, Fraction]]:
    """For multilinear P >= 0 on the closure of a sub-box, whose vertex tables
    have no negative coefficient: an admissible zero, or None. The rays enter
    P, and the returned zero, as their w's.

    Recursion per bounded atom: a zero with the coordinate at an included
    endpoint shows up on that face; a zero with the coordinate interior forces
    the affine fiber to vanish identically, i.e. P|lo + P|hi = 0 at the
    remaining coordinates, in which case the fiber midpoint is admissible.
    With no bounded atom left, P is a table in the w's with no negative
    coefficient. It vanishes at an admissible w unless a monomial made only of
    open w's has a positive coefficient, and then at the closed w's = 0 and
    the open w's = 1.
    """
    if not atoms:
        open_ws = {r.name for r in rays if not r.closed}
        if any(c > 0 and all(a in open_ws for a, _ in m) for m, c in P.terms.items()):
            return None
        return {r.name: _ZERO if r.closed else _ONE for r in rays}
    a, rest = atoms[0], atoms[1:]
    Pl = P.substitute({a.name: a.lo})
    Ph = P.substitute({a.name: a.hi})
    for value, included, face in ((a.lo, a.lo_included, Pl), (a.hi, a.hi_included, Ph)):
        if included:
            hit = zero_attained_nonneg(face, rest, rays)
            if hit is not None:
                hit[a.name] = value
                return hit
    hit = zero_attained_nonneg(Pl + Ph, rest, rays)
    if hit is not None:
        hit[a.name] = (a.lo + a.hi) / 2
    return hit


def _pull_admissible(P: Poly, atoms: Sequence[_BoxAtom], point: dict[str, Fraction],
                     sign: int) -> dict[str, Fraction]:
    """Move a point where P has the given sign off the excluded endpoints of
    its bounded atoms while keeping the sign, by exact halving toward the
    box midpoint."""
    excluded = [a for a in atoms
                if (point[a.name] == a.lo and not a.lo_included)
                or (point[a.name] == a.hi and not a.hi_included)]
    if not excluded:
        return point
    scale = _HALF
    while True:
        candidate = dict(point)
        for a in excluded:
            mid = (a.lo + a.hi) / 2
            candidate[a.name] = point[a.name] + (mid - point[a.name]) * scale
        if P.evaluate(candidate) * sign > 0:
            return candidate
        scale = scale / 2


def _walk_to_zero(P: Poly, names: Sequence[str],
                  a_pt: dict[str, Fraction], b_pt: dict[str, Fraction]) -> dict[str, Fraction]:
    """Exact zero of multilinear P between two points of opposite strict
    sign, moving one coordinate at a time; each leg is affine, so the crossing
    leg is solved by one division. Every coordinate visited lies between its
    values at the two points."""
    if not P.is_multilinear():
        raise ArithmeticError("determinant is not multilinear in its atoms")
    cur = dict(a_pt)
    val = P.evaluate(cur)
    if val == 0:
        return cur
    for name in names:
        target = b_pt[name]
        if cur[name] == target:
            continue
        restricted = P.substitute({o: cur[o] for o in names if o != name})
        lin, const = restricted.split(name)
        alpha = lin.const_value()
        beta = const.const_value()
        val_target = alpha * target + beta
        if val_target == 0:
            cur[name] = target
            return cur
        if (val_target > 0) != (val > 0):
            cur[name] = -beta / alpha
            return cur
        cur[name] = target
        val = val_target
    raise ArithmeticError("no sign change along the walk; inconsistent extremes")


@dataclass
class _SubBoxOutcome:
    sign: DetSign
    zero: Optional[dict[str, Fraction]]  # entry coordinates
    min_value: Extreme
    min_excluded: bool
    max_value: Extreme
    max_excluded: bool
    vertex_rows: Optional[list[dict]]


def _analyze_sub_box(P: Poly, entries: dict[str, IntervalEntry], keep_rows: bool,
                     need_zero: bool) -> _SubBoxOutcome:
    """Sign and extremes of P over one sub-box; a zero when it is MIXED,
    unless need_zero is false and finding it would take a walk."""
    atoms: list[_BoxAtom] = []
    rays: list[_Ray] = []
    for name in sorted(entries):
        e = entries[name]
        if _is_bounded(e):
            atoms.append(_BoxAtom(name, e.lower, e.upper, not e.lower_open, not e.upper_open))
        elif e.lower is not None:
            rays.append(_Ray(name, e.lower, 1, not e.lower_open))
        else:
            rays.append(_Ray(name, e.upper, -1, not e.upper_open))
    Q = P  # P with each ray atom standing for its w
    for r in rays:
        if r.anchor != 0 or r.direction != 1:
            lin, const = Q.split(r.name)
            Q = lin * (Poly.const(r.anchor) + Poly.atom(r.name, r.direction)) + const
    anchors_open = any(not r.closed for r in rays)

    lo = hi = None
    lo_excluded = hi_excluded = True
    bottom = top = None  # (vertex, excluded, table) where lo and hi sit
    rows = [] if keep_rows else None
    choices = [((a.lo, a.lo_included), (a.hi, a.hi_included)) for a in atoms]
    for combo in itertools.product(*choices):
        vertex = {a.name: value for a, (value, _) in zip(atoms, combo)}
        excluded = not all(included for _, included in combo)
        table = Q.substitute(vertex)
        if rows is not None:
            rows.append({
                "assignment": {n: str(v) for n, v in vertex.items()},
                "value": str(P.substitute(vertex)),
                "excluded": excluded,
            })
        grows = falls = False
        for m, c in table.terms.items():
            if m:
                grows = grows or c > 0
                falls = falls or c < 0
        # a finite extreme sits at the corner w = 0 of this vertex
        const = table.terms.get((), _ZERO)
        corner_excluded = excluded or anchors_open
        up, up_excluded = (math.inf, True) if grows else (const, corner_excluded)
        down, down_excluded = (-math.inf, True) if falls else (const, corner_excluded)
        here = (vertex, excluded, table)
        if hi is None or up > hi:
            hi, hi_excluded, top = up, up_excluded, here
        elif up == hi and hi_excluded and not up_excluded:
            hi_excluded, top = False, here
        if lo is None or down < lo:
            lo, lo_excluded, bottom = down, down_excluded, here
        elif down == lo and lo_excluded and not down_excluded:
            lo_excluded, bottom = False, here

    def out(sign: DetSign, zero: Optional[dict[str, Fraction]]) -> _SubBoxOutcome:
        if zero is not None:
            for r in rays:
                zero[r.name] = r.anchor + r.direction * zero[r.name]
        return _SubBoxOutcome(sign, zero, lo, lo_excluded, hi, hi_excluded, rows)

    if lo == 0 and hi == 0:  # every table is empty
        interior = {a.name: (a.lo + a.hi) / 2 for a in atoms}
        interior.update((r.name, _ONE) for r in rays)
        return out(DetSign.ZERO, interior)
    if lo > 0:
        return out(DetSign.POS, None)
    if hi < 0:
        return out(DetSign.NEG, None)
    if lo == 0:  # no negative coefficient in any table
        hit = zero_attained_nonneg(Q, atoms, rays)
        return out(DetSign.POS, None) if hit is None else out(DetSign.MIXED, hit)
    if hi == 0:
        hit = zero_attained_nonneg(-Q, atoms, rays)
        return out(DetSign.NEG, None) if hit is None else out(DetSign.MIXED, hit)
    # coefficients of both signs: an admissible zero always exists
    if not need_zero:
        return out(DetSign.MIXED, None)
    pos_pt = _point_of_sign(Q, atoms, rays, top, 1)
    neg_pt = _point_of_sign(Q, atoms, rays, bottom, -1)
    # either order finds an exact zero; this one keeps the witnesses of
    # monomial tables and of bounded boxes stable
    ends = (pos_pt, neg_pt) if rays else (neg_pt, pos_pt)
    return out(DetSign.MIXED, _walk_to_zero(Q, sorted(entries), *ends))


def _point_of_sign(Q: Poly, atoms: Sequence[_BoxAtom], rays: Sequence[_Ray],
                   found: tuple, sign: int) -> dict[str, Fraction]:
    """An admissible point where Q has the given sign, from the vertex where
    the extreme of that sign sits: the w's of the first term of that sign in
    its table at t, the other w's at 1/t, for t = 2, 4, 8, ...; then off the
    excluded endpoints."""
    vertex, excluded, table = found
    term = next(m for m, c in table.sorted_terms() if c * sign > 0)
    support = {a for a, _ in term}
    t = Fraction(2)
    while True:
        point = dict(vertex)
        point.update((r.name, t if r.name in support else 1 / t) for r in rays)
        if Q.evaluate(point) * sign > 0:
            break
        t *= 2
    if excluded:
        point = _pull_admissible(Q, atoms, point, sign)
    return point


# ---------------------------------------------------------------------------
# entry point


def det_sign_analysis(cls: MatrixClass, caps: Optional[Caps] = None) -> DetAnalysis:
    """Sign of det over a square matrix class, with certificate data.

    POS/NEG/NONZERO certify that every member is nonsingular. MIXED always
    carries an exact atom assignment with det = 0 (for a monomial table, a
    positive one); ZERO means det vanishes identically.
    """
    if caps is None:
        caps = DEFAULT_CAPS
    if cls.rows != cls.cols:
        raise ValueError(f"determinant route needs a square class, got {cls.rows}x{cls.cols}")
    view = symbolic_view(cls)
    P = symbolic_determinant(view.grid, caps.monomials)

    # atoms absent from P only matter for member construction, not for the sign
    names = sorted(P.atoms())
    domains = {n: view.atoms[n].domain for n in names}
    split_lists = [[(n, piece) for piece in _split_entry(domains[n])] for n in names]
    vertices = math.prod(sum(2 if _is_bounded(piece) else 1 for _, piece in pieces)
                         for pieces in split_lists)
    if vertices > caps.vertices:
        raise CapExceeded("vertices", vertices, caps.vertices)
    table_case = all(d == _POSITIVE for d in domains.values())
    keep_rows = not table_case and vertices <= 64 and all(len(p) == 1 for p in split_lists)
    outcomes: list[_SubBoxOutcome] = []
    mixed_seen = False  # the first MIXED sub-box holds the witness
    for combo in itertools.product(*split_lists):
        outcome = _analyze_sub_box(P, dict(combo), keep_rows, need_zero=not mixed_seen)
        mixed_seen = mixed_seen or outcome.sign is DetSign.MIXED
        outcomes.append(outcome)

    signs = {o.sign for o in outcomes}
    zero_holder = next((o for o in outcomes if o.sign is DetSign.MIXED), None)
    if zero_holder is None:
        zero_holder = next((o for o in outcomes if o.sign is DetSign.ZERO), None)
    if DetSign.MIXED in signs:
        sign = DetSign.MIXED
    elif signs == {DetSign.ZERO}:
        sign = DetSign.ZERO
    elif DetSign.ZERO in signs:
        sign = DetSign.MIXED  # det vanishes identically on one component
    elif signs == {DetSign.POS}:
        sign = DetSign.POS
    elif signs == {DetSign.NEG}:
        sign = DetSign.NEG
    else:
        sign = DetSign.NONZERO
    zero = zero_holder.zero if zero_holder is not None else None

    if table_case:
        return DetAnalysis(sign, "monomial-table", P, view, table=_build_table(P),
                           zero_assignment=zero)
    min_o = min(outcomes, key=lambda o: o.min_value)
    max_o = max(outcomes, key=lambda o: o.max_value)
    summary = BoxSummary(
        atom_order=tuple(names),
        atom_domains={n: format_interval_entry(domains[n]) for n in names},
        sub_boxes=len(outcomes),
        vertices_evaluated=vertices,
        min_value=min_o.min_value,
        min_excluded=min_o.min_excluded,
        max_value=max_o.max_value,
        max_excluded=max_o.max_excluded,
        vertex_rows=outcomes[0].vertex_rows if len(outcomes) == 1 else None,
    )
    return DetAnalysis(sign, "box", P, view, box=summary, zero_assignment=zero)
