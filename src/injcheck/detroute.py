"""Determinant-sign analysis of a square matrix class.

The symbolic view turns det of a class member into one polynomial P in named
atoms, multilinear in every atom (each atom lives in a single row or a single
column of one factor). Two analyses share that polynomial:

* monomial table - when every atom ranges over (0, inf), the sign of each
  monomial is the sign of its coefficient, so the table of (monomial,
  coefficient) pairs decides POS / NEG / MIXED directly. P is multilinear, so
  a MIXED table always has an exact positive zero (see _table_zero).

* box analysis - atoms bounded by general intervals. Multilinearity puts the
  extremes of P over the closed box at vertices. Infinite and punctured entry
  domains are first normalized: a punctured or two-sided-infinite domain is
  split at zero, and each half-infinite side is compactified by an exact
  change of variable that keeps the polynomial multilinear and its sign:
  for nu in [l, inf), nu = (l + (1-l)s)/(1-s) gives (1-s) P = P1 (l + (1-l)s)
  + P0 (1-s) with s in [0,1], where the s = 1 vertex is the limit direction
  and always excluded.

Zero attainment on a box where P does not change strict sign is decided by an
exact recursion (see zero_attained_nonneg); "minimum zero only at excluded
vertices" alone is not sufficient for strict positivity, because an affine
fiber can vanish identically over an admissible face.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .classes import (
    AtomInfo,
    IntervalEntry,
    MatrixClass,
    Member,
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
    compactified: bool
    min_value: Fraction
    min_excluded: bool
    max_value: Fraction
    max_excluded: bool
    vertex_rows: Optional[list[dict]]  # kept when small enough to be readable

    def to_payload(self) -> dict:
        out = {
            "atoms": {a: self.atom_domains[a] for a in self.atom_order},
            "sub_boxes": self.sub_boxes,
            "vertices_evaluated": self.vertices_evaluated,
            "compactified": self.compactified,
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


# ---------------------------------------------------------------------------
# monomial table


def _build_table(P: Poly) -> MonomialTable:
    terms = tuple(P.sorted_terms())
    degrees = {sum(e for _, e in m) for m, _ in terms}
    supports = [frozenset(a for a, e in m if e) for m, _ in terms]
    return MonomialTable(
        terms=terms,
        homogeneous=len(degrees) <= 1,
        distinct_supports=len(set(supports)) == len(supports),
    )


def _table_zero(P: Poly, table: MonomialTable) -> dict[str, Fraction]:
    """A positive zero of P whose table has terms of both signs.

    For a term e, the atoms of e at t and the others at 1/t give every term m
    the degree |m & e| - |m - e| in t, which is below |e| unless m = e (P is
    multilinear). For t = 2, 4, 8, ... P therefore takes the sign of e at
    last; the walk between the points of the first positive and the first
    negative term stays in the positive orthant.
    """
    if not P.is_multilinear():
        raise ArithmeticError("determinant is not multilinear in its atoms")
    names = sorted(P.atoms())

    def point_with_sign_of(term: Monomial, sign: int) -> dict[str, Fraction]:
        support = {a for a, _ in term}
        t = Fraction(2)
        while True:
            point = {a: t if a in support else 1 / t for a in names}
            if P.evaluate(point) * sign > 0:
                return point
            t *= 2

    pos = next(m for m, c in table.terms if c > 0)
    neg = next(m for m, c in table.terms if c < 0)
    return _walk_to_zero(P, names, point_with_sign_of(pos, 1), point_with_sign_of(neg, -1))


# ---------------------------------------------------------------------------
# box machinery

# transforms recorded per atom per sub-box; each knows how to map the
# transformed coordinate back to an original entry value
_IDENTITY = ("id",)


def _inverse_transform(tag, s: Fraction) -> Fraction:
    if tag[0] == "id":
        return s
    if tag[0] == "low_inf":  # original domain [l, inf), s in [0,1)
        l = tag[1]
        return (l + (_ONE - l) * s) / (_ONE - s)
    if tag[0] == "up_inf":  # original domain (-inf, u], s in [0,1)
        u = tag[1]
        return (u - (_ONE + u) * s) / (_ONE - s)
    raise ValueError(f"unknown transform {tag!r}")


@dataclass
class _BoxAtom:
    name: str
    lo: Fraction
    hi: Fraction
    lo_included: bool
    hi_included: bool
    transform: tuple

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


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


def _compactify(P: Poly, name: str, e: IntervalEntry) -> tuple[Poly, _BoxAtom]:
    """Entry domain with at most one infinite side -> transformed poly and a
    finite [0,1] or original finite domain for the atom."""
    if e.lower is not None and e.upper is not None:
        return P, _BoxAtom(name, e.lower, e.upper,
                           not e.lower_open, not e.upper_open, _IDENTITY)
    P1, P0 = P.split(name)
    if e.lower is not None:  # [l, inf)
        l = e.lower
        stretch = Poly.const(l) + Poly.atom(name, _ONE - l)   # l + (1-l)s
        shrink = Poly.const(1) + Poly.atom(name, -1)           # 1 - s
        Q = P1 * stretch + P0 * shrink
        return Q, _BoxAtom(name, _ZERO, _ONE, not e.lower_open, False, ("low_inf", l))
    u = e.upper  # (-inf, u]
    stretch = Poly.const(u) + Poly.atom(name, -(_ONE + u))     # u - (1+u)s
    shrink = Poly.const(1) + Poly.atom(name, -1)
    Q = P1 * stretch + P0 * shrink
    return Q, _BoxAtom(name, _ZERO, _ONE, not e.upper_open, False, ("up_inf", u))


def _atom_interior(a: _BoxAtom) -> Fraction:
    return (a.lo + a.hi) / 2


def zero_attained_nonneg(P: Poly, atoms: Sequence[_BoxAtom]) -> Optional[dict[str, Fraction]]:
    """For multilinear P >= 0 on the closed box: an admissible zero, or None.

    Recursion per atom: a zero with the coordinate at an included endpoint
    shows up on that face; a zero with the coordinate interior forces the
    affine fiber to vanish identically, i.e. P|lo + P|hi = 0 at the remaining
    coordinates, in which case the fiber midpoint is admissible.
    """
    if not atoms:
        return {} if P.is_zero() or (P.is_const() and P.const_value() == 0) else None
    a, rest = atoms[0], atoms[1:]
    if a.is_point:
        hit = zero_attained_nonneg(P.substitute(a.name, a.lo), rest)
        if hit is not None:
            hit[a.name] = a.lo
        return hit
    Pl = P.substitute(a.name, a.lo)
    Ph = P.substitute(a.name, a.hi)
    if a.lo_included:
        hit = zero_attained_nonneg(Pl, rest)
        if hit is not None:
            hit[a.name] = a.lo
            return hit
    if a.hi_included:
        hit = zero_attained_nonneg(Ph, rest)
        if hit is not None:
            hit[a.name] = a.hi
            return hit
    hit = zero_attained_nonneg(Pl + Ph, rest)
    if hit is not None:
        hit[a.name] = _atom_interior(a)
        return hit
    return None


def _pull_admissible(P: Poly, atoms: Sequence[_BoxAtom],
                     vertex: dict[str, Fraction]) -> dict[str, Fraction]:
    """Move a vertex with nonzero value off its excluded endpoints while
    keeping the sign, by exact halving toward the box midpoint."""
    target_sign = 1 if P.evaluate(vertex) > 0 else -1
    excluded = []
    for a in atoms:
        at_lo = vertex[a.name] == a.lo and not a.lo_included
        at_hi = vertex[a.name] == a.hi and not a.hi_included
        if (at_lo or at_hi) and not a.is_point:
            excluded.append(a)
    if not excluded:
        return dict(vertex)
    scale = _HALF
    while True:
        candidate = dict(vertex)
        for a in excluded:
            mid = _atom_interior(a)
            candidate[a.name] = vertex[a.name] + (mid - vertex[a.name]) * scale
        value = P.evaluate(candidate)
        if value != 0 and (value > 0) == (target_sign > 0):
            return candidate
        scale = scale / 2


def _walk_to_zero(P: Poly, names: Sequence[str],
                  a_pt: dict[str, Fraction], b_pt: dict[str, Fraction]) -> dict[str, Fraction]:
    """Exact zero of P between two points of opposite strict sign, moving
    one coordinate at a time; each leg is affine, so the crossing leg is
    solved by one division. Every coordinate visited lies between its values
    at the two points."""
    cur = dict(a_pt)
    val = P.evaluate(cur)
    if val == 0:
        return cur
    for name in names:
        target = b_pt[name]
        if cur[name] == target:
            continue
        restricted = P
        for other in names:
            if other != name:
                restricted = restricted.substitute(other, cur[other])
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
    zero: Optional[dict[str, Fraction]]  # original coordinates
    min_value: Fraction
    min_excluded: bool
    max_value: Fraction
    max_excluded: bool
    vertices: int
    vertex_rows: Optional[list[dict]]
    compactified: bool


def _restore(atoms: Sequence[_BoxAtom], assignment: Mapping[str, Fraction]) -> dict[str, Fraction]:
    return {a.name: _inverse_transform(a.transform, assignment[a.name]) for a in atoms}


def _analyze_sub_box(P: Poly, entries: dict[str, IntervalEntry],
                     caps: Caps, keep_rows: bool) -> _SubBoxOutcome:
    atoms: list[_BoxAtom] = []
    Q = P
    compactified = False
    for name in sorted(entries):
        e = entries[name]
        if e.is_point:
            Q = Q.substitute(name, e.lower)
            atoms.append(_BoxAtom(name, e.lower, e.lower, True, True, _IDENTITY))
            continue
        Q, atom = _compactify(Q, name, e)
        if atom.transform is not _IDENTITY:
            compactified = True
        atoms.append(atom)
    free = [a for a in atoms if not a.is_point]
    if (1 << len(free)) > caps.vertices:
        raise CapExceeded("vertices", 1 << len(free), caps.vertices)

    best_min = None
    best_max = None
    min_excluded_only = True
    max_excluded_only = True
    argmin = argmax = None
    rows = [] if keep_rows else None
    count = 0
    choices = [((a, a.lo, a.lo_included), (a, a.hi, a.hi_included)) for a in free]
    for combo in itertools.product(*choices) if free else [()]:
        assignment = {a.name: a.lo for a in atoms if a.is_point}
        excluded = False
        for a, value, included in combo:
            assignment[a.name] = value
            if not included:
                excluded = True
        value = Q.evaluate(assignment)
        count += 1
        if rows is not None and count <= 64:
            rows.append({
                "assignment": {a.name: str(assignment[a.name]) for a in free},
                "value": str(value),
                "excluded": excluded,
            })
        if best_min is None or value < best_min:
            best_min, min_excluded_only, argmin = value, excluded, dict(assignment)
        elif value == best_min and min_excluded_only and not excluded:
            min_excluded_only, argmin = False, dict(assignment)
        if best_max is None or value > best_max:
            best_max, max_excluded_only, argmax = value, excluded, dict(assignment)
        elif value == best_max and max_excluded_only and not excluded:
            max_excluded_only, argmax = False, dict(assignment)
    if rows is not None and count > 64:
        rows = None

    def out(sign: DetSign, zero: Optional[dict[str, Fraction]]) -> _SubBoxOutcome:
        return _SubBoxOutcome(sign, zero, best_min, min_excluded_only,
                              best_max, max_excluded_only, count, rows, compactified)

    if best_min == 0 and best_max == 0:
        interior = {a.name: (_atom_interior(a) if not a.is_point else a.lo) for a in atoms}
        return out(DetSign.ZERO, _restore(atoms, interior))
    if best_min > 0:
        return out(DetSign.POS, None)
    if best_max < 0:
        return out(DetSign.NEG, None)
    if best_min == 0:  # Q >= 0 on the closed box
        hit = zero_attained_nonneg(Q, atoms)
        if hit is None:
            return out(DetSign.POS, None)
        return out(DetSign.MIXED, _restore(atoms, hit))
    if best_max == 0:  # Q <= 0
        hit = zero_attained_nonneg(-Q, atoms)
        if hit is None:
            return out(DetSign.NEG, None)
        return out(DetSign.MIXED, _restore(atoms, hit))
    # strict sign change: an admissible zero always exists
    neg_pt = _pull_admissible(Q, atoms, argmin)
    pos_pt = _pull_admissible(Q, atoms, argmax)
    zero = _walk_to_zero(Q, [a.name for a in atoms], neg_pt, pos_pt)
    return out(DetSign.MIXED, _restore(atoms, zero))


def _box_analysis(P: Poly, infos: Mapping[str, AtomInfo], caps: Caps) -> tuple[DetSign,
                                                                  BoxSummary,
                                                                  Optional[dict]]:
    # atoms absent from P only matter for member construction, not for the sign
    names = sorted(P.atoms())
    split_lists = []
    for name in names:
        split_lists.append([(name, piece) for piece in _split_entry(infos[name].domain)])
    sub_count = 1
    for pieces in split_lists:
        sub_count *= len(pieces)
    free_atoms = len(names)
    if sub_count * (1 << free_atoms) > caps.vertices:
        raise CapExceeded("vertices", sub_count * (1 << free_atoms), caps.vertices)

    outcomes: list[_SubBoxOutcome] = []
    for combo in itertools.product(*split_lists) if split_lists else [()]:
        entries = {name: piece for name, piece in combo}
        outcomes.append(_analyze_sub_box(P, entries, caps, keep_rows=(sub_count == 1)))

    signs = {o.sign for o in outcomes}
    zero_holder = next((o for o in outcomes if o.sign is DetSign.MIXED), None)
    if zero_holder is None:
        zero_holder = next((o for o in outcomes if o.sign is DetSign.ZERO), None)
    if DetSign.MIXED in signs:
        overall = DetSign.MIXED
    elif signs == {DetSign.ZERO}:
        overall = DetSign.ZERO
    elif DetSign.ZERO in signs:
        overall = DetSign.MIXED  # det vanishes identically on one component
    elif signs == {DetSign.POS}:
        overall = DetSign.POS
    elif signs == {DetSign.NEG}:
        overall = DetSign.NEG
    else:
        overall = DetSign.NONZERO

    min_o = min(outcomes, key=lambda o: o.min_value)
    max_o = max(outcomes, key=lambda o: o.max_value)
    summary = BoxSummary(
        atom_order=tuple(names),
        atom_domains={n: format_interval_entry(infos[n].domain) for n in names},
        sub_boxes=len(outcomes),
        vertices_evaluated=sum(o.vertices for o in outcomes),
        compactified=any(o.compactified for o in outcomes),
        min_value=min_o.min_value,
        min_excluded=min_o.min_excluded,
        max_value=max_o.max_value,
        max_excluded=max_o.max_excluded,
        vertex_rows=outcomes[0].vertex_rows if len(outcomes) == 1 else None,
    )
    zero = zero_holder.zero if zero_holder is not None else None
    return overall, summary, zero


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

    if P.is_zero():
        return DetAnalysis(DetSign.ZERO, "monomial-table", P, view,
                           table=_build_table(P), zero_assignment={})

    infos = view.atoms
    if all(infos[a].kind == "positive" for a in P.atoms()):
        table = _build_table(P)
        positive = {c > 0 for _, c in table.terms}
        if len(positive) == 2:
            return DetAnalysis(DetSign.MIXED, "monomial-table", P, view, table=table,
                               zero_assignment=_table_zero(P, table))
        sign = DetSign.POS if True in positive else DetSign.NEG
        return DetAnalysis(sign, "monomial-table", P, view, table=table)

    sign, summary, zero = _box_analysis(P, infos, caps)
    return DetAnalysis(sign, "box", P, view, box=summary, zero_assignment=zero)
