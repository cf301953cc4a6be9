"""Matrix classes: interval boxes, sign-set matrices, positively scaled
matrices, their products and kernel augmentations, plus the symbolic view used
by the determinant route.

A matrix class denotes a set of real matrices. The symbolic view writes every
entry of a class member as a polynomial in named positive or interval-bounded
atoms, so that the determinant of an augmented member becomes a single
polynomial whose sign over the atom domains decides injectivity.

Atom naming (stable within a run, positional within each factor):
  k<i>  row scaling of a Scaled factor          (positive)
  l<j>  column scaling of a Scaled factor       (positive)
  m<t>  magnitude of the t-th nonzero entry of a sign pattern, row-major (positive)
  v<t>  value of the t-th non-point entry of an interval box, row-major (its interval)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .linalg import MatrixTextError, RationalMatrix, Subspace, parse_rational_token, rat, read_grid
from .signs import SignSet, format_sign_set, parse_sign_set, sign_of

_ZERO = Fraction(0)
_ONE = Fraction(1)


class UnsupportedClassError(ValueError):
    """Raised when an operation has no meaning for the given class shape."""


# ---------------------------------------------------------------------------
# interval entries and boxes


@dataclass(frozen=True)
class IntervalEntry:
    """One entry domain: an interval with open/closed ends, optionally punctured
    at zero ((l,0) u (0,u) with l < 0 < u). None endpoints are infinite and
    always open. A point {c} is the closed interval [c, c]."""

    lower: Optional[Fraction]
    upper: Optional[Fraction]
    lower_open: bool
    upper_open: bool
    punctured: bool = False

    def __post_init__(self):
        lo = None if self.lower is None else rat(self.lower)
        up = None if self.upper is None else rat(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if lo is None and not self.lower_open:
            raise ValueError("infinite lower endpoint must be open")
        if up is None and not self.upper_open:
            raise ValueError("infinite upper endpoint must be open")
        if lo is not None and up is not None:
            if lo > up:
                raise ValueError(f"empty interval: lower {lo} > upper {up}")
            if lo == up and (self.lower_open or self.upper_open or self.punctured):
                raise ValueError("a point interval must be closed and unpunctured")
        if self.punctured:
            if not (lo is None or lo < 0) or not (up is None or up > 0):
                raise ValueError("punctured entry needs lower < 0 < upper")

    # constructors ---------------------------------------------------------

    @staticmethod
    def point(value) -> "IntervalEntry":
        v = rat(value)
        return IntervalEntry(v, v, False, False)

    @staticmethod
    def open(lower, upper) -> "IntervalEntry":
        lo = None if lower is None else rat(lower)
        up = None if upper is None else rat(upper)
        return IntervalEntry(lo, up, True, True)

    @staticmethod
    def closed(lower, upper) -> "IntervalEntry":
        return IntervalEntry(rat(lower), rat(upper), False, False)

    @staticmethod
    def positive() -> "IntervalEntry":
        return IntervalEntry(_ZERO, None, True, True)

    @staticmethod
    def negative() -> "IntervalEntry":
        return IntervalEntry(None, _ZERO, True, True)

    @staticmethod
    def punctured_line() -> "IntervalEntry":
        return IntervalEntry(None, None, True, True, punctured=True)

    # predicates -----------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def contains(self, value) -> bool:
        v = rat(value)
        if self.punctured and v == 0:
            return False
        if self.lower is not None:
            if v < self.lower or (self.lower_open and v == self.lower):
                return False
        if self.upper is not None:
            if v > self.upper or (self.upper_open and v == self.upper):
                return False
        return True

    def sign_set(self) -> SignSet:
        signs = set()
        if self.lower is None or self.lower < 0:
            signs.add(-1)
        if self.upper is None or self.upper > 0:
            signs.add(1)
        if self.contains(_ZERO):
            signs.add(0)
        return frozenset(signs)

    def pick_point(self) -> Fraction:
        """A deterministic representative value."""
        if self.is_point:
            return self.lower
        if self.lower is not None and self.upper is not None:
            mid = (self.lower + self.upper) / 2
            if self.punctured and mid == 0:
                mid = (self.upper if self.upper > 0 else self.lower) / 2
            return mid
        if self.lower is not None:  # [l, inf)
            v = self.lower + 1
            return v if v != 0 or not self.punctured else self.lower + 2
        if self.upper is not None:  # (-inf, u]
            v = self.upper - 1
            return v if v != 0 or not self.punctured else self.upper - 2
        return _ONE if self.punctured else _ZERO

    def __str__(self) -> str:
        return format_interval_entry(self)


@dataclass(frozen=True)
class IntervalBox:
    entries: tuple[tuple[IntervalEntry, ...], ...]

    def __post_init__(self):
        if self.entries and len({len(r) for r in self.entries}) > 1:
            raise ValueError("ragged interval box")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def at(self, i: int, j: int) -> IntervalEntry:
        return self.entries[i][j]

    def contains(self, M: RationalMatrix) -> bool:
        if (M.rows, M.cols) != (self.rows, self.cols):
            return False
        return all(
            self.entries[i][j].contains(M.at(i, j))
            for i in range(self.rows)
            for j in range(self.cols)
        )


# ---------------------------------------------------------------------------
# sign-set matrices


@dataclass(frozen=True)
class SignSetMatrix:
    entries: tuple[tuple[SignSet, ...], ...]

    def __post_init__(self):
        if self.entries and len({len(r) for r in self.entries}) > 1:
            raise ValueError("ragged sign-set matrix")
        for row in self.entries:
            for s in row:
                if not s or not s <= {-1, 0, 1}:
                    raise ValueError(f"bad sign set {set(s)!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def at(self, i: int, j: int) -> SignSet:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[SignSet, ...]:
        return self.entries[i]

    @property
    def is_pattern(self) -> bool:
        return all(len(s) == 1 for row in self.entries for s in row)

    def contains(self, M: RationalMatrix) -> bool:
        if (M.rows, M.cols) != (self.rows, self.cols):
            return False
        return all(
            sign_of(M.at(i, j)) in self.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    @classmethod
    def from_signs(cls, signs: Sequence[Sequence[int]]) -> "SignSetMatrix":
        return cls(tuple(tuple(frozenset({int(s)}) for s in row) for row in signs))


def d_of_signsets(W: SignSetMatrix) -> IntervalBox:
    """The entrywise interval hull with the same sign data as W.

    {0} -> [0,0]; {-} -> (-inf,0); {+} -> (0,inf); {-,0} -> (-inf,0];
    {0,+} -> [0,inf); {-,+} -> (-inf,0)u(0,inf); {-,0,+} -> (-inf,inf).
    """
    table = {
        frozenset({0}): IntervalEntry.point(0),
        frozenset({-1}): IntervalEntry.negative(),
        frozenset({1}): IntervalEntry.positive(),
        frozenset({-1, 0}): IntervalEntry(None, _ZERO, True, False),
        frozenset({0, 1}): IntervalEntry(_ZERO, None, False, True),
        frozenset({-1, 1}): IntervalEntry.punctured_line(),
        frozenset({-1, 0, 1}): IntervalEntry(None, None, True, True),
    }
    return IntervalBox(tuple(tuple(table[s] for s in row) for row in W.entries))


# ---------------------------------------------------------------------------
# matrix classes


class MatrixClass:
    rows: int
    cols: int

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Scaled(MatrixClass):
    """q(B): all diag(kappa) B diag(lambda) with kappa, lambda > 0."""

    B: RationalMatrix

    @property
    def rows(self) -> int:
        return self.B.rows

    @property
    def cols(self) -> int:
        return self.B.cols

    def describe(self) -> str:
        return f"scaled({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class SignSets(MatrixClass):
    """All matrices whose entry signs lie in the given sign sets."""

    W: SignSetMatrix

    @property
    def rows(self) -> int:
        return self.W.rows

    @property
    def cols(self) -> int:
        return self.W.cols

    def describe(self) -> str:
        return f"sign-sets({self.rows}x{self.cols})"


def SignPattern(signs: Sequence[Sequence[int]]) -> SignSets:
    """All matrices with exactly the given sign in every entry: the sign-set
    class whose entries each hold one sign."""
    return SignSets(SignSetMatrix.from_signs(signs))


@dataclass(frozen=True, eq=False)
class Interval(MatrixClass):
    """All matrices with each entry in its interval domain."""

    D: IntervalBox

    @property
    def rows(self) -> int:
        return self.D.rows

    @property
    def cols(self) -> int:
        return self.D.cols

    def describe(self) -> str:
        return f"interval({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class Product(MatrixClass):
    """{L R : L in left, R in right}; left may be a single fixed matrix."""

    left: Union[RationalMatrix, MatrixClass]
    right: MatrixClass

    def __post_init__(self):
        if self.left.cols != self.right.rows:
            raise ValueError(
                f"product shape mismatch: left has {self.left.cols} cols, "
                f"right has {self.right.rows} rows"
            )

    @property
    def rows(self) -> int:
        return self.left.rows

    @property
    def cols(self) -> int:
        return self.right.cols

    def describe(self) -> str:
        left = "matrix" if isinstance(self.left, RationalMatrix) else self.left.describe()
        return f"product({left}, {self.right.describe()})"


@dataclass(frozen=True, eq=False)
class Augmented(MatrixClass):
    """All [Z; M] with M in the inner class; Z is a fixed stack of rows."""

    Z: RationalMatrix
    inner: MatrixClass

    def __post_init__(self):
        if self.Z.cols != self.inner.cols:
            raise ValueError("augmentation column mismatch")

    @property
    def rows(self) -> int:
        return self.Z.rows + self.inner.rows

    @property
    def cols(self) -> int:
        return self.inner.cols

    def describe(self) -> str:
        return f"augmented({self.Z.rows}+{self.inner.describe()})"


def augment_with_kernel_rep(S: Subspace, inner: MatrixClass) -> Augmented:
    """[Z; M] for M in the class, Z a kernel representation of S.

    Vectors killed by every [Z; M] are exactly the kernel vectors of members
    that also lie in S.
    """
    if inner.cols != S.n:
        raise ValueError(f"class has {inner.cols} columns, subspace lives in dim {S.n}")
    return Augmented(S.kernel_rep(), inner)


def interval_hull(cls: MatrixClass) -> MatrixClass:
    """The same set of matrices with every SignSets factor that has an entry
    of several signs replaced by its interval hull (d_of_signsets), so that
    the class has a symbolic view; cls itself when no factor has one."""
    if isinstance(cls, SignSets) and not cls.W.is_pattern:
        return Interval(d_of_signsets(cls.W))
    if isinstance(cls, Product):
        left = cls.left if isinstance(cls.left, RationalMatrix) else interval_hull(cls.left)
        right = interval_hull(cls.right)
        if left is not cls.left or right is not cls.right:
            return Product(left, right)
    elif isinstance(cls, Augmented):
        inner = interval_hull(cls.inner)
        if inner is not cls.inner:
            return Augmented(cls.Z, inner)
    return cls


# ---------------------------------------------------------------------------
# members and membership


@dataclass(frozen=True)
class Member:
    """A concrete matrix together with how it was produced from its class,
    enough to replay an exact membership check."""

    matrix: RationalMatrix
    kind: str  # matrix | scaled | pattern | signsets | interval | product | augmented
    kappa: Optional[tuple[Fraction, ...]] = None
    lam: Optional[tuple[Fraction, ...]] = None
    factors: Optional[tuple["Member", ...]] = None

    def to_payload(self) -> dict:
        out = {
            "kind": self.kind,
            "matrix": [[str(v) for v in row] for row in self.matrix.data],
        }
        if self.kappa is not None:
            out["kappa"] = [str(v) for v in self.kappa]
        if self.lam is not None:
            out["lambda"] = [str(v) for v in self.lam]
        if self.factors is not None:
            out["factors"] = [f.to_payload() for f in self.factors]
        return out


def _scaled_contains_matrix(B: RationalMatrix, M: RationalMatrix) -> bool:
    """Does M = diag(kappa) B diag(lambda) for some positive kappa, lambda?

    Necessary: same sign pattern. The ratios r_ij = M_ij / B_ij on the support
    must factor as kappa_i * lambda_j; propagate values over the bipartite
    support graph and check consistency and positivity.
    """
    if (M.rows, M.cols) != (B.rows, B.cols):
        return False
    for i in range(B.rows):
        for j in range(B.cols):
            if sign_of(M.at(i, j)) != sign_of(B.at(i, j)):
                return False
    kappa: dict[int, Fraction] = {}
    lam: dict[int, Fraction] = {}
    for i in range(B.rows):
        if i in kappa:
            continue
        # BFS the support component containing row i
        kappa[i] = _ONE
        stack = [("r", i)]
        while stack:
            side, idx = stack.pop()
            if side == "r":
                for j in range(B.cols):
                    if B.at(idx, j) != 0:
                        ratio = M.at(idx, j) / B.at(idx, j)
                        want = ratio / kappa[idx]
                        if j in lam:
                            if lam[j] != want:
                                return False
                        else:
                            if want <= 0:
                                return False
                            lam[j] = want
                            stack.append(("c", j))
            else:
                for i2 in range(B.rows):
                    if B.at(i2, idx) != 0:
                        ratio = M.at(i2, idx) / B.at(i2, idx)
                        want = ratio / lam[idx]
                        if i2 in kappa:
                            if kappa[i2] != want:
                                return False
                        else:
                            if want <= 0:
                                return False
                            kappa[i2] = want
                            stack.append(("r", i2))
    return True


def class_contains(cls: MatrixClass, M: RationalMatrix,
                   evidence: Optional[Member] = None) -> bool:
    """Exact membership test. Product and augmented classes need factor
    evidence (a factoring is not recoverable from the product alone)."""
    if isinstance(cls, Scaled):
        if (M.rows, M.cols) != (cls.rows, cls.cols):
            return False
        if evidence is not None and evidence.kappa is not None and evidence.lam is not None:
            if any(k <= 0 for k in evidence.kappa) or any(l <= 0 for l in evidence.lam):
                return False
            expect = RationalMatrix(
                cls.rows, cls.cols,
                [[evidence.kappa[i] * cls.B.at(i, j) * evidence.lam[j]
                  for j in range(cls.cols)] for i in range(cls.rows)],
            )
            return expect == M
        return _scaled_contains_matrix(cls.B, M)
    if isinstance(cls, SignSets):
        return cls.W.contains(M)
    if isinstance(cls, Interval):
        return cls.D.contains(M)
    if isinstance(cls, Product):
        if evidence is None or evidence.factors is None or len(evidence.factors) != 2:
            raise UnsupportedClassError("product membership needs factor evidence")
        lm, rm = evidence.factors
        if isinstance(cls.left, RationalMatrix):
            if lm.matrix != cls.left:
                return False
        else:
            if not class_contains(cls.left, lm.matrix, lm):
                return False
        if not class_contains(cls.right, rm.matrix, rm):
            return False
        return lm.matrix.matmul(rm.matrix) == M
    if isinstance(cls, Augmented):
        if (M.rows, M.cols) != (cls.rows, cls.cols):
            return False
        top = RationalMatrix(cls.Z.rows, cls.cols, M.data[: cls.Z.rows])
        if top != cls.Z:
            return False
        rest = RationalMatrix(cls.inner.rows, cls.cols, M.data[cls.Z.rows:])
        inner_evidence = None
        if evidence is not None and evidence.factors:
            inner_evidence = evidence.factors[-1]
        return class_contains(cls.inner, rest, inner_evidence)
    raise UnsupportedClassError(f"unknown class {type(cls).__name__}")


# ---------------------------------------------------------------------------
# symbolic entries (polynomials in named atoms)

Monomial = tuple[tuple[str, int], ...]


def _atom_sort_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else 0)


def _mono_key(pairs) -> Monomial:
    return tuple(sorted(((a, e) for a, e in pairs if e != 0), key=lambda p: _atom_sort_key(p[0])))


def monomial_text(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for a, e in mono:
        parts.append(a if e == 1 else f"{a}^{e}")
    return "*".join(parts)


class Poly:
    """Polynomial over Q in named atoms: the entries of a symbolic view."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Fraction]] = None):
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = c

    @classmethod
    def const(cls, c) -> "Poly":
        c = rat(c)
        return cls({(): c} if c != 0 else {})

    @classmethod
    def atom(cls, name: str, coeff=1) -> "Poly":
        return cls({((name, 1),): rat(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms.get((), _ZERO)

    def atoms(self) -> set[str]:
        return {a for m in self.terms for a, _ in m}

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return Poly()
            return Poly({m: c * v for m, v in self.terms.items()})
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged: dict[str, int] = {}
                for a, e in m1:
                    merged[a] = merged.get(a, 0) + e
                for a, e in m2:
                    merged[a] = merged.get(a, 0) + e
                key = _mono_key(merged.items())
                s = out.get(key, _ZERO) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Poly(out)

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = _ZERO
        for m, c in self.terms.items():
            val = c
            for a, e in m:
                val *= assignment[a] ** e
            total += val
        return total

    def split(self, name: str) -> tuple["Poly", "Poly"]:
        """Write self = name * P1 + P0; requires degree <= 1 in name."""
        p1: dict[Monomial, Fraction] = {}
        p0: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.pop(name, 0)
            if e == 0:
                p0[m] = c
            elif e == 1:
                p1[_mono_key(exps.items())] = c
            else:
                raise ValueError(f"degree {e} > 1 in {name}")
        return Poly(p1), Poly(p0)

    def substitute(self, values: Mapping[str, Fraction]) -> "Poly":
        """Replace the named atoms by constants in one pass over the terms
        (works for any degree)."""
        if not values:
            return self
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            rest = []
            for a, e in m:
                v = values.get(a)
                if v is None:
                    rest.append((a, e))
                else:
                    c *= v if e == 1 else v ** e
            if c == 0:
                continue
            key = tuple(rest)
            s = out.get(key, _ZERO) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Poly(out)

    def is_multilinear(self) -> bool:
        return all(e <= 1 for m in self.terms for _, e in m)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda kv: tuple(( _atom_sort_key(a), e) for a, e in kv[0]),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = monomial_text(m)
            if body == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += " + " + p if not p.startswith("-") else " - " + p[1:]
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# symbolic view of a class


@dataclass(frozen=True)
class AtomInfo:
    domain: IntervalEntry     # (0, inf) for scalings and sign magnitudes


@dataclass
class SymbolicView:
    rows: int
    cols: int
    grid: list[list[Poly]]
    atoms: dict[str, AtomInfo]
    build_member: Callable[[Mapping[str, Fraction]], Member]


class _AtomNamer:
    def __init__(self):
        self.counters: dict[str, int] = {}

    def next(self, letter: str) -> str:
        c = self.counters.get(letter, 0) + 1
        self.counters[letter] = c
        return f"{letter}{c}"


def _view_scaled(cls: Scaled, namer: _AtomNamer, drop_row_scalings: bool) -> SymbolicView:
    B = cls.B
    k_names = None if drop_row_scalings else [namer.next("k") for _ in range(B.rows)]
    l_names = [namer.next("l") for _ in range(B.cols)]
    atoms: dict[str, AtomInfo] = {}
    grid: list[list[Poly]] = []
    used: set[str] = set()
    for i in range(B.rows):
        row = []
        for j in range(B.cols):
            if B.at(i, j) == 0:
                row.append(Poly())
                continue
            mono = [(l_names[j], 1)]
            if k_names is not None:
                mono.append((k_names[i], 1))
            row.append(Poly({_mono_key(mono): B.at(i, j)}))
            used.add(l_names[j])
            if k_names is not None:
                used.add(k_names[i])
        grid.append(row)
    for name in (k_names or []) + l_names:
        if name in used:
            atoms[name] = AtomInfo(IntervalEntry.positive())

    def build(assignment: Mapping[str, Fraction]) -> Member:
        kappa = tuple(
            rat(assignment.get(k_names[i], 1)) if k_names else _ONE for i in range(B.rows)
        )
        lam = tuple(rat(assignment.get(l_names[j], 1)) for j in range(B.cols))
        if any(v <= 0 for v in kappa) or any(v <= 0 for v in lam):
            raise ValueError("scaling atoms must be positive")
        M = RationalMatrix(
            B.rows, B.cols,
            [[kappa[i] * B.at(i, j) * lam[j] for j in range(B.cols)] for i in range(B.rows)],
        )
        return Member(M, "scaled", kappa=kappa, lam=lam)

    return SymbolicView(B.rows, B.cols, grid, atoms, build)


def _view_pattern(signs: tuple[tuple[int, ...], ...], namer: _AtomNamer) -> SymbolicView:
    rows = len(signs)
    cols = len(signs[0]) if rows else 0
    atoms: dict[str, AtomInfo] = {}
    names: dict[tuple[int, int], str] = {}
    grid: list[list[Poly]] = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = signs[i][j]
            if s == 0:
                row.append(Poly())
            else:
                name = namer.next("m")
                names[(i, j)] = name
                atoms[name] = AtomInfo(IntervalEntry.positive())
                row.append(Poly.atom(name, s))
        grid.append(row)

    def build(assignment: Mapping[str, Fraction]) -> Member:
        data = []
        for i in range(rows):
            out = []
            for j in range(cols):
                s = signs[i][j]
                if s == 0:
                    out.append(_ZERO)
                else:
                    mag = rat(assignment.get(names[(i, j)], 1))
                    if mag <= 0:
                        raise ValueError("pattern magnitudes must be positive")
                    out.append(s * mag)
            data.append(out)
        return Member(RationalMatrix(rows, cols, data), "pattern")

    return SymbolicView(rows, cols, grid, atoms, build)


def _view_interval(cls: Interval, namer: _AtomNamer) -> SymbolicView:
    D = cls.D
    atoms: dict[str, AtomInfo] = {}
    names: dict[tuple[int, int], str] = {}
    grid: list[list[Poly]] = []
    for i in range(D.rows):
        row = []
        for j in range(D.cols):
            e = D.at(i, j)
            if e.is_point:
                row.append(Poly.const(e.lower))
            else:
                name = namer.next("v")
                names[(i, j)] = name
                atoms[name] = AtomInfo(e)
                row.append(Poly.atom(name))
        grid.append(row)

    def build(assignment: Mapping[str, Fraction]) -> Member:
        data = []
        for i in range(D.rows):
            out = []
            for j in range(D.cols):
                e = D.at(i, j)
                if e.is_point:
                    out.append(e.lower)
                else:
                    v = rat(assignment.get(names[(i, j)], e.pick_point()))
                    if not e.contains(v):
                        raise ValueError(f"value {v} outside entry domain {e}")
                    out.append(v)
            data.append(out)
        return Member(RationalMatrix(D.rows, D.cols, data), "interval")

    return SymbolicView(D.rows, D.cols, grid, atoms, build)


def _multiply_views(L, left_view: Optional[SymbolicView],
                    right_view: SymbolicView) -> tuple[list[list[Poly]], int]:
    """Grid of the product; L is a RationalMatrix when left_view is None."""
    if left_view is None:
        rows = L.rows
        grid = []
        for i in range(rows):
            row = []
            for j in range(right_view.cols):
                acc = Poly()
                for t in range(right_view.rows):
                    c = L.at(i, t)
                    if c != 0:
                        acc = acc + right_view.grid[t][j] * c
                row.append(acc)
            grid.append(row)
        return grid, rows
    rows = left_view.rows
    grid = []
    for i in range(rows):
        row = []
        for j in range(right_view.cols):
            acc = Poly()
            for t in range(right_view.rows):
                lhs = left_view.grid[i][t]
                if not lhs.is_zero():
                    acc = acc + lhs * right_view.grid[t][j]
            row.append(acc)
        grid.append(row)
    return grid, rows


def symbolic_view(cls: MatrixClass, namer: Optional[_AtomNamer] = None) -> SymbolicView:
    """Entrywise polynomial description of the class, with atom domains and an
    exact member builder. Raises UnsupportedClassError for sign-set entries
    with more than one sign (take the interval_hull of the class, which holds
    the same matrices, or use the sign route instead).
    """
    if namer is None:
        namer = _AtomNamer()
    if isinstance(cls, Scaled):
        return _view_scaled(cls, namer, drop_row_scalings=False)
    if isinstance(cls, SignSets):
        if not cls.W.is_pattern:
            raise UnsupportedClassError(
                "sign-set entries with several signs have no single symbolic view; "
                "take the interval hull or use the sign route"
            )
        signs = tuple(tuple(next(iter(s)) for s in row) for row in cls.W.entries)
        return _view_pattern(signs, namer)
    if isinstance(cls, Interval):
        return _view_interval(cls, namer)
    if isinstance(cls, Augmented):
        inner = symbolic_view(cls.inner, namer)
        grid = [[Poly.const(v) for v in row] for row in cls.Z.data] + inner.grid
        Z = cls.Z

        def build_aug(assignment: Mapping[str, Fraction]) -> Member:
            im = inner.build_member(assignment)
            return Member(Z.vstack(im.matrix), "augmented",
                          factors=(Member(Z, "matrix"), im))

        return SymbolicView(cls.rows, cls.cols, grid, inner.atoms, build_aug)
    if isinstance(cls, Product):
        if isinstance(cls.left, RationalMatrix):
            right_view = symbolic_view(cls.right, namer)
            grid, rows = _multiply_views(cls.left, None, right_view)
            L = cls.left

            def build_nl(assignment: Mapping[str, Fraction]) -> Member:
                rm = right_view.build_member(assignment)
                return Member(L.matmul(rm.matrix), "product",
                              factors=(Member(L, "matrix"), rm))

            return SymbolicView(rows, cls.cols, grid, right_view.atoms, build_nl)
        # class x class: positive row scalings of an inner scaled factor are
        # absorbed by a sign-respecting left factor (column scalings of the
        # left member), so they are dropped from the parametrization.
        drop = isinstance(cls.left, SignSets) and isinstance(cls.right, Scaled)
        left_view = symbolic_view(cls.left, namer)
        if isinstance(cls.right, Scaled):
            right_view = _view_scaled(cls.right, namer, drop_row_scalings=drop)
        else:
            right_view = symbolic_view(cls.right, namer)
        grid, rows = _multiply_views(None, left_view, right_view)
        atoms = {**left_view.atoms, **right_view.atoms}

        def build_cc(assignment: Mapping[str, Fraction]) -> Member:
            lm = left_view.build_member(assignment)
            rm = right_view.build_member(assignment)
            return Member(lm.matrix.matmul(rm.matrix), "product", factors=(lm, rm))

        return SymbolicView(rows, cls.cols, grid, atoms, build_cc)
    raise UnsupportedClassError(f"no symbolic view for {type(cls).__name__}")


# ---------------------------------------------------------------------------
# text formats


def parse_signsets_text(text: str) -> SignSetMatrix:
    rows = read_grid(text, parse_sign_set)
    if not rows:
        raise MatrixTextError(0, "empty sign-set matrix")
    return SignSetMatrix(tuple(tuple(row) for row in rows))


def format_signsets_text(W: SignSetMatrix) -> str:
    return "\n".join(" ".join(format_sign_set(s) for s in row) for row in W.entries) + "\n"


def _parse_endpoint(tok: str, side: str) -> Optional[Fraction]:
    t = tok.strip()
    if t in ("inf", "+inf") and side == "upper":
        return None
    if t == "-inf" and side == "lower":
        return None
    if t in ("inf", "+inf", "-inf"):
        raise ValueError(f"infinite endpoint {t!r} on the wrong side")
    return parse_rational_token(t)


def parse_interval_token(token: str) -> IntervalEntry:
    """One interval entry: `{3/2}`, `[1,2)`, `(0,inf)`, `(-inf,0)u(0,inf)`,
    `(-2,0)u(0,5]` (punctured)."""
    tok = token.strip()
    if tok.startswith("{") and tok.endswith("}"):
        return IntervalEntry.point(parse_rational_token(tok[1:-1].strip()))
    if ")u(" in tok:
        left, _, right = tok.partition(")u(")
        left = left + ")"
        right = "(" + right
        lo_part = parse_interval_token(left)
        hi_part = parse_interval_token(right)
        if not (lo_part.upper == 0 and lo_part.upper_open and hi_part.lower == 0
                and hi_part.lower_open):
            raise ValueError(f"punctured entry must meet at open 0: {token!r}")
        return IntervalEntry(lo_part.lower, hi_part.upper,
                             lo_part.lower_open, hi_part.upper_open, punctured=True)
    if len(tok) < 3 or tok[0] not in "[(" or tok[-1] not in "])":
        raise ValueError(f"bad interval token {token!r}")
    lower_open = tok[0] == "("
    upper_open = tok[-1] == ")"
    body = tok[1:-1]
    if body.count(",") != 1:
        raise ValueError(f"bad interval token {token!r}")
    lo_s, _, hi_s = body.partition(",")
    lower = _parse_endpoint(lo_s, "lower")
    upper = _parse_endpoint(hi_s, "upper")
    return IntervalEntry(lower, upper, lower_open, upper_open)


def format_interval_entry(e: IntervalEntry) -> str:
    if e.is_point:
        return "{" + str(e.lower) + "}"
    lo = "-inf" if e.lower is None else str(e.lower)
    hi = "inf" if e.upper is None else str(e.upper)
    lb = "(" if e.lower_open else "["
    ub = ")" if e.upper_open else "]"
    if e.punctured:
        return f"{lb}{lo},0)u(0,{hi}{ub}"
    return f"{lb}{lo},{hi}{ub}"


def parse_interval_box_text(text: str) -> IntervalBox:
    rows = read_grid(text, parse_interval_token)
    if not rows:
        raise MatrixTextError(0, "empty interval box")
    return IntervalBox(tuple(tuple(row) for row in rows))


def format_interval_box_text(D: IntervalBox) -> str:
    return "\n".join(
        " ".join(format_interval_entry(e) for e in row) for row in D.entries
    ) + "\n"
