"""Exact rational matrices, kernels, determinants and subspaces.

Everything in this module is exact: entries are `fractions.Fraction` values,
and floating point never enters here. Ranks, row bases, kernels and
determinants all come from one fraction-free Gauss-Jordan pass (Bareiss,
Math. Comp. 22, 1968) over int rows: each rational row is scaled by the lcm of
its denominators, and every update is (p*row - f*lead) // prev with p the new
pivot and prev the one before it. Each entry after a step is a minor of the
scaled input (Sylvester's identity), so the floor division is exact, and the
pivot rows end as d times the reduced row echelon form, d the last pivot.
Products run over the same int rows, cached per matrix: int dot products,
then one Fraction per output entry.

Matrix text format (used by the CLI and the test fixtures): one row per line,
entries separated by whitespace. An entry is an integer (`-3`), a fraction
(`7/2`), or a decimal literal (`1.3`), which is converted exactly (13/10, never
a binary float). Blank lines and `#` comments are ignored.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or exact literal string to Fraction.

    Floats are rejected on purpose: a float argument is almost always a bug in
    exact code. Convert explicitly with Fraction(float) at the call site if the
    binary value really is intended.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


def rat_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


class RationalMatrix:
    """Dense row-major matrix over the rationals."""

    __slots__ = ("rows", "cols", "data", "_int_rows")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        mat = []
        for r in data:
            row = rat_vector(r)
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
            mat.append(row)
        self.rows = rows
        self.cols = cols
        self.data = tuple(mat)
        self._int_rows = None

    def int_rows(self) -> tuple[tuple[list[int], int], ...]:
        """`integer_row` of every row, computed once; not to be mutated."""
        if self._int_rows is None:
            self._int_rows = tuple(integer_row(row) for row in self.data)
        return self._int_rows

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "RationalMatrix":
        rows = list(rows)
        if rows:
            ncols = len(rows[0])
        elif cols is not None:
            ncols = cols
        else:
            raise ValueError("cannot infer column count of an empty matrix; pass cols=")
        return cls(len(rows), ncols, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def column(cls, values: Sequence) -> "RationalMatrix":
        vals = rat_vector(values)
        return cls(len(vals), 1, [[v] for v in vals])

    def at(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        vec = rat_vector(v)
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != {self.cols} columns")
        ints, scale = integer_row(vec)
        return tuple(Fraction(sum(map(operator.mul, row, ints)), s * scale)
                     for row, s in self.int_rows())

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        cols = [integer_row(other.col(j)) for j in range(other.cols)]
        return RationalMatrix(self.rows, other.cols, [
            [Fraction(sum(map(operator.mul, row, col)), s * t) for col, t in cols]
            for row, s in self.int_rows()])

    __matmul__ = matmul

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        return RationalMatrix(self.rows + other.rows, self.cols, list(self.data) + list(other.data))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


def integer_row(row: Sequence) -> tuple[list[int], int]:
    """(s * row as ints, s), s the lcm of the denominators of its int or Fraction entries."""
    scale = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row], scale


def _eliminate(work: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of int rows, in place.

    Returns (pivot columns, d, sign). Every row off the pivot row becomes
    (p*row - f*lead) // prev, with p the pivot, f the row's entry in the pivot
    column and prev the pivot before it (1 at the start). Each entry is then a
    minor of the row-permuted input, so the division is exact. At the end the
    pivot rows are d times the reduced row echelon form, d = the last pivot
    (1 when there is none), and sign is the parity of the row swaps; when
    every column is a pivot column, sign * d is the determinant.
    """
    rows = len(work)
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(work[0]) if rows else 0):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        lead = work[r]
        p = lead[c]
        for i in range(rows):
            if i != r:
                f = work[i][c]
                work[i] = [(p * a - f * b) // prev for a, b in zip(work[i], lead)]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def _reduced(M: RationalMatrix) -> tuple[list[list[int]], list[int], int]:
    """(rows, pivot columns, d): the first len(pivots) rows are d * rref(M)."""
    work = [ints for ints, _ in M.int_rows()]
    pivots, d, _ = _eliminate(work)
    return work, pivots, d


def row_basis(M: RationalMatrix) -> RationalMatrix:
    """Full-row-rank matrix with the same row space as M: the nonzero rows of
    its reduced row echelon form."""
    work, pivots, d = _reduced(M)
    return RationalMatrix(len(pivots), M.cols,
                          [[Fraction(v, d) for v in work[i]] for i in range(len(pivots))])


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Basis of {x : Mx = 0} as the columns of an n x k matrix.

    One basis vector per free column of the reduced echelon form: the free
    coordinate is 1, pivot coordinates are the negated reduced entries, other
    free coordinates 0. k = n - rank(M); k = 0 gives an n x 0 matrix.
    """
    work, pivots, d = _reduced(M)
    n = M.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    cols = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = Fraction(-work[i][f], d)
        cols.append(v)
    return RationalMatrix(n, len(free), [[cols[k][i] for k in range(len(free))] for i in range(n)])


def kernel_rep_of_image(V: RationalMatrix) -> RationalMatrix:
    """Given column-basis V of a subspace, return full-row-rank Z with ker Z = im V.

    Rows of Z span the orthogonal complement of the column space: they are the
    kernel of V^T, transposed.
    """
    return kernel_basis(V.transpose()).transpose()


def determinant(M: RationalMatrix) -> Fraction:
    """sign * d over the product of the row scales, or 0 below full rank."""
    if M.rows != M.cols:
        raise ValueError(f"determinant of non-square {M.shape} matrix")
    work, scale = [], 1
    for ints, s in M.int_rows():
        work.append(ints)
        scale *= s
    pivots, d, sign = _eliminate(work)
    if len(pivots) < M.rows:
        return Fraction(0)
    return Fraction(sign * d, scale)


class Subspace:
    """Linear subspace of Q^n, held as an image basis, a kernel representation, or both.

    The kernel representation Z is kept with full row rank; `contains` and the
    sign-vector machinery use it. Either description is computed from the other
    on first use and cached.
    """

    def __init__(self, n: int, image: Optional[RationalMatrix] = None,
                 kernel_rep: Optional[RationalMatrix] = None):
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if image is None and kernel_rep is None:
            raise ValueError("need an image basis or a kernel representation")
        self.n = n
        self._image: Optional[RationalMatrix] = None
        self._kernel_rep: Optional[RationalMatrix] = None
        self._sign_vectors_cache: dict = {}
        if image is not None:
            if image.rows != n:
                raise ValueError(f"image basis has {image.rows} rows, ambient dim is {n}")
            # normalize to a genuine basis (drop dependent columns)
            basis_rows = row_basis(image.transpose())
            self._image = basis_rows.transpose()
        if kernel_rep is not None:
            if kernel_rep.cols != n:
                raise ValueError(f"kernel rep has {kernel_rep.cols} cols, ambient dim is {n}")
            self._kernel_rep = row_basis(kernel_rep)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, kernel_rep=RationalMatrix.zeros(0, n))

    @classmethod
    def from_image(cls, V: RationalMatrix) -> "Subspace":
        return cls(V.rows, image=V)

    @classmethod
    def from_kernel_rep(cls, Z: RationalMatrix) -> "Subspace":
        return cls(Z.cols, kernel_rep=Z)

    def image_basis(self) -> RationalMatrix:
        if self._image is None:
            self._image = kernel_basis(self._kernel_rep)
        return self._image

    def kernel_rep(self) -> RationalMatrix:
        if self._kernel_rep is None:
            self._kernel_rep = kernel_rep_of_image(self._image)
        return self._kernel_rep

    @property
    def dim(self) -> int:
        if self._image is not None:
            return self._image.cols
        return self.n - self._kernel_rep.rows

    def contains(self, v: Sequence) -> bool:
        vec = rat_vector(v)
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        return all(x == 0 for x in self.kernel_rep().apply(vec))

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, dim={self.dim})"


# ---------------------------------------------------------------------------
# matrix text parsing


class MatrixTextError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_rational_token(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {token!r}: {exc}") from None


def read_grid(text: str, parse_token: Callable[[str], object]) -> list[list]:
    """The rows of a whitespace-separated grid, each token through parse_token,
    '#' comments and blank lines skipped; [] when no row is left. A ValueError
    of parse_token, or a row of another width than the first, is a
    MatrixTextError naming its line."""
    rows: list[list] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        try:
            entries = [parse_token(token) for token in line.split()]
        except ValueError as exc:
            raise MatrixTextError(lineno, str(exc)) from None
        if rows and len(entries) != len(rows[0]):
            raise MatrixTextError(lineno, f"row has {len(entries)} entries, expected {len(rows[0])}")
        rows.append(entries)
    return rows


def parse_matrix_text(text: str, cols: Optional[int] = None) -> RationalMatrix:
    rows = read_grid(text, parse_rational_token)
    if not rows and cols is None:
        raise MatrixTextError(0, "empty matrix text and no column count given")
    return RationalMatrix(len(rows), len(rows[0]) if rows else cols, rows)


def format_matrix_text(M: RationalMatrix) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in M.data) + ("\n" if M.rows else "")
