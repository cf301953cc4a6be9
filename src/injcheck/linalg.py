"""Exact rational matrices, kernels, determinants and subspaces.

Everything in this module is exact: entries are `fractions.Fraction` values and
every elimination pivots rationally. Floating point never enters here.

Matrix text format (used by the CLI and the test fixtures): one row per line,
entries separated by whitespace. An entry is an integer (`-3`), a fraction
(`7/2`), or a decimal literal (`1.3`), which is converted exactly (13/10, never
a binary float). Blank lines and `#` comments are ignored.
"""

from __future__ import annotations

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

    __slots__ = ("rows", "cols", "data")

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
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

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
        return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in self.data)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        ot = other.transpose()
        out = [
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ot.data]
            for row in self.data
        ]
        return RationalMatrix(self.rows, other.cols, out)

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


def _rref(data: Sequence[Sequence[Fraction]], rows: int, cols: int):
    """Reduced row echelon form. Returns (new rows, pivot column list)."""
    work = [list(r) for r in data]
    pivots: list[int] = []
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


def rref(M: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    work, pivots = _rref(M.data, M.rows, M.cols)
    return RationalMatrix(M.rows, M.cols, work), tuple(pivots)


def rank(M: RationalMatrix) -> int:
    return len(_rref(M.data, M.rows, M.cols)[1])


def row_basis(M: RationalMatrix) -> RationalMatrix:
    """Full-row-rank matrix with the same row space as M."""
    work, pivots = _rref(M.data, M.rows, M.cols)
    return RationalMatrix(len(pivots), M.cols, work[: len(pivots)])


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Basis of {x : Mx = 0} as the columns of an n x k matrix.

    One basis vector per free column of the reduced echelon form: the free
    coordinate is 1, pivot coordinates are the negated reduced entries, other
    free coordinates 0. k = n - rank(M); k = 0 gives an n x 0 matrix.
    """
    work, pivots = _rref(M.data, M.rows, M.cols)
    n = M.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    cols = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -work[i][f]
        cols.append(v)
    return RationalMatrix(n, len(free), [[cols[k][i] for k in range(len(free))] for i in range(n)])


def kernel_rep_of_image(V: RationalMatrix) -> RationalMatrix:
    """Given column-basis V of a subspace, return full-row-rank Z with ker Z = im V.

    Rows of Z span the orthogonal complement of the column space: they are the
    kernel of V^T, transposed.
    """
    return kernel_basis(V.transpose()).transpose()


def determinant(M: RationalMatrix) -> Fraction:
    if M.rows != M.cols:
        raise ValueError(f"determinant of non-square {M.shape} matrix")
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


def solve_linear(M: RationalMatrix, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of Mx = b (free variables 0), or None if inconsistent."""
    bvec = rat_vector(b)
    if len(bvec) != M.rows:
        raise ValueError("right-hand side length mismatch")
    aug = [list(row) + [bvec[i]] for i, row in enumerate(M.data)]
    work, pivots = _rref(aug, M.rows, M.cols + 1)
    if M.cols in pivots:
        return None
    x = [Fraction(0)] * M.cols
    for i, p in enumerate(pivots):
        x[p] = work[i][M.cols]
    return tuple(x)


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

    def same_space(self, other: "Subspace") -> bool:
        if self.n != other.n or self.dim != other.dim:
            return False
        Z = other.kernel_rep()
        V = self.image_basis()
        return Z.matmul(V).is_zero()

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
