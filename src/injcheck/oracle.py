"""Randomized falsifier: hunt for a class member that kills a nonzero vector
of S.

This is the only module that touches floating point for anything other than
reporting. Floats are used purely as a screen, and only candidates that pass
it are handed to exact arithmetic. A reported hit is always an exact
SingularWitness that passed the same checks verify_certificate runs; a miss is
only ever "no hit in N trials".

Every class goes through the symbolic view of its augmented class [Z; M]. A
sign-set factor with several signs in some entry is first replaced by its
interval hull (d_of_signsets), which holds exactly the same matrices. A wide
view (fewer rows than unknowns) makes every member singular and a view
without atoms is a single matrix, so one exact member decides both. Any other
view runs one search loop: draw a batch of atom values, screen the float
members, snap the best candidates to small rationals inside their domains,
repair them exactly, and return the first witness. The shape of the view
picks the screen and the repair once, before the loop:

* square: |det| / prod ||row_i||; the determinant is affine in each single
  atom (every atom appears in one row, one column, or one entry), so a near
  miss is finished off by moving one atom to its exact root, if that root
  stays inside its domain; one exact elimination gives the determinant's
  slope in every atom by Jacobi's formula;
* tall: sigma_min / sigma_max; a candidate is kept when its exact kernel is
  nontrivial.

The float draw lands on an atom's distinguished points (its closed finite
endpoints, and 0 when its domain contains 0) with a fixed share of the draws,
because a member that is singular only there, such as one with a discrete
zero of a sign set, has probability zero under a continuous draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .classes import (
    Augmented,
    Interval,
    IntervalEntry,
    MatrixClass,
    Member,
    Product,
    SignSets,
    d_of_signsets,
    symbolic_view,
)
from .injectivity import (
    Problem,
    SingularWitness,
    _require_witness,
    effective_parts,
    witness_from_aug_member,
)
from .linalg import RationalMatrix, _eliminate, determinant, integer_row, kernel_basis

_ZERO = Fraction(0)
_MAGNITUDE = 9              # positive parameters drawn as p/q, p <= magnitude^2, q <= magnitude
_SCREEN_TOL = 1e-10         # relative near-zero threshold for the float screen
_SNAP_DENOMINATOR = 10 ** 6


@dataclass(frozen=True)
class OracleConfig:
    trials: int = 1000
    seed: int = 0
    batch: int = 4096
    max_exact_attempts: int = 64

    def __post_init__(self):
        for name, least in (("trials", 0), ("seed", 0), ("batch", 1), ("max_exact_attempts", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"OracleConfig.{name} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# exact random members


def _positive_fraction(rng: random.Random, magnitude: int) -> Fraction:
    return Fraction(rng.randint(1, magnitude * magnitude), rng.randint(1, magnitude))


def _sample_entry(e: IntervalEntry, rng: random.Random, magnitude: int) -> Fraction:
    if e.is_point:
        return e.lower
    if e.punctured:
        half = rng.choice((-1, 1))
        if half < 0:
            e = IntervalEntry(e.lower, _ZERO, e.lower_open, True, False)
        else:
            e = IntervalEntry(_ZERO, e.upper, True, e.upper_open, False)
    lo_inf = e.lower is None
    hi_inf = e.upper is None
    if lo_inf and hi_inf:
        return Fraction(rng.randint(-magnitude * magnitude, magnitude * magnitude),
                        rng.randint(1, magnitude))
    if hi_inf:
        if not e.lower_open and rng.randint(0, 15) == 0:
            return e.lower
        return e.lower + _positive_fraction(rng, magnitude)
    if lo_inf:
        if not e.upper_open and rng.randint(0, 15) == 0:
            return e.upper
        return e.upper - _positive_fraction(rng, magnitude)
    grid = 64
    a = 1 if e.lower_open else 0
    b = grid - 1 if e.upper_open else grid
    t = Fraction(rng.randint(a, b), grid)
    return e.lower + t * (e.upper - e.lower)


def _hull(cls: MatrixClass) -> MatrixClass:
    """The same set of matrices with every multi-sign SignSets factor replaced
    by its interval hull, so that every class has a symbolic view."""
    if isinstance(cls, SignSets) and not cls.W.is_pattern:
        return Interval(d_of_signsets(cls.W))
    if isinstance(cls, Product):
        left = cls.left if isinstance(cls.left, RationalMatrix) else _hull(cls.left)
        return Product(left, _hull(cls.right))
    if isinstance(cls, Augmented):
        return Augmented(cls.Z, _hull(cls.inner))
    return cls


def sample_member(cls: MatrixClass, rng: random.Random, magnitude: int = _MAGNITUDE) -> Member:
    """Exact random member with membership evidence, uniform-ish over small
    rationals: each atom of the class's symbolic view is drawn with
    _sample_entry, in the view's order, and the view builds the member. Every
    output passes class_contains by construction."""
    view = symbolic_view(_hull(cls))
    return view.build_member({name: _sample_entry(info.domain, rng, magnitude)
                              for name, info in view.atoms.items()})


# ---------------------------------------------------------------------------
# float screening


_POINT_SHARE = 1 / 8  # share of the `pick` stream that lands on each distinguished point


def _distinguished_points(e: IntervalEntry) -> list[Fraction]:
    """The entry's closed finite endpoints, then 0 when the entry contains it."""
    points = [p for p, is_open in ((e.lower, e.lower_open), (e.upper, e.upper_open))
              if p is not None and not is_open]
    if e.contains(_ZERO) and _ZERO not in points:
        points.append(_ZERO)
    return points


def _float_domain_sample(e: IntervalEntry, u: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Map uniforms u in (0,1) into the entry, vectorized.

    `pick` is a second uniform stream. Its first 1/8 per distinguished point
    selects that point: a continuous draw never lands on an endpoint or on 0,
    and a member singular only there (a discrete zero of a sign set) would
    otherwise never be sampled. The rest of `pick`, rescaled to [0,1), chooses
    the half of a punctured entry. An entry without distinguished points (open
    and excluding 0) maps u and pick exactly as they come.
    """
    if e.is_point:
        return np.full_like(u, float(e.lower))
    points = _distinguished_points(e)
    share = _POINT_SHARE * len(points)
    x = _float_spread(e, u, (pick - share) / (1.0 - share))
    slot = np.floor(pick / _POINT_SHARE)
    for k, p in enumerate(points):
        x = np.where(slot == k, float(p), x)
    return x


def _float_spread(e: IntervalEntry, u: np.ndarray, pick: np.ndarray) -> np.ndarray:
    if e.punctured:
        lo = float(e.lower) if e.lower is not None else -1e6
        hi = float(e.upper) if e.upper is not None else 1e6
        neg = lo * u            # in (lo, 0)
        pos = hi * u            # in (0, hi)
        return np.where(pick < 0.5, neg, pos)
    lo_inf = e.lower is None
    hi_inf = e.upper is None
    if lo_inf and hi_inf:
        return np.tan(np.pi * (u - 0.5)) * 3.0
    if hi_inf:
        return float(e.lower) + u / (1.0 - u)
    if lo_inf:
        return float(e.upper) - u / (1.0 - u)
    lo, hi = float(e.lower), float(e.upper)
    return lo + (hi - lo) * (0.02 + 0.96 * u)


def _snap_into(e: IntervalEntry, x: float, snap_den: int) -> Fraction:
    """Nearest small rational to x that lies inside the entry."""
    f = Fraction(x).limit_denominator(snap_den)
    if e.contains(f):
        return f
    # nudge toward the interior
    bounded = e.lower is not None and e.upper is not None
    step = (e.upper - e.lower) / 64 if bounded else Fraction(1, 64)
    for end, inward in ((e.lower, step), (e.upper, -step)):
        if end is not None and e.contains(end + inward):
            return end + inward
    return e.pick_point()


class _CompiledGrid:
    """Vectorized float evaluation of a symbolic augmented grid, with its
    atoms in one fixed (sorted) order."""

    def __init__(self, view):
        self.view = view
        self.names = sorted(view.atoms)
        self.index = {n: i for i, n in enumerate(self.names)}
        # each entry: list of (coeff, [atom indices with multiplicity])
        self.entries = []
        for i in range(view.rows):
            row = []
            for j in range(view.cols):
                terms = []
                for mono, coeff in view.grid[i][j].sorted_terms():
                    idx = []
                    for name, power in mono:
                        idx.extend([self.index[name]] * power)
                    terms.append((float(coeff), idx))
                row.append(terms)
            self.entries.append(row)

    @cached_property
    def slopes(self) -> list[list[tuple]]:
        """Per atom, in `names` order: (i, j, dM_ij/da) for each entry that
        holds the atom. Every entry has degree at most 1 in each atom."""
        slopes = {name: [] for name in self.names}
        for i, row in enumerate(self.view.grid):
            for j, entry in enumerate(row):
                for name in entry.atoms():
                    slopes[name].append((i, j, entry.split(name)[0]))
        return [slopes[name] for name in self.names]

    def sample(self, nprng, T: int) -> np.ndarray:
        """(T, n_atoms) float atom values, each inside its domain."""
        cols = []
        for name in self.names:
            u = nprng.uniform(1e-4, 1.0 - 1e-4, size=T)
            pick = nprng.uniform(size=T)
            cols.append(_float_domain_sample(self.view.atoms[name].domain, u, pick))
        return np.stack(cols, axis=1)

    def matrices(self, samples: np.ndarray) -> np.ndarray:
        """samples: (T, n_atoms) -> (T, rows, cols) float matrices."""
        T = samples.shape[0]
        out = np.zeros((T, self.view.rows, self.view.cols))
        for i in range(self.view.rows):
            for j in range(self.view.cols):
                acc = np.zeros(T)
                for coeff, idx in self.entries[i][j]:
                    term = np.full(T, coeff)
                    for k in idx:
                        term = term * samples[:, k]
                    acc += term
                out[:, i, j] = acc
        return out

    def snap(self, sample: np.ndarray, snap_den: int) -> Optional[dict]:
        """An exact assignment with every atom snapped into its domain, or
        None when some sampled float has no rational to snap to (inf, nan)."""
        try:
            return {name: _snap_into(self.view.atoms[name].domain, float(sample[k]), snap_den)
                    for k, name in enumerate(self.names)}
        except (ValueError, OverflowError):
            return None


def _det_ratio(mats: np.ndarray) -> np.ndarray:
    """|det| / prod ||row_i|| of square float members."""
    dets = np.linalg.det(mats)
    norms = np.linalg.norm(mats, axis=2)
    return np.abs(dets) / np.prod(np.maximum(norms, 1e-30), axis=1)


def _sigma_ratio(mats: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max of tall float members."""
    svals = np.linalg.svd(mats, compute_uv=False)
    return svals[:, -1] / np.maximum(svals[:, 0], 1e-30)


def _root_solve(grid: _CompiledGrid, assignment: dict) -> Optional[Member]:
    """Move one atom to make the augmented determinant exactly zero.

    One fraction-free elimination of the int rows [s_i*M_i | e_i] of the
    member M puts a pivot in the identity block when M is singular (then M is
    returned), and otherwise leaves R = d * (SM)^-1 there, S = diag(s_i). det
    is affine in each atom a with slope det M * tr(M^-1 dM/da) (Jacobi's
    formula), so its root is a - d / g_a, g_a = sum R[j][i] * s_i * dM_ij/da.
    The first root inside its atom's domain whose member has determinant 0
    gives the singular member; None when there is none.
    """
    view = grid.view
    n = view.rows
    work, scales = [], []
    for i, row in enumerate(view.grid):
        ints, s = integer_row([entry.evaluate(assignment) for entry in row])
        work.append(ints + [0] * i + [1] + [0] * (n - 1 - i))
        scales.append(s)
    pivots, d, _ = _eliminate(work)
    if pivots[-1] >= n:
        return view.build_member(assignment)
    for name, slope in zip(grid.names, grid.slopes):
        g = sum(work[j][n + i] * scales[i] * dm.evaluate(assignment) for i, j, dm in slope)
        if g == 0:
            continue
        root = assignment[name] - d / g
        if not view.atoms[name].domain.contains(root):
            continue
        member = view.build_member({**assignment, name: root})
        if determinant(member.matrix) == 0:
            return member
    return None


def _kernel_check(grid: _CompiledGrid, assignment: dict) -> Optional[Member]:
    """The member at the assignment if its exact kernel is nontrivial."""
    member = grid.view.build_member(assignment)
    return member if kernel_basis(member.matrix).cols else None


# ---------------------------------------------------------------------------
# the falsifier


def falsify(problem: Problem, cfg: Optional[OracleConfig] = None) -> Optional[SingularWitness]:
    """Search for an exact singular witness; None means no hit in cfg.trials.

    Deterministic for a fixed config: the search loop uses numpy's seeded
    generator, the one exact member of a wide or parameter-free class the
    stdlib generator with the same seed.
    """
    if cfg is None:
        cfg = OracleConfig()
    A, cls = effective_parts(problem)
    S = problem.S
    if S.dim == 0:
        return None
    effcls = cls if A is None else Product(A, cls)
    aug = _hull(Augmented(S.kernel_rep(), effcls))
    view = symbolic_view(aug)

    if view.rows < S.n or not view.atoms:
        # wide: more unknowns than constraints, every member is singular;
        # no atoms: the class is a single matrix, one kernel check decides
        member = sample_member(aug, random.Random(cfg.seed))
        if kernel_basis(member.matrix).cols == 0:
            return None
        return _witness(problem, A, cls, member)

    grid = _CompiledGrid(view)
    if view.rows == S.n:
        # candidates below _SCREEN_TOL are free (all but certainly singular
        # already); any other root solve draws on the exact-work budget,
        # after which only screening continues
        screen, free_below, budget, repair = (
            _det_ratio, _SCREEN_TOL, cfg.max_exact_attempts, _root_solve)
    else:
        # tall: only candidates below the cutoff get an exact kernel check
        screen, free_below, budget, repair = _sigma_ratio, 1e-7, 0, _kernel_check
    nprng = np.random.default_rng(cfg.seed)
    attempts = 0
    remaining = cfg.trials
    while remaining > 0:
        T = min(cfg.batch, remaining)
        remaining -= T
        samples = grid.sample(nprng, T)
        score = screen(grid.matrices(samples))
        for t in np.argsort(score)[:8]:
            if score[t] > free_below:
                if attempts >= budget:
                    break
                attempts += 1
            assignment = grid.snap(samples[t], _SNAP_DENOMINATOR)
            member = None if assignment is None else repair(grid, assignment)
            if member is not None:
                return _witness(problem, A, cls, member)
    return None


def _witness(problem: Problem, A, cls, aug_member: Member) -> SingularWitness:
    witness = witness_from_aug_member(A, cls, aug_member)
    _require_witness(problem, witness, "falsifier witness")
    return witness
