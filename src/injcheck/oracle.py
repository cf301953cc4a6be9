"""Randomized falsifier: hunt for a class member that kills a nonzero vector
of S.

This is the only module that touches floating point for anything other than
reporting. Floats are used purely as a screen, and only candidates that pass
it are handed to exact arithmetic. A reported hit is always an exact
SingularWitness that passed the same checks verify_certificate runs; a miss is
only ever "no hit in N trials".

Every class goes through the symbolic view of its augmented class [Z; M]. A
sign-set factor with several signs in some entry is first replaced by its
interval hull (`interval_hull`), which holds exactly the same matrices. A wide
view (fewer rows than unknowns) makes every member singular and a view
without atoms is a single matrix, so one exact member decides both. Any other
view runs one search loop: draw a batch of atom values, screen the float
members, snap the best candidates to rationals p/q inside their domains and
repair them on the ints of one term table per view, building only a returned
member in Fractions. The shape of the view picks the screen and the repair:

* square: |det| / prod ||row_i||; the determinant is affine in each single
  atom (every atom appears in one row, one column, or one entry), so a near
  miss is finished off by moving one atom to its exact root, if that root
  stays inside its domain; one exact elimination gives the determinant's
  slope in every atom by Jacobi's formula;
* tall: sigma_min / sigma_max, screened by the eigenvalues of the Gram
  matrices M^T M, with a full SVD only for members near singular, so every
  candidate keeps its SVD score; a candidate is kept when its exact kernel is
  nontrivial.

The float draw lands on an atom's distinguished points (its closed finite
endpoints, and 0 when its domain contains 0) with a fixed share of the draws,
because a member that is singular only there, such as one with a discrete
zero of a sign set, has probability zero under a continuous draw.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .classes import (
    Augmented,
    IntervalEntry,
    MatrixClass,
    Member,
    Product,
    interval_hull,
    symbolic_view,
)
from .injectivity import (
    Problem,
    SingularWitness,
    _require_witness,
    effective_parts,
    witness_from_aug_member,
)
from .linalg import _eliminate, determinant, kernel_basis

_ZERO = Fraction(0)
_MAGNITUDE = 9              # positive parameters drawn as p/q, p <= magnitude^2, q <= magnitude
_SCREEN_TOL = 1e-10         # relative near-zero threshold for the float screen
_SNAP_DENOMINATOR = 10 ** 6
_KERNEL_CHECK_BELOW = 1e-7  # tall members scoring above this get no exact kernel check
_GRAM_EXACT_BELOW = 1e-5    # 100 x _KERNEL_CHECK_BELOW: Gram scores below it are redone by SVD


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
    if e.punctured:
        if rng.choice((-1, 1)) < 0:
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


def sample_member(cls: MatrixClass, rng: random.Random, magnitude: int = _MAGNITUDE) -> Member:
    """Exact random member with membership evidence, uniform-ish over small
    rationals: each atom of the class's symbolic view is drawn with
    _sample_entry, in the view's order, and the view builds the member. Every
    output passes class_contains by construction."""
    view = symbolic_view(interval_hull(cls))
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


def _limit_denominator(num: int, den: int, max_den: int) -> tuple[int, int]:
    """(p, q) of Fraction(num, den).limit_denominator(max_den) for num/den in
    lowest terms, den > 0, on ints: the same continued-fraction loop, then the
    closer bound (p1/q1 on a tie) by comparing d/(q1*den) with 1/(2*q1*q)."""
    if den <= max_den:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _within(e: IntervalEntry, p: int, q: int) -> bool:
    """e.contains(Fraction(p, q)), q > 0, on ints: an open end needs a gap >= 1."""
    lo, hi = e.lower, e.upper
    return (not (e.punctured and p == 0)
            and (lo is None or p * lo.denominator - lo.numerator * q >= e.lower_open)
            and (hi is None or hi.numerator * q - p * hi.denominator >= e.upper_open))


def _snap_into(e: IntervalEntry, x: float, snap_den: int) -> tuple[int, int]:
    """(p, q): the nearest small rational to x inside the entry; ValueError
    or OverflowError for nan and inf."""
    p, q = _limit_denominator(*x.as_integer_ratio(), snap_den)
    if _within(e, p, q):
        return p, q
    # nudge toward the interior
    bounded = e.lower is not None and e.upper is not None
    step = (e.upper - e.lower) / 64 if bounded else Fraction(1, 64)
    f = next((end + inward for end, inward in ((e.lower, step), (e.upper, -step))
              if end is not None and e.contains(end + inward)), e.pick_point())
    return f.numerator, f.denominator


class _CompiledGrid:
    """One term table of a symbolic augmented grid (atoms sorted), for float
    batches and for the ints of a snapped point, a tuple of (p, q) per atom."""

    def __init__(self, view):
        self.view = view
        self.names = sorted(view.atoms)
        self.domains = [view.atoms[name].domain for name in self.names]
        self.by_domain = {}  # atom indices per distinct domain, sampled together
        for k, e in enumerate(self.domains):
            self.by_domain.setdefault(e, []).append(k)
        index = {name: k for k, name in enumerate(self.names)}
        # (i, j, coeff, float coeff, atom indices with repeats)
        self.terms = []
        for i, row in enumerate(view.grid):
            for j, entry in enumerate(row):
                for mono, coeff in entry.sorted_terms():
                    atoms = [index[name] for name, power in mono for _ in range(power)]
                    self.terms.append((i, j, coeff, float(coeff), atoms))

    @cached_property
    def int_tables(self) -> tuple[list, list]:
        """(terms, slopes). Row i times its coefficients' lcm and q_k^E per atom
        k (E: the row's top power of k) is s_i * M_i; entry (i, j) sums
        int coeff * prod values[f] over its terms (i, j, int coeff, factors),
        values = all p, then all q. slopes[a]: the terms with a, p_a made q_a,
        which sum to s_i * dM_ij/da (entries have degree <= 1 in a)."""
        m = len(self.names)
        top = [Counter() for _ in range(self.view.rows)]
        lcm = [1] * self.view.rows
        for i, _, coeff, _, atoms in self.terms:
            top[i] |= Counter(atoms)
            lcm[i] = math.lcm(lcm[i], coeff.denominator)
        terms = [(i, j, coeff.numerator * (lcm[i] // coeff.denominator),
                  atoms + [m + k for k in (top[i] - Counter(atoms)).elements()])
                 for i, j, coeff, _, atoms in self.terms]
        slopes = [[] for _ in self.names]
        for i, j, c, factors in terms:
            for k, a in enumerate(factors):
                if a < m:
                    slopes[a].append((i, j, c, factors[:k] + [m + a] + factors[k + 1:]))
        return terms, slopes

    def assignment(self, point: tuple) -> dict:
        return {name: Fraction(p, q) for name, (p, q) in zip(self.names, point)}

    def sample(self, nprng, T: int) -> np.ndarray:
        """(T, n_atoms) float atom values, each inside its domain. One draw
        holds, per atom, the T values of uniform(1e-4, 1 - 1e-4) and then the T
        of its pick stream, bit for bit as two uniform calls per atom would."""
        draw = nprng.random((len(self.domains), 2, T))
        u = 1e-4 + ((1.0 - 1e-4) - 1e-4) * draw[:, 0]
        out = np.empty((len(self.domains), T))
        for e, rows in self.by_domain.items():
            out[rows] = _float_domain_sample(e, u[rows], draw[rows, 1])
        return out.T

    def matrices(self, samples: np.ndarray) -> np.ndarray:
        """samples: (T, n_atoms) -> (T, rows, cols) float matrices."""
        T = samples.shape[0]
        out = np.zeros((T, self.view.rows, self.view.cols))
        for i, j, _, coeff, atoms in self.terms:
            term = np.full(T, coeff)
            for k in atoms:
                term = term * samples[:, k]
            out[:, i, j] += term
        return out

    def snap(self, sample: np.ndarray, snap_den: int) -> Optional[tuple]:
        """The point with every atom snapped into its domain, or None when
        some sampled float has no rational to snap to (inf, nan)."""
        try:
            return tuple(_snap_into(e, x, snap_den) for e, x in zip(self.domains, sample.tolist()))
        except (ValueError, OverflowError):
            return None


def _det_ratio(mats: np.ndarray) -> np.ndarray:
    """|det| / prod ||row_i|| of square float members; the determinant is
    a, ad - bc or the cofactor expansion along the first row up to 3x3."""
    n = mats.shape[1]
    if n == 1:
        dets = mats[:, 0, 0]
    elif n == 2:
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    elif n == 3:
        (a, b, c), (d, e, f), (g, h, i) = mats.transpose(1, 2, 0)
        dets = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    else:
        dets = np.linalg.det(mats)
    norms = np.linalg.norm(mats, axis=2)
    return np.abs(dets) / np.prod(np.maximum(norms, 1e-30), axis=1)


def _sigma_ratio(mats: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max of tall float members, screened on the Gram
    matrices M^T M: sqrt(lambda_min / lambda_max) is off from the singular
    value ratio by about sqrt(machine epsilon), so every member scoring below
    _GRAM_EXACT_BELOW (or nan) gets its SVD ratio instead. Every candidate
    below _KERNEL_CHECK_BELOW thus has its SVD score and its SVD order."""
    lam = np.linalg.eigvalsh(mats.transpose(0, 2, 1) @ mats)
    score = np.sqrt(np.maximum(lam[:, 0], 0.0) / np.maximum(lam[:, -1], 1e-60))
    near = np.flatnonzero(~(score >= _GRAM_EXACT_BELOW))
    if near.size:
        svals = np.linalg.svd(mats[near], compute_uv=False)
        score[near] = svals[:, -1] / np.maximum(svals[:, 0], 1e-30)
    return score


def _root_solve(grid: _CompiledGrid, point: tuple) -> Optional[Member]:
    """Move one atom to make the augmented determinant exactly zero.

    One fraction-free elimination of the int rows [s_i*M_i | e_i] of the
    member M at the point puts a pivot in the identity block when M is
    singular (then M is returned), and otherwise leaves R = d * (SM)^-1
    there, S = diag(s_i). By Jacobi's formula det is affine in each atom
    a = p/q with root (p*g - d*q) / (q*g), g = sum R[j][i] * s_i * dM_ij/da.
    The first root inside its domain whose member has determinant 0 gives
    the singular member; None when there is none.
    """
    view, n = grid.view, grid.view.rows
    values = [p for p, _ in point] + [q for _, q in point]
    terms, slopes = grid.int_tables
    work = [[0] * (n + i) + [1] + [0] * (n - 1 - i) for i in range(n)]
    for i, j, c, factors in terms:
        work[i][j] += math.prod(map(values.__getitem__, factors), start=c)
    pivots, d, _ = _eliminate(work)
    if pivots[-1] >= n:
        return view.build_member(grid.assignment(point))
    for a, slope in enumerate(slopes):
        g = sum(math.prod(map(values.__getitem__, factors), start=c * work[j][n + i])
                for i, j, c, factors in slope)
        p, q = point[a]
        num = p * g - d * q
        if g == 0 or not _within(grid.domains[a], num if g > 0 else -num, q * abs(g)):
            continue
        member = view.build_member({**grid.assignment(point), grid.names[a]: Fraction(num, q * g)})
        if determinant(member.matrix) == 0:
            return member
    return None


def _kernel_check(grid: _CompiledGrid, point: tuple) -> Optional[Member]:
    """The member at the point if its exact kernel is nontrivial."""
    member = grid.view.build_member(grid.assignment(point))
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
    aug = interval_hull(Augmented(S.kernel_rep(), effcls))
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
        screen, free_below, budget, repair = (
            _sigma_ratio, _KERNEL_CHECK_BELOW, 0, _kernel_check)
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
            point = grid.snap(samples[t], _SNAP_DENOMINATOR)
            member = None if point is None else repair(grid, point)
            if member is not None:
                return _witness(problem, A, cls, member)
    return None


def _witness(problem: Problem, A, cls, aug_member: Member) -> SingularWitness:
    witness = witness_from_aug_member(A, cls, aug_member)
    _require_witness(problem, witness, "falsifier witness")
    return witness
