"""Randomized falsifier: hunt for a class member that kills a nonzero vector
of S.

This is the only module that touches floating point for anything other than
reporting. Floats are used purely as a screen: batches of random members are
checked with vectorized determinants (or smallest singular values in the tall
case), and only near-singular candidates are handed to exact arithmetic. A
reported hit is always an exact SingularWitness that passed the same checks
verify_certificate runs; a miss is only ever "no hit in N trials".

Determinants of augmented members are affine in each single parameter (every
atom appears in one row, one column, or one entry), so a near miss is finished
off exactly: freeze all parameters but one, interpolate the determinant from
two exact evaluations, and move the free parameter to the exact root if the
root stays inside its domain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .classes import (
    Augmented,
    Interval,
    IntervalEntry,
    MatrixClass,
    Member,
    Product,
    Scaled,
    SignPattern,
    SignSets,
    UnsupportedClassError,
    symbolic_view,
)
from .injectivity import (
    Problem,
    SingularWitness,
    _require_witness,
    effective_parts,
    witness_from_aug_member,
)
from .linalg import RationalMatrix, determinant, kernel_basis

_ZERO = Fraction(0)


@dataclass(frozen=True)
class OracleConfig:
    trials: int = 1000
    seed: int = 0
    magnitude: int = 9          # positive parameters drawn as p/q, p <= magnitude^2, q <= magnitude
    batch: int = 4096
    screen_tol: float = 1e-10   # relative near-zero threshold for the float screen
    snap_denominator: int = 10 ** 6
    max_exact_attempts: int = 64


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


def sample_member(cls: MatrixClass, rng: random.Random, magnitude: int = 9) -> Member:
    """Exact random member with membership evidence, uniform-ish over small
    rationals. Every output passes class_contains by construction."""
    if isinstance(cls, Scaled):
        kappa = tuple(_positive_fraction(rng, magnitude) for _ in range(cls.rows))
        lam = tuple(_positive_fraction(rng, magnitude) for _ in range(cls.cols))
        M = RationalMatrix(
            cls.rows, cls.cols,
            [[kappa[i] * cls.B.at(i, j) * lam[j] for j in range(cls.cols)]
             for i in range(cls.rows)],
        )
        return Member(M, "scaled", kappa=kappa, lam=lam)
    if isinstance(cls, SignPattern):
        data = [[s * _positive_fraction(rng, magnitude) if s else _ZERO
                 for s in row] for row in cls.signs]
        return Member(RationalMatrix(cls.rows, cls.cols, data), "pattern")
    if isinstance(cls, SignSets):
        data = []
        for i in range(cls.rows):
            row = []
            for j in range(cls.cols):
                s = rng.choice(sorted(cls.W.at(i, j)))
                row.append(s * _positive_fraction(rng, magnitude) if s else _ZERO)
            data.append(row)
        return Member(RationalMatrix(cls.rows, cls.cols, data), "signsets")
    if isinstance(cls, Interval):
        data = [[_sample_entry(cls.D.at(i, j), rng, magnitude)
                 for j in range(cls.cols)] for i in range(cls.rows)]
        return Member(RationalMatrix(cls.rows, cls.cols, data), "interval")
    if isinstance(cls, Product):
        if isinstance(cls.left, RationalMatrix):
            lm = Member(cls.left, "matrix")
        else:
            lm = sample_member(cls.left, rng, magnitude)
        rm = sample_member(cls.right, rng, magnitude)
        return Member(lm.matrix.matmul(rm.matrix), "product", factors=(lm, rm))
    if isinstance(cls, Augmented):
        im = sample_member(cls.inner, rng, magnitude)
        return Member(cls.Z.vstack(im.matrix), "augmented",
                      factors=(Member(cls.Z, "matrix"), im))
    raise UnsupportedClassError(f"no sampler for {type(cls).__name__}")


# ---------------------------------------------------------------------------
# float screening


def _float_domain_sample(e: IntervalEntry, u: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Map uniforms u in (0,1) into the entry, vectorized. `pick` is a second
    uniform stream used for sign choices of punctured entries."""
    if e.is_point:
        return np.full_like(u, float(e.lower))
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
    candidates = []
    if e.lower is not None:
        step = Fraction(1, 64)
        width = (e.upper - e.lower) if e.upper is not None else None
        if width is not None:
            step = width / 64
        candidates.append(e.lower + step)
    if e.upper is not None:
        step = Fraction(1, 64)
        width = (e.upper - e.lower) if e.lower is not None else None
        if width is not None:
            step = width / 64
        candidates.append(e.upper - step)
    for c in candidates:
        if e.contains(c):
            return c
    return e.pick_point()


class _CompiledGrid:
    """Vectorized float evaluation of a symbolic augmented grid."""

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


def _exact_det_at(view, assignment: dict) -> Fraction:
    """Exact determinant of the grid at an assignment, without the member
    builder's domain validation (slope probes step outside domains)."""
    entries = [[view.grid[i][j].evaluate(assignment) for j in range(view.cols)]
               for i in range(view.rows)]
    return determinant(RationalMatrix(view.rows, view.cols, entries))


def _root_solve(view, assignment: dict, names) -> Optional[dict]:
    """Move one parameter to make the augmented determinant exactly zero.

    The determinant is affine in each single atom, so two exact evaluations
    determine the root. Returns the completed assignment or None.
    """
    d0 = _exact_det_at(view, assignment)
    if d0 == 0:
        return assignment
    for name in names:
        base = assignment[name]
        shifted = dict(assignment)
        shifted[name] = base + 1
        d1 = _exact_det_at(view, shifted)
        alpha = d1 - d0
        if alpha == 0:
            continue
        root = base - d0 / alpha
        info = view.atoms[name]
        if not info.domain.contains(root):
            continue
        done = dict(assignment)
        done[name] = root
        if _exact_det_at(view, done) == 0:
            return done
    return None


# ---------------------------------------------------------------------------
# the falsifier


def falsify(problem: Problem, cfg: Optional[OracleConfig] = None) -> Optional[SingularWitness]:
    """Search for an exact singular witness; None means no hit in cfg.trials.

    Deterministic for a fixed config: the screen uses numpy's seeded
    generator, exact sampling uses the stdlib generator with the same seed.
    """
    if cfg is None:
        cfg = OracleConfig()
    A, cls = effective_parts(problem)
    S = problem.S
    if S.dim == 0:
        return None
    Z = S.kernel_rep()
    effcls = cls if A is None else Product(A, cls)
    aug = Augmented(Z, effcls)
    rng = random.Random(cfg.seed)

    eff_rows = A.rows if A is not None else cls.rows
    aug_rows = Z.rows + eff_rows

    if aug_rows < S.n:
        # more unknowns than constraints: every member is singular
        member = sample_member(aug, rng, cfg.magnitude)
        witness = witness_from_aug_member(A, cls, member)
        _require_witness(problem, witness, "falsifier witness")
        return witness

    try:
        view = symbolic_view(aug)
    except UnsupportedClassError:
        view = None

    if view is None or not view.atoms:
        return _falsify_by_exact_sampling(problem, A, cls, aug, rng, cfg)

    if aug_rows == S.n:
        return _falsify_square(problem, A, cls, view, cfg)
    return _falsify_tall(problem, A, cls, view, cfg)


def _falsify_by_exact_sampling(problem, A, cls, aug, rng, cfg) -> Optional[SingularWitness]:
    """No symbolic view (multi-sign sign sets) or no parameters at all:
    exact kernel check per trial."""
    trials = min(cfg.trials, 4096)
    for _ in range(trials):
        member = sample_member(aug, rng, cfg.magnitude)
        if kernel_basis(member.matrix).cols > 0:
            witness = witness_from_aug_member(A, cls, member)
            _require_witness(problem, witness, "falsifier witness")
            return witness
    return None


def _sample_assignments(view, compiled, nprng, T) -> np.ndarray:
    cols = []
    for name in compiled.names:
        e = view.atoms[name].domain
        u = nprng.uniform(1e-4, 1.0 - 1e-4, size=T)
        pick = nprng.uniform(size=T)
        cols.append(_float_domain_sample(e, u, pick))
    return np.stack(cols, axis=1)


def _snap_sample(view, compiled, sample: np.ndarray, cfg) -> Optional[dict]:
    """An exact assignment with every atom snapped into its domain, or None
    when some sampled float has no rational to snap to (inf, nan)."""
    try:
        return {name: _snap_into(view.atoms[name].domain, float(sample[k]), cfg.snap_denominator)
                for k, name in enumerate(compiled.names)}
    except (ValueError, OverflowError):
        return None


def _falsify_square(problem, A, cls, view, cfg) -> Optional[SingularWitness]:
    compiled = _CompiledGrid(view)
    nprng = np.random.default_rng(cfg.seed)
    remaining = cfg.trials
    attempts = 0
    while remaining > 0:
        T = min(cfg.batch, remaining)
        remaining -= T
        samples = _sample_assignments(view, compiled, nprng, T)
        mats = compiled.matrices(samples)
        dets = np.linalg.det(mats)
        norms = np.linalg.norm(mats, axis=2)
        scale = np.prod(np.maximum(norms, 1e-30), axis=1)
        near = np.abs(dets) / scale
        order = np.argsort(near)
        for t in order[: min(8, T)]:
            # candidates below screen_tol are free (all but certainly singular
            # already); anything else is a repair attempt and draws on the
            # exact-work budget, after which only screening continues
            nearly_zero = near[t] <= cfg.screen_tol
            if not nearly_zero and attempts >= cfg.max_exact_attempts:
                break
            if not nearly_zero:
                attempts += 1
            assignment = _snap_sample(view, compiled, samples[t], cfg)
            if assignment is None:
                continue
            solved = _root_solve(view, assignment, compiled.names)
            if solved is None:
                continue
            member = view.build_member(solved)
            witness = witness_from_aug_member(A, cls, member)
            _require_witness(problem, witness, "falsifier witness")
            return witness
    return None


def _falsify_tall(problem, A, cls, view, cfg) -> Optional[SingularWitness]:
    """More rows than unknowns: screen with the smallest singular value, then
    confirm candidates with an exact kernel computation."""
    compiled = _CompiledGrid(view)
    nprng = np.random.default_rng(cfg.seed)
    remaining = cfg.trials
    while remaining > 0:
        T = min(cfg.batch, remaining)
        remaining -= T
        samples = _sample_assignments(view, compiled, nprng, T)
        mats = compiled.matrices(samples)
        svals = np.linalg.svd(mats, compute_uv=False)
        ratio = svals[:, -1] / np.maximum(svals[:, 0], 1e-30)
        for t in np.argsort(ratio)[:8]:
            if ratio[t] > 1e-7:
                break
            assignment = _snap_sample(view, compiled, samples[t], cfg)
            if assignment is None:
                continue
            member = view.build_member(assignment)
            if kernel_basis(member.matrix).cols == 0:
                continue
            witness = witness_from_aug_member(A, cls, member)
            _require_witness(problem, witness, "falsifier witness")
            return witness
    return None
