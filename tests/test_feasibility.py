"""The exact feasibility solver is the load-bearing wall for every sign-route
decision, so it gets an independent brute-force check: constraint systems
small enough to scan over a rational grid must never disagree with it in the
feasible direction, and every witness it returns must satisfy the system it
was asked about.
"""

import itertools
import random
from fractions import Fraction

import pytest

from injcheck import feasibility
from injcheck.feasibility import feasible_cone, strict_sign_feasible
from injcheck.linalg import RationalMatrix
from injcheck.signs import SignVector

import oracles
from oracles import (
    fraction_cone,
    fraction_phase1,
    fraction_row_phase1,
    free_split_system,
    integer_tableau,
    presolved_fraction_cone,
)

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


class TestFeasibleCone:
    def test_plain_kernel_vector(self):
        x = feasible_cone(2, eq=[(1, -1)], strict=[(1, 0)])
        assert x is not None
        assert x[0] == x[1] and x[0] > 0

    def test_infeasible_strict_pair(self):
        # x > 0 and -x > 0 cannot hold at once
        assert feasible_cone(1, strict=[(1,), (-1,)]) is None

    def test_strict_rows_are_strict(self):
        x = feasible_cone(2, eq=[(1, 1)], strict=[(1, -1)])
        assert x is not None
        assert x[0] - x[1] > 0 and x[0] + x[1] == 0

    def test_no_strict_rows_returns_zero_fast(self):
        x = feasible_cone(2, eq=[(1, 2)], nonneg=[(1, 0)])
        assert x == (0, 0)

    def test_rational_coefficients(self):
        x = feasible_cone(2, eq=[(F(1, 3), F(-5, 7))], strict=[(1, 0), (0, 1)])
        assert x is not None
        assert x[0] / 3 == 5 * x[1] / 7 and x[0] > 0 and x[1] > 0

    def test_mixed_weak_and_strict(self):
        x = feasible_cone(3, eq=[(1, 1, 1)], nonneg=[(1, 0, 0)], strict=[(0, 1, 0)])
        assert x is not None
        assert sum(x) == 0 and x[0] >= 0 and x[1] > 0


class TestStrictSignFeasible:
    def test_sign_realization_no_matrix(self):
        v = strict_sign_feasible(None, SignVector((1, -1, 0)))
        assert v is not None and v[0] > 0 and v[1] < 0 and v[2] == 0

    def test_kernel_with_signs(self):
        Z = M([1, -1, 1])
        v = strict_sign_feasible(Z, SignVector((1, 1, 0)))
        assert v is not None
        assert v[0] - v[1] + v[2] == 0 and v[0] > 0 and v[1] > 0 and v[2] == 0

    def test_impossible_sign_in_kernel(self):
        # x - y = 0 forces equal signs
        assert strict_sign_feasible(M([1, -1]), SignVector((1, -1))) is None

    def test_extra_image_condition(self):
        B = M([1, 1], [1, -1])
        v = strict_sign_feasible(None, SignVector((1, -1)),
                                 extra=[(B, SignVector((0, 1)))])
        assert v is not None
        assert v[0] + v[1] == 0 and v[0] - v[1] > 0

    def test_witness_always_satisfies_system(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 3)
            rows = [[rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(rng.randint(0, 2))]
            Z = M(*rows) if rows and rng.random() < 0.8 else None
            tau = SignVector(tuple(rng.choice((-1, 0, 1)) for _ in range(n)))
            v = strict_sign_feasible(Z, tau)
            if v is None:
                continue
            assert tuple(0 if x == 0 else (1 if x > 0 else -1) for x in v) == tau.entries
            if Z is not None:
                assert all(x == 0 for x in Z.apply(v))


class TestAgainstBruteForce:
    def test_grid_agreement_one_sided(self):
        """Whenever a small rational grid contains a solution, the solver must
        find one too; and a solver hit must never be contradicted by the
        constraints themselves (checked exactly above)."""
        rng = random.Random(11)
        grid = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
        for _ in range(40):
            n = rng.randint(1, 2)
            Z_rows = [[rng.randint(-2, 2) for _ in range(n)]
                      for _ in range(rng.randint(0, 1))]
            Z = M(*Z_rows) if Z_rows else None
            tau = SignVector(tuple(rng.choice((-1, 0, 1)) for _ in range(n)))
            grid_hit = None
            for cand in itertools.product(grid, repeat=n):
                if any((x > 0) != (t > 0) or (x < 0) != (t < 0)
                       for x, t in zip(cand, tau)):
                    continue
                if Z is not None and any(v != 0 for v in Z.apply(cand)):
                    continue
                grid_hit = cand
                break
            solved = strict_sign_feasible(Z, tau)
            if grid_hit is not None:
                assert solved is not None, (Z_rows, tau.entries, grid_hit)


def assert_meets(x, eq, nonneg, strict):
    def dot(row):
        return sum(F(a) * b for a, b in zip(row, x))
    assert all(dot(r) == 0 for r in eq)
    assert all(dot(r) >= 0 for r in nonneg)
    assert all(dot(r) >= 1 for r in strict)  # strict rows have slack at least 1


def phase1_point(n, eq, nonneg, strict):
    """The int tableau's point of the free split system, after checking that
    the Fraction simplex returns the very same one."""
    D, b = free_split_system(n, eq, nonneg, strict)
    y = feasibility._phase1(integer_tableau(D, b))
    assert y == fraction_phase1(D, b) == fraction_row_phase1(D, b)
    return None if y is None else tuple(y[i] - y[n + i] for i in range(n))


def assert_matches_reference(n, eq=(), nonneg=(), strict=()):
    """feasible_cone answers None exactly when the free split cone does, its
    point meets every row and is the point of the cone assembled over
    Fraction; returns the point."""
    x = feasible_cone(n, eq=eq, nonneg=nonneg, strict=strict)
    assert x == presolved_fraction_cone(n, eq=eq, nonneg=nonneg, strict=strict)
    assert (x is None) == (fraction_cone(n, eq=eq, nonneg=nonneg, strict=strict) is None)
    if x is not None:
        assert_meets(x, eq, nonneg, strict)
    return x


class TestIntegerTableauMatchesFractionTableau:
    """The int tableau pivots positive multiples of the rational rows, so
    `_phase1` must return the very point the Fraction simplex returns. The
    cases pin `_phase1` on the free split systems of their cones, since the
    presolve of `feasible_cone` gives it other systems with other vertices."""

    def test_random_cones(self):
        rng = random.Random(2026)

        def rows(n, k):
            return [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(k)]

        outcomes = set()
        for case in range(300):
            n = rng.randint(1, 6)
            eq = rows(n, rng.choice((0, 0, 1, 2, 3)))
            nonneg = rows(n, rng.choice((0, 0, 1, 2, 3)))
            strict = rows(n, rng.choice((0, 1, 2, 3, 4)))
            if strict and case % 5 == 0:
                # h.x > 0 and -h.x > 0 together: infeasible by construction
                strict.append([-v for v in strict[0]])
            x = assert_matches_reference(n, eq, nonneg, strict)
            if strict:
                point = phase1_point(n, eq, nonneg, strict)
                assert (point is None) == (x is None), case
                if point is not None:
                    assert_meets(point, eq, nonneg, strict)
            outcomes.add((bool(eq), bool(nonneg), bool(strict), x is None))
        assert (True, True, True, True) in outcomes
        assert (True, True, True, False) in outcomes
        assert (False, False, True, False) in outcomes
        assert (False, False, False, False) in outcomes

    def test_degenerate_ratio_tie_breaks_on_the_basis_index(self):
        # two rows tie at ratio 0 here; a leaving row picked by position
        # instead of by basis index returns another point
        eq = [[F(-1, 2), 0, F(-1, 7), F(-3, 4), F(1, 3), -4]]
        nonneg = [[F(1, 2), F(1, 3), F(5, 7), F(-2, 3), F(-1, 2), -2]]
        strict = [[F(1, 4), F(-3, 5), 1, -1, -2, F(2, 5)]]
        x = phase1_point(6, eq, nonneg, strict)
        assert x == (F(-212, 89), 0, F(238, 89), F(96, 89), 0, 0)
        assert_meets(x, eq, nonneg, strict)
        assert_matches_reference(6, eq, nonneg, strict)

    def test_large_coprime_denominators(self):
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        n = 6
        eq = [[F((-1) ** j, primes[j]) for j in range(n)],
              [F(1, primes[-1 - j]) if j % 2 else F(-1, primes[j + 6]) for j in range(n)]]
        nonneg = [[F(1, primes[12 + j]) for j in range(n)]]
        strict = [[F(1 if j == k else 0, primes[18 + k]) for j in range(n)] for k in (0, 2)]
        x = phase1_point(n, eq, nonneg, strict)
        assert x is not None
        assert_meets(x, eq, nonneg, strict)
        assert assert_matches_reference(n, eq, nonneg, strict) is not None


def _unit(n, j, c):
    row = [F(0)] * n
    row[j] = F(c)
    return row


class TestPresolve:
    """Unit rows become bounds before the tableau is built; the free split
    cone of `oracles` is the reference for every answer."""

    def test_random_cones_with_unit_rows(self):
        rng = random.Random(41)
        coefficients = (1, -1, 2, -3, F(1, 2), F(-2, 5))
        kinds = set()
        for case in range(400):
            n = rng.randint(1, 5)
            cone = {"eq": [], "nonneg": [], "strict": []}
            for kind in cone:
                for _ in range(rng.choice((0, 1, 2))):  # general rows, some all zero
                    cone[kind].append([F(rng.randint(-3, 3), rng.randint(1, 3))
                                       if rng.random() < 0.7 else F(0) for _ in range(n)])
                for _ in range(rng.choice((0, 1, 1, 2, 3))):
                    cone[kind].append(_unit(n, rng.randrange(n), rng.choice(coefficients)))
            x = assert_matches_reference(n, **cone)
            kinds.add((x is None, all(any(v for v in r) for rows in cone.values() for r in rows)))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("eq, nonneg, strict", [
        ([_unit(2, 0, 3)], [], [_unit(2, 0, -1)]),  # x_0 = 0 and x_0 < 0
        ([], [_unit(2, 1, F(-1, 2))], [_unit(2, 1, 5), [1, 1]]),  # x_1 <= 0 and x_1 > 0
        ([], [], [_unit(2, 0, 2), _unit(2, 0, -2)]),  # x_0 > 0 and x_0 < 0
        ([], [_unit(2, 0, 3), _unit(2, 0, "-1/2")], [_unit(2, 0, F(2, 3))]),  # x_0 = 0 by weak rows
        ([], [], [[0, 0]]),  # 0 > 0
    ])
    def test_contradictory_rows_are_infeasible(self, eq, nonneg, strict):
        assert feasible_cone(2, eq=eq, nonneg=nonneg, strict=strict) is None
        assert fraction_cone(2, eq=eq, nonneg=nonneg, strict=strict) is None
        assert presolved_fraction_cone(2, eq=eq, nonneg=nonneg, strict=strict) is None

    def test_largest_strict_bound_wins(self):
        strict = [_unit(2, 0, 4), _unit(2, 0, F(1, 3)), _unit(2, 1, -2), [1, 1]]
        x = feasible_cone(2, strict=strict)
        assert_meets(x, (), (), strict)
        assert x[0] >= 3 and x[1] <= F(-1, 2)

    def test_weak_rows_on_both_sides_fix_zero(self):
        x = feasible_cone(3, nonneg=[_unit(3, 1, 2), _unit(3, 1, -1)],
                          strict=[[1, 1, 0], _unit(3, 2, 1)])
        assert x is not None and x[1] == 0 and x[0] >= 1
        assert_meets(x, (), [_unit(3, 1, 2)], [[1, 1, 0], _unit(3, 2, 1)])

    def test_presolve_that_leaves_no_rows(self, monkeypatch):
        def refuse(T):
            raise AssertionError("a system with no rows left reached the tableau")

        monkeypatch.setattr(feasibility, "_phase1", refuse)
        eq, nonneg, strict = [_unit(3, 2, 5)], [_unit(3, 1, -1)], [_unit(3, 0, F(-2, 3))]
        x = feasible_cone(3, eq=eq, nonneg=nonneg, strict=strict)
        assert x == (F(-3, 2), 0, 0)
        assert_meets(x, eq, nonneg, strict)

    def test_scaled_pair_keeps_only_the_rows_of_its_matrix(self, monkeypatch):
        # a full tau is n unit rows; the tableau keeps the m rows of B, and a
        # column per coordinate and per strict row of B
        shapes = []
        original = feasibility._phase1
        monkeypatch.setattr(feasibility, "_phase1",  # (rows, columns of D)
                            lambda T: shapes.append((len(T), len(T[0]) - len(T) - 1)) or original(T))
        B = M([1, -2, 1], [2, 1, -1])
        v = strict_sign_feasible(None, SignVector((1, 1, -1)), extra=[(B, SignVector((0, 1)))])
        assert v is not None and B.apply(v)[0] == 0 and B.apply(v)[1] > 0
        assert shapes == [(2, 3 + 1)]


def _mixed_cones(seed, count):
    """Seeded cones of int, Fraction and literal-string entries, with unit
    rows of |c| = 1 and |c| != 1 among the general rows of every kind."""
    rng = random.Random(seed)
    coefficients = (1, -1, 2, -3, F(1, 2), F(-2, 5), "7/3", "-3/4", F(6, 4))

    def entry():
        v = F(rng.randint(-4, 4), rng.randint(1, 6))
        return rng.choice((v, str(v), int(v)))

    for _ in range(count):
        n = rng.randint(1, 5)
        cone = {"eq": [], "nonneg": [], "strict": []}
        for kind in cone:
            for _ in range(rng.choice((0, 1, 2))):
                cone[kind].append([entry() if rng.random() < 0.7 else 0 for _ in range(n)])
            for _ in range(rng.choice((0, 1, 2, 3))):
                cone[kind].append(_unit(n, rng.randrange(n), rng.choice(coefficients)))
        yield n, cone


class TestIntRows:
    """`feasible_cone` scales each row to ints once and builds its tableau on
    them; `oracles.presolved_fraction_cone`, the same presolve and tableau
    assembled over Fraction, must return the very same point."""

    def test_random_cones_point_for_point(self):
        seen = set()
        for n, cone in _mixed_cones(97, 600):
            x = assert_matches_reference(n, **cone)
            units = {kind: [(next(j for j, v in enumerate(r) if F(v)), F(next(v for v in r if F(v))))
                            for r in rows if sum(1 for v in r if F(v)) == 1]
                     for kind, rows in cone.items()}
            strict_at = {}
            for j, c in units["strict"]:
                strict_at.setdefault(j, set()).add(c)
            weak_at = {}
            for j, c in units["nonneg"]:
                weak_at.setdefault(j, set()).add(c > 0)
            if x is not None:
                if any(abs(c) != 1 for cs in strict_at.values() for c in cs):
                    seen.add("strict |c| != 1")
                if any(len({abs(c) for c in cs}) > 1 for cs in strict_at.values()):
                    seen.add("several strict bounds on one coordinate")
                if any(len(sides) == 2 for sides in weak_at.values()):
                    seen.add("weak rows on both sides")
                if all(sum(1 for v in r if F(v)) == 1 for rows in cone.values() for r in rows):
                    seen.add("no row left")
            else:
                if any(j in strict_at for j, _ in units["eq"]):
                    seen.add("strict against eq")
                if any(len({c > 0 for c in cs}) == 2 for cs in strict_at.values()):
                    seen.add("strict against strict")
                if any(j in strict_at and {c > 0 for c in strict_at[j]} != sides
                       for j, sides in weak_at.items()):
                    seen.add("strict against weak")
        assert seen == {"strict |c| != 1", "several strict bounds on one coordinate",
                        "weak rows on both sides", "no row left", "strict against eq",
                        "strict against strict", "strict against weak"}

    def test_tableau_rows_are_the_primitive_rows_of_the_fraction_system(self, monkeypatch):
        # a positive scale on one column (a surplus, say) moves no pivot and
        # no returned point, so the rows themselves are compared
        handed = []
        phase1, reference = feasibility._phase1, oracles.fraction_row_phase1
        monkeypatch.setattr(feasibility, "_phase1", lambda T: handed.append(T) or phase1(T))
        monkeypatch.setattr(oracles, "fraction_row_phase1",
                            lambda D, b: handed.append((D, b)) or reference(D, b))
        systems = 0
        for n, cone in _mixed_cones(13, 600):
            assert_matches_reference(n, **cone)
            while handed:
                T, (D, b) = handed.pop(0), handed.pop(0)
                assert [feasibility._primitive(r) for r in T] == [
                    feasibility._primitive(r) for r in integer_tableau(D, b)]
                systems += 1
        assert systems > 100

    def test_bounds_with_denominators_meet_a_kept_row(self):
        # x_0 > 0 twice (bounds 3/7 and 2/5, the larger wins), x_1 < 0 with
        # bound 4/3, and kept rows whose right sides the bounds make fractional
        eq = [[F(1, 2), 1, F(-1, 3)]]
        nonneg = [["2/3", F(5, 2), 1]]
        strict = [_unit(3, 0, "7/3"), _unit(3, 0, F(5, 2)), _unit(3, 1, F(-3, 4)), [F(1, 6), 0, 1]]
        x = assert_matches_reference(3, eq, nonneg, strict)
        assert x is not None and x[0] >= F(3, 7) and x[1] <= F(-4, 3)

    def test_int_fraction_and_string_rows_give_one_point(self):
        eq = [[1, -2, 0, 3]]
        nonneg = [[0, 1, 1, -1], [0, 0, -2, 0]]
        strict = [[4, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, -3]]
        points = {feasible_cone(4, eq=[[form(v) for v in r] for r in eq],
                                nonneg=[[form(v) for v in r] for r in nonneg],
                                strict=[[form(v) for v in r] for r in strict])
                  for form in (int, F, str, lambda v: F(2 * v, 2))}
        assert len(points) == 1
        (x,) = points
        assert x is not None and all(type(v) is F for v in x)
        assert x == presolved_fraction_cone(4, eq, nonneg, strict)

    @pytest.mark.parametrize("kind", ["eq", "nonneg", "strict"])
    def test_float_entries_raise(self, kind):
        rows = {"eq": [[1, 0]], "nonneg": [], "strict": [[0, 1]]}
        rows[kind] = rows[kind] + [[0.5, 1]]
        with pytest.raises(TypeError, match="expected an exact rational"):
            feasible_cone(2, **rows)


class TestSignEntries:
    @pytest.mark.parametrize("tau, extra, message", [
        ((1, 2), (), r"tau\[1\] = 2 "),
        ((0, None), (), r"tau\[1\] = None "),
        ((1, -1), [(M([1, 1]), (F(1, 2),))], r"rho\[0\] = Fraction\(1, 2\) "),
        ((1, 0), [(M([1, 0], [0, 1]), (1, -5))], r"rho\[1\] = -5 "),
    ])
    def test_non_signs_are_rejected(self, tau, extra, message):
        with pytest.raises(ValueError, match=message):
            strict_sign_feasible(None, tau, extra=extra)

    def test_plain_sign_sequences_match_sign_vectors(self):
        B = M([1, -2, 1], [2, 1, -1])
        plain = strict_sign_feasible(None, (1, 1, -1), extra=[(B, [0, 1])])
        assert plain == strict_sign_feasible(None, SignVector((1, 1, -1)),
                                             extra=[(B, SignVector((0, 1)))])
        assert plain is not None
