import random
from fractions import Fraction

import pytest

import numpy as np

import injcheck.oracle
from injcheck.classes import (
    Augmented,
    Interval,
    Product,
    Scaled,
    SignPattern,
    SignSets,
    class_contains,
    parse_interval_box_text,
    parse_interval_token,
    parse_signsets_text,
    symbolic_view,
)
from injcheck.injectivity import Problem, Status, check_injectivity
from injcheck.linalg import RationalMatrix, Subspace
from injcheck.oracle import (
    OracleConfig,
    _CompiledGrid,
    _hull,
    _limit_denominator,
    _root_solve,
    _snap_into,
    falsify,
    sample_member,
)
from oracles import finite_difference_root_solve

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


class TestSampling:
    def test_samples_stay_in_their_class(self):
        rng = random.Random(3)
        classes = [
            Scaled(M([1, -1], [0, 2])),
            SignPattern(((1, 0), (-1, 1))),
            SignSets(parse_signsets_text("0+ -\n* +")),
            Interval(parse_interval_box_text(
                "{1} (0,1)\n[-2,-1) (-inf,0)u(0,inf)")),
            Product(M([1, -1]), Scaled(M([1, 1], [2, 1]))),
            Product(SignSets(parse_signsets_text("+ -\n+ +")),
                    Scaled(M([1, 0], [1, 1]))),
        ]
        for cls in classes:
            for _ in range(25):
                m = sample_member(cls, rng)
                assert class_contains(cls, m.matrix, m), cls.describe()

    def test_same_seed_same_member(self):
        cls = Interval(parse_interval_box_text("(0,1) [2,3]\n(-inf,0) {5}"))
        a = sample_member(cls, random.Random(42))
        b = sample_member(cls, random.Random(42))
        assert a.matrix == b.matrix


class TestConfig:
    @pytest.mark.parametrize("field", ["trials", "seed", "batch", "max_exact_attempts"])
    def test_negative_settings_name_their_field(self, field):
        # batch = 0 would never lower the trials left, and loop forever
        least = 1 if field == "batch" else 0
        with pytest.raises(ValueError, match=f"OracleConfig.{field} must be >= {least}"):
            OracleConfig(**{field: least - 1})

    def test_zero_trials_search_nothing(self):
        problem = Problem(Interval(parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")),
                          Subspace.full(2))
        assert falsify(problem, OracleConfig(trials=0)) is None


class TestFalsify:
    def test_square_interval_hit(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), Subspace.full(2))
        w = falsify(p, OracleConfig(trials=2000, seed=0))
        assert w is not None
        assert D.contains(w.member.matrix)
        assert all(x == 0 for x in w.member.matrix.apply(w.z))
        assert any(x != 0 for x in w.z)

    def test_square_interval_hit_is_deterministic(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), Subspace.full(2))
        cfg = OracleConfig(trials=2000, seed=7)
        a = falsify(p, cfg)
        b = falsify(p, cfg)
        assert a.member.matrix == b.member.matrix
        assert a.z == b.z

    def test_injective_scaled_never_hits(self):
        p = Problem(Scaled(M([1, 1], [2, 1])), Subspace.full(2))
        assert falsify(p, OracleConfig(trials=5000, seed=1)) is None

    def test_injective_on_coset_never_hits(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        S = Subspace.from_image(RationalMatrix(2, 1, [[1], [1]]))
        p = Problem(Interval(D), S)
        assert falsify(p, OracleConfig(trials=3000, seed=2)) is None

    def test_wide_class_hits_immediately(self):
        p = Problem(Scaled(M([1, 1])), Subspace.full(2))
        w = falsify(p, OracleConfig(trials=1, seed=0))
        assert w is not None
        assert all(x == 0 for x in w.member.matrix.apply(w.z))

    def test_tall_point_class(self):
        D = parse_interval_box_text("{1} {1}\n{2} {2}\n{3} {3}")
        p = Problem(Interval(D), Subspace.full(2))
        w = falsify(p, OracleConfig(trials=50, seed=0))
        assert w is not None
        assert w.member.matrix == M([1, 1], [2, 2], [3, 3])
        assert all(x == 0 for x in w.member.matrix.apply(w.z))

    def test_tall_injective_class(self):
        D = parse_interval_box_text("{1} {0}\n{0} {1}\n(0,1) (0,1)")
        p = Problem(Interval(D), Subspace.full(2))
        assert falsify(p, OracleConfig(trials=300, seed=3)) is None

    def test_discrete_zero_choice_is_found(self):
        # the 0+ entry is a [0,inf) atom of the interval hull; the search
        # must land on its distinguished point 0, the singular diagonal member
        W = parse_signsets_text("0+ 0\n0 +")
        p = Problem(SignSets(W), Subspace.full(2))
        w = falsify(p, OracleConfig(trials=200, seed=0))
        assert w is not None
        assert W.contains(w.member.matrix)
        assert all(x == 0 for x in w.member.matrix.apply(w.z))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("text", [
        "0+ -; 0+ +",       # square, singular only when both 0+ entries are 0
        "0+ 0; 0 +; 0+ 0",  # tall, same
        "* 0; 0 +; 0 0",    # tall, singular only when the * entry is 0
    ])
    def test_discrete_zeros_are_hit_with_the_default_config(self, text, seed):
        W = parse_signsets_text(text.replace("; ", "\n"))
        p = Problem(SignSets(W), Subspace.full(2))
        w = falsify(p, OracleConfig(seed=seed))
        assert w is not None
        assert W.contains(w.member.matrix)
        assert all(x == 0 for x in w.member.matrix.apply(w.z))
        assert any(x != 0 for x in w.z)

    def test_composed_problem_hit(self):
        N = M([1, -1], [-1, 1])
        B = M([1, 1], [1, 0])
        S = Subspace.from_image(RationalMatrix(2, 1, [[1], [-1]]))
        p = Problem(Scaled(B), S, left=N)
        w = falsify(p, OracleConfig(trials=4000, seed=5))
        if w is not None:  # measure-zero target: a hit must still be exact
            folded = w.member.matrix
            assert all(x == 0 for x in folded.apply(w.z))
            assert S.contains(w.z)

    def test_zero_dimensional_subspace(self):
        S = Subspace.from_image(RationalMatrix(2, 0, [[], []]))
        p = Problem(Scaled(M([1, 1], [1, 1])), S)
        assert falsify(p, OracleConfig(trials=10, seed=0)) is None


class TestOracleAgainstVerdicts:
    def test_not_injective_verdicts_are_confirmed(self):
        cases = []
        D1 = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        cases.append(Problem(Interval(D1), Subspace.full(2)))
        cases.append(Problem(Scaled(M([1, 1], [1, 1])), Subspace.full(2)))
        for p in cases:
            verdict = check_injectivity(p)
            assert verdict.status is Status.NOT_INJECTIVE
            w = falsify(p, OracleConfig(trials=4000, seed=11))
            assert w is not None

    def test_injective_verdicts_survive(self):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        cases = [
            Problem(Scaled(M([1, 1], [2, 1])), Subspace.full(2)),
            Problem(Interval(D), Subspace.full(2)),
            Problem(SignSets(parse_signsets_text("+ 0\n+ +")), Subspace.full(2)),
        ]
        for p in cases:
            verdict = check_injectivity(p)
            assert verdict.status is Status.INJECTIVE
            assert falsify(p, OracleConfig(trials=4000, seed=13)) is None


def square_grid(cls, S):
    """The falsifier's compiled grid of [Z; cls] for a square augmented view."""
    view = symbolic_view(_hull(Augmented(S.kernel_rep(), cls)))
    assert view.rows == view.cols == S.n
    return _CompiledGrid(view)


_INTERVAL_TOKENS = ("{0}", "{1}", "{-2}", "(0,inf)", "(-inf,0)", "[-1,2]", "[1,3]",
                    "(-inf,inf)")
_SIGN_TOKENS = ("+", "-", "0", "0+", "-0", "-+")


def audit_shaped_classes(rng: random.Random):
    """(class, S) pairs shaped like the falsify_audit pool, every augmented
    view square: n x n Interval, sign sets, pattern and Scaled on the full
    space, Scaled behind a left matrix, and (n-1) x n Scaled on a plane."""
    def ints(rows, cols):
        return M(*[[0 if rng.random() < 0.25 else rng.randint(-2, 2) for _ in range(cols)]
                   for _ in range(rows)])

    def grid(tokens, n):
        return "\n".join(" ".join(rng.choice(tokens) for _ in range(n)) for _ in range(n))

    for n in (2, 3):
        full = Subspace.full(n)
        yield Interval(parse_interval_box_text(grid(_INTERVAL_TOKENS, n))), full
        yield SignSets(parse_signsets_text(grid(_SIGN_TOKENS, n))), full
        yield SignPattern(tuple(tuple(rng.choice((1, -1, 0)) for _ in range(n))
                                for _ in range(n))), full
        yield Scaled(ints(n, n)), full
        yield Product(ints(n, n + 1), Scaled(ints(n + 1, n))), full
        yield Scaled(ints(n - 1, n)), Subspace.from_kernel_rep(M([1] * n))


def fractional_classes(rng: random.Random):
    """(class, S) pairs whose square augmented views have coefficients with
    denominators other than 1, so rows get different int scales, and
    products whose row-scaling atoms span several rows of the view."""
    def fracs(rows, cols):
        return M(*[[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(cols)]
                   for _ in range(rows)])

    tokens = ("{1/2}", "{-2/3}", "{5/3}", "[1/3,5/2]", "(0,inf)", "(-inf,inf)", "(-1/2,7/3)")
    for n in (2, 3):
        full = Subspace.full(n)
        yield Scaled(fracs(n, n)), full
        yield Product(fracs(n, n + 1), Scaled(fracs(n + 1, n))), full
        yield Product(Scaled(fracs(n, n)), Scaled(fracs(n, n))), full
        yield Interval(parse_interval_box_text("\n".join(
            " ".join(rng.choice(tokens) for _ in range(n)) for _ in range(n)))), full
        yield Scaled(fracs(n - 1, n)), Subspace.from_kernel_rep(M([F(1, 2), F(-2, 3), F(3, 4)][:n]))


class TestRootSolve:
    def test_matches_the_finite_difference_repair(self):
        rng = random.Random(0)
        nprng = np.random.default_rng(0)
        for family in (audit_shaped_classes, fractional_classes):
            outcomes = {"none": 0, "singular": 0, "moved": 0}
            for _ in range(6):
                for cls, S in family(rng):
                    grid = square_grid(cls, S)
                    if not grid.names:
                        continue
                    for sample in grid.sample(nprng, 8):
                        # snapping to halves also lands on singular members
                        # and on atoms of slope 0
                        for den in (2, 10 ** 6):
                            point = grid.snap(sample, den)
                            if point is None:
                                continue
                            assignment = grid.assignment(point)
                            got = _root_solve(grid, point)
                            want = finite_difference_root_solve(grid, assignment)
                            assert (got and got.to_payload()) == (want and want.to_payload()), (
                                cls.describe(), assignment)
                            if got is None:
                                outcomes["none"] += 1
                            elif got.matrix == grid.view.build_member(assignment).matrix:
                                outcomes["singular"] += 1
                            else:
                                outcomes["moved"] += 1
            assert all(outcomes.values()), (family.__name__, outcomes)

    def test_atom_without_slope_is_skipped(self):
        # det = v2, so v1 has slope 0 and the root moves v2 to 0
        D = parse_interval_box_text("{1} (0,1)\n{0} (-1,1)")
        grid = square_grid(Interval(D), Subspace.full(2))
        assignment = {"v1": F(1, 2), "v2": F(1, 3)}
        got = _root_solve(grid, ((1, 2), (1, 3)))
        assert got.matrix == M([1, F(1, 2)], [0, 0])
        assert got.to_payload() == finite_difference_root_solve(grid, assignment).to_payload()


class TestSnap:
    ENTRIES = [parse_interval_token(t) for t in (
        "(0,inf)", "[0,inf)", "(-inf,0)", "(-inf,inf)", "[-1,2]", "(-1,2)", "(1/3,5/2]",
        "[1/3,5/2)", "(-inf,0)u(0,inf)", "(-2,0)u(0,5]", "[-1/7,0)u(0,1/7]")]

    @staticmethod
    def floats():
        rng = random.Random(5)
        xs = [0.0, -0.0, 0.5, -0.25, 3.0, 2.0 ** -20, -(2.0 ** 40), 1 / 3, -1 / 7, 1 / 7, 2.5,
              -1.0, 2.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
              0.1, 3.141592653589793, 1e-7, -1e-6]
        for _ in range(400):
            xs.append(rng.uniform(-3, 3) * 10.0 ** rng.randint(-9, 9))
        return xs

    def test_limit_denominator_matches_fraction(self):
        for den in (1, 2, 7, 10 ** 6):
            for x in self.floats():
                f = Fraction(x).limit_denominator(den)
                assert _limit_denominator(*x.as_integer_ratio(), den) == (f.numerator, f.denominator), (x, den)

    def test_snap_matches_fraction_then_contains(self):
        nudged = 0
        for den in (1, 2, 10 ** 6):
            for e in self.ENTRIES:
                for x in self.floats():
                    got = _snap_into(e, x, den)
                    f = Fraction(x).limit_denominator(den)
                    if e.contains(f):
                        assert got == (f.numerator, f.denominator), (str(e), x, den)
                    else:
                        nudged += 1
                        assert e.contains(F(*got)), (str(e), x, den)
        assert nudged

    def test_nonfinite_floats_snap_to_none(self):
        D = parse_interval_box_text("(0,inf) (-inf,inf)\n[-1,2] (-1,0)u(0,1)")
        grid = square_grid(Interval(D), Subspace.full(2))
        assert grid.snap(np.array([0.5, -3.0, 1.25, 0.75]), 10 ** 6) == (
            (1, 2), (-3, 1), (5, 4), (3, 4))
        for bad in (float("inf"), float("-inf"), float("nan")):
            assert grid.snap(np.array([0.5, bad, 1.25, 0.75]), 10 ** 6) is None


class TestRootSolveWork:
    @staticmethod
    def count_calls(monkeypatch):
        calls = {"_eliminate": 0, "determinant": 0}

        def counting(name):
            inner = getattr(injcheck.oracle, name)

            def counted(*args):
                calls[name] += 1
                return inner(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(injcheck.oracle, name, counting(name))
        return calls

    def test_one_elimination_and_no_determinant_without_a_root(self, monkeypatch):
        cls = Scaled(M([1, 1], [2, 1]))
        assert check_injectivity(Problem(cls, Subspace.full(2))).status is Status.INJECTIVE
        grid = square_grid(cls, Subspace.full(2))
        point = tuple((k + 2, 3) for k in range(len(grid.names)))
        calls = self.count_calls(monkeypatch)
        assert _root_solve(grid, point) is None
        assert calls == {"_eliminate": 1, "determinant": 0}

    def test_one_more_determinant_at_an_in_domain_root(self, monkeypatch):
        # det = v1 - 1, zero at v1 = 1 inside (-inf, inf)
        D = parse_interval_box_text("(-inf,inf) {1}\n{1} {1}")
        grid = square_grid(Interval(D), Subspace.full(2))
        calls = self.count_calls(monkeypatch)
        member = _root_solve(grid, ((3, 1),))
        assert member.matrix == M([1, 1], [1, 1])
        assert calls == {"_eliminate": 1, "determinant": 1}
