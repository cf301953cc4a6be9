import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from injcheck.classes import (
    Augmented,
    Interval,
    IntervalBox,
    IntervalEntry,
    Member,
    Poly,
    Product,
    Scaled,
    SignPattern,
    SignSetMatrix,
    SignSets,
    UnsupportedClassError,
    augment_with_kernel_rep,
    class_contains,
    d_of_signsets,
    format_interval_box_text,
    format_signsets_text,
    interval_hull,
    monomial_text,
    parse_interval_box_text,
    parse_interval_token,
    parse_signsets_text,
    symbolic_view,
)
from injcheck.injectivity import Problem, check_injectivity, verify_certificate
from injcheck.limits import CapExceeded
from injcheck.linalg import RationalMatrix, Subspace

from oracles import ALL_SIGN_SETS, enumerate_patterns, pattern_count

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


class TestIntervalEntry:
    def test_point(self):
        e = IntervalEntry.point(F(3, 2))
        assert e.is_point and e.contains(F(3, 2)) and not e.contains(1)

    def test_open_excludes_endpoints(self):
        e = IntervalEntry.open(0, 1)
        assert e.contains(F(1, 2))
        assert not e.contains(0) and not e.contains(1)

    def test_closed_includes_endpoints(self):
        e = IntervalEntry.closed(0, 1)
        assert e.contains(0) and e.contains(1)

    def test_punctured(self):
        e = IntervalEntry(F(-1), F(1), True, True, punctured=True)
        assert e.contains(F(1, 2)) and e.contains(F(-1, 2))
        assert not e.contains(0)

    def test_infinite_endpoints_must_be_open(self):
        with pytest.raises(ValueError):
            IntervalEntry(None, F(1), False, True, False)

    def test_degenerate_closed_point_ok(self):
        e = IntervalEntry(F(2), F(2), False, False, False)
        assert e.is_point

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalEntry(F(1), F(0), False, False, False)
        with pytest.raises(ValueError):
            IntervalEntry(F(1), F(1), True, False, False)

    def test_sign_set(self):
        assert IntervalEntry.positive().sign_set() == frozenset({1})
        assert IntervalEntry.open(-1, 1).sign_set() == frozenset({-1, 0, 1})
        assert IntervalEntry.punctured_line().sign_set() == frozenset({-1, 1})
        assert IntervalEntry.point(0).sign_set() == frozenset({0})

    def test_pick_point_is_member(self):
        entries = [
            IntervalEntry.open(0, 1),
            IntervalEntry.closed(-2, -1),
            IntervalEntry.positive(),
            IntervalEntry.negative(),
            IntervalEntry.punctured_line(),
            IntervalEntry(F(-1), F(2), True, False, True),
            IntervalEntry(None, F(-3), True, True, False),
        ]
        for e in entries:
            assert e.contains(e.pick_point()), str(e)


class TestIntervalTokens:
    def test_round_trips(self):
        tokens = ["{1}", "{-3/2}", "[0,1]", "(0,1)", "[1/2,2)", "(-inf,0)",
                  "(0,inf)", "(-inf,inf)", "(-1,0)u(0,2)", "(-inf,0)u(0,inf)"]
        for tok in tokens:
            e = parse_interval_token(tok)
            assert parse_interval_token(str(e)) == e, tok

    def test_punctured_must_meet_at_zero(self):
        with pytest.raises(ValueError):
            parse_interval_token("(-1,1)u(2,3)")

    @pytest.mark.parametrize("tok", ["{1/0}", "[0,1/0]"])
    def test_zero_denominator_is_a_value_error(self, tok):
        with pytest.raises(ValueError, match="bad rational literal '1/0'"):
            parse_interval_token(tok)

    def test_box_text_round_trip(self):
        text = "{1} (0,1)\n[2,143/50] (-inf,0)\n"
        D = parse_interval_box_text(text)
        assert parse_interval_box_text(format_interval_box_text(D)) == D

    def test_box_contains(self):
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")
        assert D.contains(M([F(1, 2), 0], [0, 1]))
        assert not D.contains(M([1, 0], [0, 1]))  # 1 is outside (0,1)


class TestSignSetMatrix:
    def test_parse_and_format(self):
        W = parse_signsets_text("+ -0\n* 0+")
        assert W.at(0, 1) == frozenset({-1, 0})
        assert parse_signsets_text(format_signsets_text(W)) == W

    def test_pattern_detection(self):
        assert parse_signsets_text("+ 0\n- +").is_pattern
        assert not parse_signsets_text("+ 0+\n- +").is_pattern

    def test_pattern_count(self):
        W = parse_signsets_text("0+ -+\n* 0")
        assert pattern_count(W) == 2 * 2 * 3 * 1

    def test_contains(self):
        W = parse_signsets_text("+ -0")
        assert W.contains(M([3, 0]))
        assert W.contains(M([F(1, 7), -2]))
        assert not W.contains(M([-1, 0]))


class TestSignSetIntervalBridge:
    def test_d_of_signsets_table(self):
        W = SignSetMatrix((tuple(ALL_SIGN_SETS),))
        D = d_of_signsets(W)
        texts = [str(D.at(0, j)) for j in range(7)]
        assert texts == ["{0}", "(-inf,0)", "(0,inf)", "(-inf,0]",
                         "[0,inf)", "(-inf,0)u(0,inf)", "(-inf,inf)"]

    def test_round_trip_through_boxes(self):
        W = parse_signsets_text("+ -0 *\n-+ 0 0+")
        D = d_of_signsets(W)
        assert tuple(tuple(e.sign_set() for e in row) for row in D.entries) == W.entries


class TestEnumeratePatterns:
    def test_counts_and_order(self):
        W = parse_signsets_text("0+ -+")
        pats = enumerate_patterns(W)
        assert pats == [
            ((0, -1),), ((0, 1),), ((1, -1),), ((1, 1),)]

    def test_each_pattern_refines(self):
        W = parse_signsets_text("* 0+\n-0 +")
        for p in enumerate_patterns(W):
            for i in range(2):
                for j in range(2):
                    assert p[i][j] in W.at(i, j)

    def test_cap_reports_exact_count(self):
        W = parse_signsets_text("* * * * * *")
        with pytest.raises(CapExceeded) as err:
            enumerate_patterns(W, cap=100)
        assert err.value.needed == 3 ** 6


class TestMembership:
    def test_scaled_positive_recovery(self):
        B = M([1, -1], [2, 1])
        cls = Scaled(B)
        inner = M([F(1, 2), -3], [F(4, 3), 2])
        # kappa = (1/2, 2/3), lambda = (1, 3): entries kappa_i B_ij lambda_j
        target = M([F(1, 2), F(-3, 2)], [F(4, 3), 2])
        assert class_contains(cls, target)
        assert not class_contains(cls, M([1, 1], [2, 1]))  # sign broken
        assert not class_contains(cls, M([1, -1], [2, 2]))  # ratios inconsistent
        del inner

    def test_scaled_zero_column_isolated(self):
        cls = Scaled(M([1, 0], [0, 2]))
        assert class_contains(cls, M([5, 0], [0, F(1, 3)]))

    def test_pattern_and_signsets(self):
        assert class_contains(SignPattern(((1, 0), (-1, 1))), M([2, 0], [-1, 7]))
        assert not class_contains(SignPattern(((1, 0), (-1, 1))), M([2, 0], [1, 7]))
        W = parse_signsets_text("0+ -")
        assert class_contains(SignSets(W), M([0, -3]))

    def test_interval(self):
        D = parse_interval_box_text("(0,1) {0}")
        assert class_contains(Interval(D), M([F(2, 3), 0]))
        assert not class_contains(Interval(D), M([1, 0]))

    def test_product_needs_evidence(self):
        cls = Product(SignPattern(((1,),)), Scaled(M([2])))
        with pytest.raises(UnsupportedClassError):
            class_contains(cls, M([6]))
        lm = Member(M([3]), "pattern")
        rm = Member(M([2]), "scaled", kappa=(F(1),), lam=(F(1),))
        assert class_contains(cls, M([6]), Member(M([6]), "product", factors=(lm, rm)))

    def test_augmented(self):
        S = Subspace.from_kernel_rep(M([1, -1]))
        aug = augment_with_kernel_rep(S, Scaled(M([1, 1])))
        mm = M([1, -1], [2, 2])
        ev = Member(mm, "augmented", factors=(
            Member(M([1, -1]), "matrix"),
            Member(M([2, 2]), "scaled", kappa=(F(2),), lam=(F(1), F(1)))))
        assert class_contains(aug, mm, ev)


class TestPoly:
    def test_arithmetic(self):
        x = Poly.atom("x")
        y = Poly.atom("y")
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p == q

    def test_evaluate(self):
        p = Poly.atom("a", 2) * Poly.atom("b") + Poly.const(5)
        assert p.evaluate({"a": F(3), "b": F(1, 2)}) == 8

    def test_split_affine(self):
        p = Poly.atom("t", 3) * Poly.atom("u") + Poly.atom("u", -1) + Poly.const(2)
        lin, const = p.split("t")
        assert lin.evaluate({"u": F(1)}) == 3
        assert const.evaluate({"u": F(1)}) == 1

    def test_substitute_any_degree(self):
        p = Poly.atom("x") * Poly.atom("x") + Poly.atom("x")  # x^2 + x
        assert p.substitute({"x": F(3)}).const_value() == 12

    def test_multilinear_flag(self):
        assert (Poly.atom("x") * Poly.atom("y")).is_multilinear()
        assert not (Poly.atom("x") * Poly.atom("x")).is_multilinear()

    def test_text(self):
        p = Poly.atom("k2") * Poly.atom("k10")
        assert monomial_text(next(iter(p.terms))) == "k2*k10"

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_eval_is_ring_hom(self, a, b, c):
        x, y = Poly.atom("x"), Poly.atom("y")
        p = x * y + Poly.const(c)
        q = x - y
        env = {"x": F(a), "y": F(b)}
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)


class TestSymbolicViews:
    def test_scaled_grid(self):
        view = symbolic_view(Scaled(M([1, -1], [0, 2])))
        assert str(view.grid[0][0]) in ("k1*l1", "l1*k1")
        assert view.grid[1][0].is_zero()
        assert set(view.atoms) == {"k1", "k2", "l1", "l2"}

    def test_pattern_grid_skips_zeros(self):
        view = symbolic_view(SignPattern(((1, 0), (-1, 1))))
        assert set(view.atoms) == {"m1", "m2", "m3"}
        assert view.grid[0][1].is_zero()

    def test_interval_points_are_constants(self):
        D = parse_interval_box_text("{1} (0,1)\n(2,3) {0}")
        view = symbolic_view(Interval(D))
        assert view.grid[0][0].is_const() and view.grid[0][0].const_value() == 1
        assert set(view.atoms) == {"v1", "v2"}

    def test_left_matrix_product_grid(self):
        # two-by-four left matrix over a diagonal-ish interval box
        A = M([-1, 0, 0, 1], [0, 1, -1, 0])
        D = parse_interval_box_text("{1} {0}\n(0,1) {0}\n{0} {1}\n{0} (0,1)")
        view = symbolic_view(Product(A, Interval(D)))
        assert view.rows == 2 and view.cols == 2
        assert view.grid[0][0].const_value() == -1
        assert str(view.grid[0][1]) == "v2"
        assert str(view.grid[1][0]) == "v1"
        assert view.grid[1][1].const_value() == -1

    def test_class_product_drops_inner_row_scalings(self):
        W = parse_signsets_text("+ -\n+ +")
        B = M([1, 1, 0], [0, 0, 1])
        view = symbolic_view(Product(SignSets(W), Scaled(B)))
        assert not any(a.startswith("k") for a in view.atoms)
        assert any(a.startswith("l") for a in view.atoms)
        assert any(a.startswith("m") for a in view.atoms)

    def test_cone_box_left_factor_drops_inner_row_scalings(self):
        # the hull of a multi-sign sign set is a box of cones, which absorbs
        # positive column scalings just as the sign set does
        W = parse_signsets_text("0+ + -\n+ -0 +\n- + 0+")
        cls = Product(SignSets(W), Scaled(M([1, 2, 0], [0, 1, 1], [1, 0, 3])))
        view = symbolic_view(interval_hull(cls))
        assert sorted(view.atoms) == ["l1", "l2", "l3"] + [f"v{k}" for k in range(1, 10)]
        problem = Problem(cls, Subspace.full(3))
        verdict = check_injectivity(problem, route="det")
        assert verdict.diagnostics["det_over"].startswith("interval hull ")
        assert verify_certificate(verdict, problem)

    def test_box_with_a_nonzero_end_keeps_inner_row_scalings(self):
        D = parse_interval_box_text("[0,inf) (0,1)\n{0} (-inf,inf)")
        view = symbolic_view(Product(Interval(D), Scaled(M([1, 1], [2, 1]))))
        assert {"k1", "k2"} <= set(view.atoms)

    def test_plain_scaled_keeps_row_scalings(self):
        view = symbolic_view(Scaled(M([1, 1], [2, 1])))
        assert any(a.startswith("k") for a in view.atoms)

    def test_multi_sign_sets_refuse_symbolic_view(self):
        with pytest.raises(UnsupportedClassError):
            symbolic_view(SignSets(parse_signsets_text("0+ -")))

    def test_builder_validates_domains(self):
        view = symbolic_view(Interval(parse_interval_box_text("(0,1)")))
        with pytest.raises(ValueError):
            view.build_member({"v1": F(2)})
        m = view.build_member({"v1": F(1, 3)})
        assert m.matrix.at(0, 0) == F(1, 3)

    def test_member_matches_grid_evaluation(self):
        rng = random.Random(9)
        W = parse_signsets_text("+ -\n0 +")
        B = M([1, 2], [0, 1])
        classes = [
            Scaled(B),
            SignPattern(((1, -1), (0, 1))),
            Interval(parse_interval_box_text("(0,2) {1}\n[1,3] (-1,0)")),
            Product(SignSets(W), Scaled(B)),
            Product(Interval(parse_interval_box_text("[0,inf) (0,inf)\n{0} (0,inf)")),
                    Scaled(B)),
            Product(M([1, -1]), Scaled(B)),
        ]
        for cls in classes:
            view = symbolic_view(cls)
            for _ in range(5):
                assignment = {}
                for name, info in view.atoms.items():
                    e = info.domain
                    if e.lower is not None and e.upper is not None:
                        val = e.lower + (e.upper - e.lower) * F(rng.randint(1, 7), 8)
                    else:
                        val = F(rng.randint(1, 9), rng.randint(1, 9))
                    assignment[name] = val
                member = view.build_member(assignment)
                for i in range(view.rows):
                    for j in range(view.cols):
                        assert member.matrix.at(i, j) == \
                            view.grid[i][j].evaluate(assignment)


class TestAugmentShape:
    def test_augment_with_kernel_rep(self):
        S = Subspace.from_kernel_rep(M([1, -1, 1]))
        aug = augment_with_kernel_rep(S, Scaled(M([1, 0, 1], [1, 1, 0])))
        assert aug.rows == 3 and aug.cols == 3
        assert aug.Z == S.kernel_rep()

    def test_dimension_mismatch(self):
        S = Subspace.full(2)
        with pytest.raises(ValueError):
            augment_with_kernel_rep(S, Scaled(M([1, 1, 1])))
