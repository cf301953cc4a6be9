import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from injcheck.classes import (
    Interval,
    Product,
    Scaled,
    SignPattern,
    SignSets,
    augment_with_kernel_rep,
    interval_hull,
    parse_interval_box_text,
    parse_signsets_text,
)
from injcheck.detroute import DetSign, det_sign_analysis
from injcheck.injectivity import (
    Problem,
    Route,
    SingularWitness,
    Status,
    Verdict,
    build_witness,
    check_injectivity,
    lift_monomial_witness,
    verify_certificate,
)
from injcheck.limits import DEFAULT_CAPS
from injcheck.linalg import RationalMatrix, Subspace, kernel_basis

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


def line_span(*coords):
    return Subspace.from_image(RationalMatrix(len(coords), 1, [[F(c)] for c in coords]))


class TestProblemValidation:
    def test_class_width_must_match_ambient_dim(self):
        with pytest.raises(ValueError):
            Problem(Scaled(M([1, 1])), Subspace.full(3))

    def test_left_matrix_width_must_match_class_rows(self):
        with pytest.raises(ValueError):
            Problem(Scaled(M([1, 1], [2, 1])), Subspace.full(2), left=M([1, 1, 1]))

    def test_zero_subspace_is_trivially_injective(self):
        S = Subspace.from_image(RationalMatrix(2, 0, [[], []]))
        verdict = check_injectivity(Problem(Scaled(M([1, 1], [1, 1])), S))
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.TRIVIAL
        assert verify_certificate(verdict, Problem(Scaled(M([1, 1], [1, 1])), S))


class TestSquareDispatch:
    def test_scaled_negative_determinant(self):
        p = Problem(Scaled(M([1, 1], [2, 1])), Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.DET
        assert verdict.certificate.kind == "determinant"
        assert verdict.diagnostics["det_sign"] == "NEG"
        assert verify_certificate(verdict, p)

    def test_open_box_full_plane_not_injective(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verdict.method is Route.DET
        w = verdict.certificate
        assert isinstance(w, SingularWitness)
        assert D.contains(w.member.matrix)
        assert all(x == 0 for x in w.member.matrix.apply(w.z))
        assert verify_certificate(verdict, p)

    def test_open_box_on_diagonal_injective(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), line_span(1, 1))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.SIGN
        assert verdict.certificate.kind == "sign-sweep"
        assert verify_certificate(verdict, p)

    def test_interval_with_point_entries(self):
        D = parse_interval_box_text("{1} {0}\n(0,inf) (0,inf)")
        verdict = check_injectivity(Problem(Interval(D), Subspace.full(2)))
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.DET

    def test_triangular_pattern(self):
        p = Problem(SignSets(parse_signsets_text("+ 0\n+ +")), Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.DET

    def test_closed_box_negative_determinant(self):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        p = Problem(Interval(D), Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        cert = verdict.certificate.to_payload()
        assert cert["data"]["box"]["max_value"] == "-427/1000"

    def test_numeric_head_over_unit_box(self):
        A = M([-1, 0, 0, 1], [0, 1, -1, 0])
        D = parse_interval_box_text("{1} {0}\n(0,1) {0}\n{0} {1}\n{0} (0,1)")
        p = Problem(Product(A, Interval(D)), Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.DET
        assert verdict.certificate.payload["box"]["min_at_excluded_vertex_only"]
        assert verify_certificate(verdict, p)

    def test_mixed_table_resolved_by_table_zero(self):
        p = Problem(SignSets(parse_signsets_text("+ + -\n+ + +")),
                    Subspace.from_kernel_rep(M([1, -1, 1])))
        verdict = check_injectivity(p)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verdict.method is Route.DET
        assert verdict.diagnostics["det_sign"] == "MIXED"
        w = verdict.certificate
        assert w.member.matrix == M([F(1, 2), 2, F(-1, 2)], [2, F(7, 4), F(1, 2)])
        assert w.z == (F(-3, 5), F(2, 5), F(1))
        assert verify_certificate(verdict, p)

    def test_two_factor_product_table(self):
        cls = Product(SignSets(parse_signsets_text("+ -\n+ +")),
                      Scaled(M([1, 1, 0], [0, 0, 1])))
        p = Problem(cls, Subspace.from_kernel_rep(M([1, -1, 1])))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.DET
        monomials = {m["monomial"] for m in verdict.certificate.payload["monomials"]}
        assert monomials == {"l1*l3*m1*m4", "l1*l3*m2*m3",
                             "l2*l3*m1*m4", "l2*l3*m2*m3"}


class TestNonSquareDispatch:
    def test_left_matrix_full_plane(self):
        A = M([1, -1])
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")
        p = Problem(Interval(D), Subspace.full(2), left=A)
        verdict = check_injectivity(p)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verdict.method is Route.SIGN
        w = verdict.certificate
        assert w.member.matrix == M([F(1, 2), -1])
        assert w.z == (F(-2), F(-1))
        assert verify_certificate(verdict, p)

    def test_left_matrix_diagonal_coset(self):
        A = M([1, -1])
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")
        p = Problem(Interval(D), line_span(1, 1), left=A)
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verify_certificate(verdict, p)

    def test_composed_scaled_not_injective(self):
        # a feedback loop: the image difference lands in the kernel of the
        # stoichiometric factor
        N = M([1, -1], [-1, 1])
        B = M([1, 1], [1, 0])
        p = Problem(Scaled(B), line_span(1, -1), left=N)
        verdict = check_injectivity(p)
        assert verdict.status is Status.NOT_INJECTIVE
        w = verdict.certificate
        assert w.rho is not None
        assert w.monomial_lift is not None
        assert w.monomial_lift["max_residual"] <= 1e-9
        assert verify_certificate(verdict, p)

    def test_wide_pattern(self):
        p = Problem(SignSets(parse_signsets_text("+ + -\n+ + +")),
                    Subspace.from_kernel_rep(M([1, -1, 1])))
        # square (2 rows, dim 2); force the pure sign route as a cross-check
        verdict = check_injectivity(p, route="sign")
        assert verdict.status is Status.NOT_INJECTIVE
        assert verdict.method is Route.SIGN


class TestRouteForcing:
    def test_det_needs_square(self):
        A = M([1, -1])
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")
        p = Problem(Interval(D), Subspace.full(2), left=A)
        verdict = check_injectivity(p, route="det")
        assert verdict.status is Status.INCONCLUSIVE
        assert verdict.method is Route.DET
        assert "square" in verdict.diagnostics["reason"]

    def test_sign_unsupported_class(self):
        cls = Product(Interval(parse_interval_box_text("(0,1)")),
                      Interval(parse_interval_box_text("(0,1)")))
        p = Problem(cls, Subspace.full(1))
        verdict = check_injectivity(p, route="sign")
        assert verdict.status is Status.INCONCLUSIVE
        assert verdict.method is Route.SIGN

    def test_auto_without_any_route(self):
        # wide product of two interval factors: no square determinant, no
        # sign sweep, no hull to take
        cls = Product(Interval(parse_interval_box_text("(0,1)")),
                      Interval(parse_interval_box_text("(0,1) (0,1)")))
        p = Problem(cls, Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INCONCLUSIVE
        assert verdict.method is Route.NONE
        assert verify_certificate(verdict, p)

    def test_auto_square_interval_product_uses_det(self):
        cls = Product(Interval(parse_interval_box_text("(0,1)")),
                      Interval(parse_interval_box_text("(0,1)")))
        p = Problem(cls, Subspace.full(1))
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verdict.method is Route.DET

    def test_unknown_route_name(self):
        p = Problem(Scaled(M([1])), Subspace.full(1))
        with pytest.raises(ValueError):
            check_injectivity(p, route="guess")

    def test_multisign_sign_sets_falsified(self):
        # the pattern 0- kills (1, 0); the wide class has no determinant
        p = Problem(SignSets(parse_signsets_text("0+ -")), Subspace.full(2))
        verdict = check_injectivity(p)
        assert (verdict.status, verdict.method) == (Status.NOT_INJECTIVE, Route.SIGN)
        assert verify_certificate(verdict, p)
        verdict = check_injectivity(p, route="det")
        assert (verdict.status, verdict.method) == (Status.INCONCLUSIVE, Route.DET)
        assert "square" in verdict.diagnostics["reason"]

    def test_multisign_sign_sets_injective_by_the_hull(self):
        p = Problem(SignSets(parse_signsets_text("+ 0+\n0 +")), Subspace.full(2))
        assert check_injectivity(p).status is Status.INJECTIVE
        verdict = check_injectivity(p, route="det")
        assert (verdict.status, verdict.method) == (Status.INJECTIVE, Route.DET)
        assert verdict.diagnostics["det_over"] == "interval hull interval(2x2)"
        assert verify_certificate(verdict, p)

    def test_no_hull_without_multisign_entries(self):
        cls = Scaled(M([1, 1], [2, 1]))
        assert interval_hull(cls) is cls
        p = Problem(cls, Subspace.full(2))
        for route in ("auto", "det"):
            verdict = check_injectivity(p, route=route)
            assert (verdict.status, verdict.method) == (Status.INJECTIVE, Route.DET)
            assert "det_over" not in verdict.diagnostics

    def test_sign_cap_holds_after_a_cached_decision(self):
        S = Subspace.full(3)
        p = Problem(Scaled(M([1, 1, 1])), S)
        capped = DEFAULT_CAPS.with_overrides(sign_enum_dim=2)
        assert check_injectivity(p, caps=capped).status is Status.INCONCLUSIVE
        assert check_injectivity(p).status is Status.NOT_INJECTIVE
        assert check_injectivity(p, caps=capped).status is Status.INCONCLUSIVE


class TestMonomialLift:
    def test_lift_matches_difference_and_collides(self):
        rng = random.Random(77)
        done = 0
        while done < 30:
            r = rng.randint(1, 3)
            n = r + rng.randint(1, 2)
            B = M(*[[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)])
            K = kernel_basis(B)
            if K.cols == 0:
                continue
            coeffs = [F(rng.randint(-2, 2)) for _ in range(K.cols)]
            v = tuple(
                sum((K.at(i, k) * coeffs[k] for k in range(K.cols)), F(0))
                for i in range(n)
            )
            if all(x == 0 for x in v):
                continue
            w = tuple(x * F(rng.randint(1, 4), rng.randint(1, 4)) for x in v)
            x, y = lift_monomial_witness(B, v, w)
            assert all(c > 0 for c in x) and all(c > 0 for c in y)
            wmax = max(abs(float(c)) for c in w)
            assert max(abs((a - b) - float(c)) for a, b, c in zip(x, y, w)) \
                <= 1e-9 * max(wmax, 1.0)
            fx = [_power_image(B, i, x) for i in range(r)]
            fy = [_power_image(B, i, y) for i in range(r)]
            scale = max(max(abs(t) for t in fx), 1e-30)
            assert max(abs(a - b) for a, b in zip(fx, fy)) <= 1e-9 * scale
            done += 1

    def test_rejects_vector_outside_kernel(self):
        with pytest.raises(ValueError):
            lift_monomial_witness(M([1, 1]), (F(1), F(1)), (F(1), F(1)))

    def test_rejects_sign_mismatch(self):
        with pytest.raises(ValueError):
            lift_monomial_witness(M([1, 1]), (F(1), F(-1)), (F(1), F(1)))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            lift_monomial_witness(M([1, 1]), (F(0), F(0)), (F(0), F(0)))

    def test_lift_beyond_floats_says_so(self):
        # -10^999 overflows a float, and rescaled to max |v_i| = 1 the other
        # coordinate underflows to 0, where expm1 vanishes
        v = (F(2), F(-10 ** 999))
        with pytest.raises(ArithmeticError, match="does not fit in floats"):
            lift_monomial_witness(RationalMatrix(1, 2, [[10 ** 999, 2]]), v, v)


def _power_image(B, i, point):
    return math.prod(point[j] ** float(B.at(i, j)) for j in range(B.cols))


class TestWitnessAssembly:
    def test_build_witness_from_det_analysis(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), Subspace.full(2))
        aug = augment_with_kernel_rep(p.S, Interval(D))
        analysis = det_sign_analysis(aug)
        witness = build_witness(p, analysis)
        assert all(x == 0 for x in witness.member.matrix.apply(witness.z))

    def test_build_witness_rejects_positive_analysis(self):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        p = Problem(Interval(D), Subspace.full(2))
        analysis = det_sign_analysis(augment_with_kernel_rep(p.S, Interval(D)))
        with pytest.raises(ValueError):
            build_witness(p, analysis)

    def test_tampered_z_fails_verification(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), Subspace.full(2))
        verdict = check_injectivity(p)
        w = verdict.certificate
        bad = SingularWitness(w.member, (w.z[0] + 1, w.z[1]), w.tau, w.rho)
        assert not verify_certificate(Verdict(Status.NOT_INJECTIVE, Route.DET, bad), p)

    def test_tampered_member_fails_verification(self):
        D = parse_interval_box_text("(0,1) (0,1)\n(0,1) (0,1)")
        p = Problem(Interval(D), Subspace.full(2))
        verdict = check_injectivity(p)
        assert verdict.status is Status.NOT_INJECTIVE
        w = verdict.certificate
        outside = RationalMatrix(2, 2, [[F(5), F(5)], [F(5), F(5)]])
        bad = SingularWitness(
            type(w.member)(outside, w.member.kind), w.z, w.tau, w.rho)
        assert not verify_certificate(Verdict(Status.NOT_INJECTIVE, Route.DET, bad), p)

    def test_zero_z_fails_verification(self):
        p = Problem(Scaled(M([1, 1], [1, 1])), Subspace.full(2))
        verdict = check_injectivity(p)
        w = verdict.certificate
        bad = SingularWitness(w.member, (F(0), F(0)), None, None)
        assert not verify_certificate(Verdict(Status.NOT_INJECTIVE, Route.SIGN, bad), p)


class TestRouteAgreement:
    def test_det_and_sign_agree_on_random_square_instances(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(1, 3)
            if rng.random() < 0.5:
                B = M(*[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                cls = Scaled(B)
            else:
                cls = SignPattern(tuple(
                    tuple(rng.choice((-1, 0, 1)) for _ in range(n))
                    for _ in range(n)))
            p = Problem(cls, Subspace.full(n))
            det_verdict = check_injectivity(p, route="det")
            sign_verdict = check_injectivity(p, route="sign")
            assert det_verdict.status is sign_verdict.status, cls.describe()
            assert det_verdict.status in (Status.INJECTIVE, Status.NOT_INJECTIVE)


_SIGN_SET_TOKENS = ("+", "-", "0", "0+", "-0", "-+", "*")
_INTERVAL_TOKENS = ("{0}", "{1}", "{-2}", "(0,inf)", "(-inf,0)", "[-1,2]", "[1,3]", "(0,1)",
                    "(-inf,inf)")


def _grid(draw, tokens, rows, cols):
    return "\n".join(" ".join(draw(st.sampled_from(tokens)) for _ in range(cols))
                     for _ in range(rows))


def _ints(draw, rows, cols):
    return M(*[[draw(st.integers(-2, 2)) for _ in range(cols)] for _ in range(rows)])


@st.composite
def multisign_square_problems(draw):
    """A square problem whose class has a sign-set factor with an entry of
    several signs: SignSets, SignSets x Scaled or SignSets x Interval, with
    as many rows as dim S."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    W = parse_signsets_text(_grid(draw, _SIGN_SET_TOKENS, r, draw(st.integers(1, 3))))
    assume(not W.is_pattern)
    kind = draw(st.sampled_from(("signsets", "scaled", "interval")))
    if kind == "signsets":
        W = parse_signsets_text(_grid(draw, _SIGN_SET_TOKENS, r, n))
        assume(not W.is_pattern)
        cls = SignSets(W)
    elif kind == "scaled":
        cls = Product(SignSets(W), Scaled(_ints(draw, W.cols, n)))
    else:
        D = parse_interval_box_text(_grid(draw, _INTERVAL_TOKENS, W.cols, n))
        cls = Product(SignSets(W), Interval(D))
    S = Subspace.full(n) if r == n and draw(st.booleans()) else Subspace.from_image(
        _ints(draw, n, r))
    assume(S.dim == r)
    return Problem(cls, S)


class TestIntervalHull:
    @given(multisign_square_problems())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_hull_decides_as_the_sign_sets(self, p):
        hull = interval_hull(p.matrices)
        assert hull is not p.matrices
        on_hull = check_injectivity(Problem(hull, p.S))
        for route in ("auto", "det"):
            verdict = check_injectivity(p, route=route)
            assert verdict.status is on_hull.status, (route, p.matrices.describe())
            if "det_over" in verdict.diagnostics:
                assert verify_certificate(verdict, p)

    def test_forced_det_injective_verifies(self):
        # verify_certificate re-runs the det route, which must take the hull again
        p = Problem(Product(SignSets(parse_signsets_text("0+ +\n- 0+")),
                            Scaled(M([1, 0], [0, 1]))), Subspace.full(2))
        verdict = check_injectivity(p, route="det")
        assert (verdict.status, verdict.method) == (Status.INJECTIVE, Route.DET)
        assert verdict.diagnostics["det_over"].startswith("interval hull ")
        assert verify_certificate(verdict, p)

def _random_square_problem(rng):
    """A Scaled, SignPattern or SignSets x Scaled class with as many rows as
    dim S, on a random S."""
    n = rng.randint(2, 4)
    r = rng.randint(1, min(n, 3))
    kind = rng.randrange(3)
    if kind == 0:
        cls = Scaled(M(*[[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]))
    elif kind == 1:
        cls = SignPattern(tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(n))
                                for _ in range(r)))
    else:
        m = rng.randint(1, 3)
        W = "\n".join(" ".join(rng.choice("+-0") for _ in range(m)) for _ in range(r))
        B = M(*[[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
        cls = Product(SignSets(parse_signsets_text(W)), Scaled(B))
    basis = M(*[[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)])
    return Problem(cls, Subspace.from_image(basis))


class TestTableZeros:
    def test_every_mixed_table_has_a_positive_zero(self):
        rng = random.Random(20261018)
        mixed = 0
        for _ in range(300):
            p = _random_square_problem(rng)
            if p.S.dim != p.matrices.rows:
                continue
            analysis = det_sign_analysis(augment_with_kernel_rep(p.S, p.matrices))
            if analysis.sign is not DetSign.MIXED or analysis.kind != "monomial-table":
                continue
            mixed += 1
            zero = analysis.zero_assignment
            assert zero is not None and all(v > 0 for v in zero.values())
            assert analysis.poly.evaluate(zero) == 0
            verdict = check_injectivity(p)
            assert (verdict.status, verdict.method) == (Status.NOT_INJECTIVE, Route.DET)
            assert verify_certificate(verdict, p)
            sign = check_injectivity(p, route="sign")
            if sign.status is Status.INCONCLUSIVE:
                assert sign.diagnostics["reason"].startswith("no sign route")
            else:
                assert sign.status is Status.NOT_INJECTIVE, p.matrices.describe()
        assert mixed >= 60  # the sample must exercise the table walk


class TestDeterminism:
    def test_payload_stable_across_runs(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p = Problem(Interval(D), Subspace.full(2))
        a = check_injectivity(p).to_payload()
        b = check_injectivity(Problem(Interval(D), Subspace.full(2))).to_payload()
        assert a == b
