import math
import random
from fractions import Fraction

import pytest

from injcheck.classes import (
    Interval,
    Product,
    Scaled,
    SignPattern,
    SignSets,
    augment_with_kernel_rep,
    format_interval_box_text,
    monomial_text,
    parse_interval_box_text,
    parse_signsets_text,
    symbolic_view,
)
from injcheck.detroute import (
    DetSign,
    _walk_to_zero,
    det_sign_analysis,
    symbolic_determinant,
)
from injcheck.injectivity import Problem, Status, check_injectivity
from injcheck.limits import Caps, CapExceeded
from injcheck.linalg import RationalMatrix, Subspace, determinant
from injcheck.classes import Poly

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


def table_dict(analysis):
    return {monomial_text(m): c for m, c in analysis.table.terms}


class TestMonomialTables:
    def test_two_by_two_scaled_single_negative_term(self):
        analysis = det_sign_analysis(Scaled(M([1, 1], [2, 1])))
        assert analysis.sign is DetSign.NEG
        assert analysis.kind == "monomial-table"
        assert table_dict(analysis) == {"k1*k2*l1*l2": F(-1)}
        assert analysis.table.homogeneous
        assert analysis.table.distinct_supports

    def test_triangular_pattern_positive(self):
        analysis = det_sign_analysis(SignPattern(((1, 0), (1, 1))))
        assert analysis.sign is DetSign.POS
        assert table_dict(analysis) == {"m1*m3": F(1)}

    def test_full_pattern_mixed_has_a_zero(self):
        # the table alone is MIXED; the zero comes from the walk between
        # points where m1*m4 and m2*m3 dominate
        analysis = det_sign_analysis(SignPattern(((1, 1), (1, 1))))
        assert analysis.sign is DetSign.MIXED
        zero = analysis.zero_assignment
        assert zero == {"m1": F(1, 2), "m2": F(2), "m3": F(1, 2), "m4": F(2)}
        assert all(v > 0 for v in zero.values())
        assert analysis.poly.evaluate(zero) == 0
        assert table_dict(analysis) == {"m1*m4": F(1), "m2*m3": F(-1)}
        assert analysis.table.homogeneous and analysis.table.distinct_supports

    def test_table_zero_needs_a_multilinear_determinant(self):
        P = Poly.atom("m1") * Poly.atom("m1") - Poly.atom("m2")
        with pytest.raises(ArithmeticError, match="not multilinear"):
            _walk_to_zero(P, ["m1", "m2"], {"m1": F(2), "m2": F(1)}, {"m1": F(1), "m2": F(2)})

    def test_identically_zero_pattern(self):
        analysis = det_sign_analysis(SignPattern(((1, 1), (0, 0))))
        assert analysis.sign is DetSign.ZERO
        assert analysis.poly.is_zero()

    def test_scaled_sign_always_matches_base_determinant(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 3)
            B = M(*[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            analysis = det_sign_analysis(Scaled(B))
            d = determinant(B)
            if d > 0:
                assert analysis.sign is DetSign.POS
            elif d < 0:
                assert analysis.sign is DetSign.NEG
            else:
                assert analysis.sign is DetSign.ZERO

    def test_augmented_product_table(self):
        # one-dimensional coset direction stacked over a two-factor class
        S = Subspace.from_kernel_rep(M([1, -1, 1]))
        cls = Product(SignSets(parse_signsets_text("+ -\n+ +")),
                      Scaled(M([1, 1, 0], [0, 0, 1])))
        analysis = det_sign_analysis(augment_with_kernel_rep(S, cls))
        assert analysis.sign is DetSign.POS
        assert table_dict(analysis) == {
            "l1*l3*m1*m4": F(1),
            "l1*l3*m2*m3": F(1),
            "l2*l3*m1*m4": F(1),
            "l2*l3*m2*m3": F(1),
        }
        # row scalings of the inner factor are absorbed, none appear
        assert not any("k" in t for t in table_dict(analysis))


class TestBoxAnalysis:
    def test_closed_box_negative_with_exact_extremes(self):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        analysis = det_sign_analysis(Interval(D))
        assert analysis.sign is DetSign.NEG
        assert analysis.kind == "box"
        assert analysis.box.max_value == F(-427, 1000)
        assert analysis.box.min_value == F(-1073, 500)
        assert not analysis.box.max_excluded
        assert not analysis.box.min_excluded
        assert analysis.box.vertices_evaluated == 16

    def test_zero_only_at_excluded_vertex_is_positive(self):
        A = M([-1, 0, 0, 1], [0, 1, -1, 0])
        D = parse_interval_box_text("{1} {0}\n(0,1) {0}\n{0} {1}\n{0} (0,1)")
        analysis = det_sign_analysis(Product(A, Interval(D)))
        assert analysis.sign is DetSign.POS
        assert analysis.box.min_value == 0
        assert analysis.box.min_excluded
        assert analysis.box.max_value == 1
        assert analysis.box.max_excluded

    def test_zero_at_included_face_interior_is_caught(self):
        # det = v1*(1 - v2) on v1 in (0,1), v2 in [0,1]: the zero set is the
        # face v2 = 1, which touches no admissible vertex but is admissible
        # at interior v1.  A vertex-only exclusion test would wrongly pass it.
        A = M([1, 1, 0], [1, 0, 1])
        D = parse_interval_box_text("(0,1) {0}\n{0} [0,1]\n{0} {1}")
        analysis = det_sign_analysis(Product(A, Interval(D)))
        assert analysis.sign is DetSign.MIXED
        z = analysis.zero_assignment
        assert z is not None
        assert analysis.poly.evaluate(z) == 0
        for name, value in z.items():
            assert analysis.view.atoms[name].domain.contains(value)

    def test_open_positive_quadrant_mixed_with_witness(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        analysis = det_sign_analysis(Interval(D))
        assert analysis.sign is DetSign.MIXED
        assert analysis.kind == "monomial-table"
        z = analysis.zero_assignment
        assert analysis.poly.evaluate(z) == 0
        assert all(v > 0 for v in z.values())

    def test_positive_ray_entry(self):
        D = parse_interval_box_text("{1} {0}\n(0,inf) (0,inf)")
        analysis = det_sign_analysis(Interval(D))
        assert analysis.sign is DetSign.POS

    def test_punctured_line_is_nonzero(self):
        analysis = det_sign_analysis(Interval(parse_interval_box_text("(-inf,0)u(0,inf)")))
        assert analysis.sign is DetSign.NONZERO
        assert analysis.box.sub_boxes == 2

    def test_point_box_zero(self):
        D = parse_interval_box_text("{1} {2}\n{2} {4}")
        analysis = det_sign_analysis(Interval(D))
        assert analysis.sign is DetSign.MIXED or analysis.sign is DetSign.ZERO
        # a singular constant matrix admits the zero assignment trivially
        assert analysis.poly.evaluate(analysis.zero_assignment or {}) == 0

    def test_mixed_witnesses_are_exact_on_random_boxes(self):
        rng = random.Random(11)
        found = 0
        for k in range(200):
            n = rng.randint(1, 3)
            cls = Interval(_random_box(rng, n, n, TOKENS))
            if k % 4 == 0:  # a quarter behind positive scalings
                B = M(*[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                cls = Product(cls, Scaled(B))
            analysis = det_sign_analysis(cls)
            domains = {a: info.domain for a, info in analysis.view.atoms.items()}
            if analysis.sign is DetSign.MIXED:
                found += 1
                z = analysis.zero_assignment
                assert z is not None
                assert analysis.poly.evaluate(z) == 0
                for name, value in z.items():
                    assert domains[name].contains(value)
                continue
            for _ in range(10):
                value = analysis.poly.evaluate(_member(domains, rng))
                if analysis.sign is DetSign.POS:
                    assert value > 0
                elif analysis.sign is DetSign.NEG:
                    assert value < 0
                elif analysis.sign is DetSign.NONZERO:
                    assert value != 0
                else:
                    assert value == 0
        assert found >= 50  # the sample must actually exercise the witness path

    def test_box_certificates_are_in_entry_coordinates(self):
        # every box made of half-lines, with bounded entries and points
        # among them: vertex rows stay inside the closed entry domains, and
        # the stated extremes bound det at sampled members
        rng = random.Random(1212)
        unbounded = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            D = _random_box(rng, n, n, HALF_LINES * 3 + POINTS + BOUNDED)
            analysis = det_sign_analysis(Interval(D))
            if analysis.kind == "monomial-table":
                continue
            box = analysis.box
            domains = {a: info.domain for a, info in analysis.view.atoms.items()}
            for row in box.to_payload().get("vertices", []):
                for name, text in row["assignment"].items():
                    value, e = F(text), domains[name]
                    assert e.lower is None or value >= e.lower
                    assert e.upper is None or value <= e.upper
                fixed = {a: F(v) for a, v in row["assignment"].items()}
                assert row["value"] == str(analysis.poly.substitute(fixed))
            for _ in range(10):
                value = analysis.poly.evaluate(_member(domains, rng))
                assert box.min_value <= value <= box.max_value
            unbounded += box.min_value == -math.inf or box.max_value == math.inf
        assert unbounded >= 50

    @pytest.mark.parametrize("text, sign, value, extremes, excluded", [
        # det = v1 ranges over (-inf,-2]: unbounded below, -2 at the anchor
        ("(-inf,-2]", DetSign.NEG, "v1", ("-inf", "-2"), (True, False)),
        # det = v1*v2 with v1 >= 1 and v2 > 0 tends to 0 only as v2 does
        ("[1,inf) {1}\n{0} (0,inf)", DetSign.POS, "v1*v2", ("0", "inf"), (True, True)),
    ])
    def test_half_line_certificates_state_values_of_det(self, text, sign, value,
                                                         extremes, excluded):
        analysis = det_sign_analysis(Interval(parse_interval_box_text(text)))
        assert analysis.sign is sign
        payload = analysis.box.to_payload()
        assert (payload["min_value"], payload["max_value"]) == extremes
        assert (payload["min_at_excluded_vertex_only"],
                payload["max_at_excluded_vertex_only"]) == excluded
        # no bounded atom: one vertex row, det as a polynomial in the half-lines
        assert payload["vertices"] == [{"assignment": {}, "value": value, "excluded": False}]


# One token of every shape the box format has: points; bounded entries, open
# and closed; half-lines anchored at 0 and elsewhere, open and closed at the
# anchor; the whole line; punctured entries, bounded and unbounded.
POINTS = ("{0}", "{1}", "{-2}", "{1/2}")
BOUNDED = ("[0,1]", "(0,1)", "[-1,2)", "(-2,-1]", "[1,3]")
HALF_LINES = ("(0,inf)", "[0,inf)", "[1,inf)", "(-1,inf)",
              "(-inf,0)", "(-inf,0]", "(-inf,-2]", "(-inf,1)")
SPLIT = ("(-inf,inf)", "(-1,0)u(0,2)", "(-inf,0)u(0,inf)", "(-inf,0)u(0,1]")
TOKENS = POINTS + BOUNDED + HALF_LINES + SPLIT


def _random_box(rng, rows, cols, tokens):
    return parse_interval_box_text("\n".join(
        " ".join(rng.choice(tokens) for _ in range(cols)) for _ in range(rows)))


def _random_subspace(rng, n, dim):
    while True:
        basis = M(*[[rng.randint(-2, 2) for _ in range(dim)] for _ in range(n)])
        S = Subspace.from_image(basis)
        if S.dim == dim:
            return S


def _point_inside(entry, rng):
    """A random member of an entry domain, reaching up to 64 past a finite end
    on an unbounded side."""
    while True:
        reach = F(rng.choice((1, 4, 64)))
        lo = entry.lower if entry.lower is not None else min(entry.upper, 0) - reach \
            if entry.upper is not None else -reach
        hi = entry.upper if entry.upper is not None else max(entry.lower, 0) + reach \
            if entry.lower is not None else reach
        if lo == hi:
            return lo
        value = lo + (hi - lo) * F(rng.randint(0, 16), 16)
        if entry.contains(value):
            return value


def _member(domains, rng):
    return {a: _point_inside(e, rng) for a, e in domains.items()}


class TestRouteAgreement:
    def test_det_and_sign_routes_agree_on_random_boxes(self):
        # the sign sweep decides an interval class by exact LPs, independently
        # of the determinant; both must agree, and every determinant zero
        # must be exact and admissible
        rng = random.Random(3003)
        statuses = []
        for _ in range(300):
            n = rng.randint(1, 3)
            dim = n if rng.random() < 0.5 else rng.randint(1, n)
            S = Subspace.full(n) if dim == n else _random_subspace(rng, n, dim)
            D = _random_box(rng, dim, n, TOKENS)
            problem = Problem(Interval(D), S)
            via_det = check_injectivity(problem, route="det")
            via_sign = check_injectivity(problem, route="sign")
            assert via_det.status is via_sign.status, format_interval_box_text(D)
            assert via_det.status is not Status.INCONCLUSIVE
            statuses.append(via_det.status)
            analysis = det_sign_analysis(augment_with_kernel_rep(S, Interval(D)))
            if analysis.sign is DetSign.MIXED:
                z = analysis.zero_assignment
                assert analysis.poly.evaluate(z) == 0
                for name, value in z.items():
                    assert analysis.view.atoms[name].domain.contains(value)
        assert statuses.count(Status.INJECTIVE) >= 30
        assert statuses.count(Status.NOT_INJECTIVE) >= 100


class TestSymbolicDeterminant:
    def test_matches_rational_determinant_on_constants(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 4)
            A = M(*[[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
            grid = [[Poly.const(A.at(i, j)) for j in range(n)] for i in range(n)]
            assert symbolic_determinant(grid).const_value() == determinant(A)

    def test_term_cap(self):
        n = 5
        signs = tuple(tuple(1 for _ in range(n)) for _ in range(n))
        view = symbolic_view(SignPattern(signs))
        with pytest.raises(CapExceeded) as err:
            symbolic_determinant(view.grid, cap=50)
        assert err.value.cap_name == "monomials"

    def test_vertex_cap(self):
        D = parse_interval_box_text("(0,1) (0,1)\n(0,1) (0,1)")
        with pytest.raises(CapExceeded) as err:
            det_sign_analysis(Interval(D), Caps(vertices=8))
        assert err.value.cap_name == "vertices"


class TestHalfLineWork:
    """Deterministic work on boxes of half-lines: only bounded atoms are
    vertices, and a box of open positive half-lines is a monomial table."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_open_orthant_is_a_monomial_table(self, n):
        verdict = _decide_uniform_box("(0,inf)", n)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verdict.diagnostics["det_kind"] == "monomial-table"

    def test_whole_lines_take_one_vertex_per_sub_box(self):
        analysis = det_sign_analysis(Interval(_uniform_box("(-inf,inf)", 3)))
        assert analysis.sign is DetSign.MIXED
        assert (analysis.box.sub_boxes, analysis.box.vertices_evaluated) == (512, 512)
        assert _decide_uniform_box("(-inf,inf)", 3).status is Status.NOT_INJECTIVE

    @pytest.mark.parametrize("token", ["[0,inf)", "[1,inf)", "(-inf,0)"])
    def test_half_line_box_is_one_vertex(self, token):
        analysis = det_sign_analysis(Interval(_uniform_box(token, 3)))
        assert (analysis.box.sub_boxes, analysis.box.vertices_evaluated) == (1, 1)
        assert _decide_uniform_box(token, 3).status is Status.NOT_INJECTIVE

    def test_half_line_box_decides_under_one_vertex(self):
        D = parse_interval_box_text("[0,inf) (-inf,1]\n(0,inf) [2,inf)")
        verdict = check_injectivity(Problem(Interval(D), Subspace.full(2)),
                                    caps=Caps(vertices=1), route="det")
        assert verdict.status is Status.NOT_INJECTIVE


def _uniform_box(token, n):
    return parse_interval_box_text("\n".join(" ".join([token] * n) for _ in range(n)))


def _decide_uniform_box(token, n):
    problem = Problem(Interval(_uniform_box(token, n)), Subspace.full(n))
    return check_injectivity(problem, route="det")


class TestDeterminism:
    def test_identical_payload_across_runs(self):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        a = det_sign_analysis(Interval(D)).certificate_payload()
        b = det_sign_analysis(Interval(D)).certificate_payload()
        assert a == b

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_sign_analysis(Scaled(M([1, 1, 1])))
