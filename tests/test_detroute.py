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
    monomial_text,
    parse_interval_box_text,
    parse_signsets_text,
    symbolic_view,
)
from injcheck.detroute import (
    DetSign,
    _build_table,
    _table_zero,
    det_sign_analysis,
    symbolic_determinant,
)
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
            _table_zero(P, _build_table(P))

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
        assert not analysis.box.compactified
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
        assert analysis.box.compactified
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
        for _ in range(30):
            rows = []
            for _i in range(2):
                cells = []
                for _j in range(2):
                    lo = F(rng.randint(-2, 1))
                    hi = lo + F(rng.randint(1, 3))
                    cells.append(f"[{lo},{hi}]")
                rows.append(" ".join(cells))
            D = parse_interval_box_text("\n".join(rows))
            analysis = det_sign_analysis(Interval(D))
            if analysis.sign is DetSign.MIXED:
                found += 1
                z = analysis.zero_assignment
                assert z is not None
                assert analysis.poly.evaluate(z) == 0
                for name, value in z.items():
                    assert analysis.view.atoms[name].domain.contains(value)
            elif analysis.sign in (DetSign.POS, DetSign.NEG):
                want = 1 if analysis.sign is DetSign.POS else -1
                for _ in range(10):
                    env = {a: _point_inside(analysis.view.atoms[a].domain, rng)
                           for a in analysis.view.atoms}
                    value = analysis.poly.evaluate(env)
                    assert (value > 0) == (want > 0) and value != 0
        assert found >= 5  # the sample must actually exercise the witness path


def _point_inside(entry, rng):
    lo = entry.lower if entry.lower is not None else F(-5)
    hi = entry.upper if entry.upper is not None else F(5)
    if lo == hi:
        return lo
    t = F(rng.randint(1, 15), 16)
    return lo + (hi - lo) * t


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


class TestDeterminism:
    def test_identical_payload_across_runs(self):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        a = det_sign_analysis(Interval(D)).certificate_payload()
        b = det_sign_analysis(Interval(D)).certificate_payload()
        assert a == b

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_sign_analysis(Scaled(M([1, 1, 1])))
