"""Acceptance gate: the twelve guarantees this package ships with.

Each test prints one pass/fail line (visible with -s) and enforces its own
time budget: the fixed regressions must decide in under a second, the
property sweeps in under a minute.  The first eight checks register every
verdict they produce; check nine then replays the whole registry through
the certificate verifier and the randomized falsifier, so nothing below
ever vouches for itself.
"""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

from injcheck.classes import (
    Interval,
    Product,
    Scaled,
    SignPattern,
    SignSetMatrix,
    SignSets,
    enumerate_patterns,
    parse_interval_box_text,
    parse_signsets_text,
    symbolic_view,
)
from injcheck.feasibility import strict_sign_feasible
from injcheck.injectivity import (
    Problem,
    Route,
    SingularWitness,
    Status,
    check_injectivity,
    lift_monomial_witness,
    verify_certificate,
)
from injcheck.linalg import RationalMatrix, Subspace, kernel_basis
from injcheck.oracle import OracleConfig, falsify
from injcheck.signs import sign_of, sign_orthogonal
from injcheck.signroute import concordant_pair

from oracles import ALL_SIGN_SETS, all_sign_vectors, lp_concordant

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


def line_span(*coords):
    return Subspace.from_image(RationalMatrix(len(coords), 1, [[F(c)] for c in coords]))


# Verdicts accumulated by checks 1-8 and audited wholesale by check 9.
# Entries are (problem, verdict, falsify_eligible); the flag marks verdicts
# cheap enough to hand to the 100k-trial falsifier individually.
REGISTRY: list[tuple[Problem, object, bool]] = []


def record(problem, verdict, falsify_eligible=True):
    REGISTRY.append((problem, verdict, falsify_eligible))
    return verdict


@contextlib.contextmanager
def budgeted(number, budget, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"criterion {number:02d}: FAIL ({dt:.2f}s)  {label}")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt <= budget else "FAIL"
    print(f"criterion {number:02d}: {verdict} ({dt:.2f}s)  {label}")
    assert dt <= budget, f"criterion {number} over budget: {dt:.2f}s > {budget}s"


# ---------------------------------------------------------------------------
# fixed regressions (each under one second)


def test_criterion_01_exponent_matrix_and_open_quadrant():
    with budgeted(1, 1.0, "exponent matrix and open-quadrant box, full plane and diagonal"):
        p1 = Problem(Scaled(M([1, 1], [2, 1])), Subspace.full(2))
        v1 = record(p1, check_injectivity(p1))
        assert v1.status is Status.INJECTIVE
        assert v1.method is Route.DET
        assert v1.certificate.payload["monomials"] == [
            {"monomial": "k1*k2*l1*l2", "coefficient": "-1"}
        ]

        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        p2 = Problem(Interval(D), Subspace.full(2))
        v2 = record(p2, check_injectivity(p2))
        assert v2.status is Status.NOT_INJECTIVE
        w = v2.certificate
        assert isinstance(w, SingularWitness)
        assert D.contains(w.member.matrix)
        assert any(z != 0 for z in w.z)
        assert all(x == 0 for x in w.member.matrix.apply(w.z))
        assert verify_certificate(v2, p2)

        p3 = Problem(Interval(D), line_span(1, 1))
        v3 = record(p3, check_injectivity(p3))
        assert v3.status is Status.INJECTIVE


def test_criterion_02_point_entries_and_triangular_sign_sets():
    with budgeted(2, 1.0, "point-entry box and triangular sign sets are injective"):
        D = parse_interval_box_text("{1} {0}\n(0,inf) (0,inf)")
        p1 = Problem(Interval(D), Subspace.full(2))
        v1 = record(p1, check_injectivity(p1))
        assert v1.status is Status.INJECTIVE

        p2 = Problem(SignSets(parse_signsets_text("+ 0\n+ +")), Subspace.full(2))
        v2 = record(p2, check_injectivity(p2))
        assert v2.status is Status.INJECTIVE


def test_criterion_03_closed_box_exact_extremes():
    with budgeted(3, 1.0, "closed box decided by exact rational vertex extremes"):
        D = parse_interval_box_text("[1,13/10] [1,11/10]\n[2,143/50] [1,121/100]")
        p = Problem(Interval(D), Subspace.full(2))
        v = record(p, check_injectivity(p))
        assert v.status is Status.INJECTIVE
        assert v.method is Route.DET
        assert v.diagnostics["det_sign"] == "NEG"
        box = v.certificate.to_payload()["data"]["box"]
        assert box["max_value"] == "-427/1000"


def test_criterion_04_numeric_head_over_unit_box():
    with budgeted(4, 1.0, "composed product with a zero only at an excluded vertex"):
        A = M([-1, 0, 0, 1], [0, 1, -1, 0])
        D = parse_interval_box_text("{1} {0}\n(0,1) {0}\n{0} {1}\n{0} (0,1)")
        cls = Product(A, Interval(D))

        view = symbolic_view(cls)
        assert view.grid[0][0].is_const() and view.grid[0][0].const_value() == -1
        assert view.grid[1][1].is_const() and view.grid[1][1].const_value() == -1
        assert str(view.grid[0][1]) == "v2"
        assert str(view.grid[1][0]) == "v1"
        for info in view.atoms.values():
            e = info.domain
            assert (e.lower, e.upper) == (F(0), F(1))
            assert e.lower_open and e.upper_open

        p = Problem(cls, Subspace.full(2))
        v = record(p, check_injectivity(p))
        assert v.status is Status.INJECTIVE
        box = v.certificate.payload["box"]
        assert box["min_value"] == "0"
        assert box["min_at_excluded_vertex_only"] is True


def test_criterion_05_difference_head_and_line_coset():
    with budgeted(5, 1.0, "difference head: not injective on the plane, injective on the diagonal"):
        A = M([1, -1])
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")

        p1 = Problem(Interval(D), Subspace.full(2), left=A)
        v1 = record(p1, check_injectivity(p1))
        assert v1.status is Status.NOT_INJECTIVE
        assert v1.method is Route.SIGN
        assert v1.certificate.member.matrix == M([F(1, 2), -1])
        assert v1.certificate.z == (F(-2), F(-1))
        assert verify_certificate(v1, p1)

        p2 = Problem(Interval(D), line_span(1, 1), left=A)
        v2 = record(p2, check_injectivity(p2))
        assert v2.status is Status.INJECTIVE


def test_criterion_06_two_factor_product_on_a_plane():
    with budgeted(6, 1.0, "two-factor product: positive table, widened sign sets flip the verdict"):
        S = Subspace.from_kernel_rep(M([1, -1, 1]))

        cls = Product(SignSets(parse_signsets_text("+ -\n+ +")),
                      Scaled(M([1, 1, 0], [0, 0, 1])))
        p1 = Problem(cls, S)
        v1 = record(p1, check_injectivity(p1))
        assert v1.status is Status.INJECTIVE
        assert v1.diagnostics["det_sign"] == "POS"
        table = v1.certificate.payload["monomials"]
        assert {t["monomial"] for t in table} == {
            "l1*l3*m1*m4", "l1*l3*m2*m3", "l2*l3*m1*m4", "l2*l3*m2*m3"
        }
        assert all(t["coefficient"] == "1" for t in table)

        p2 = Problem(SignSets(parse_signsets_text("+ + -\n+ + +")), S)
        v2 = record(p2, check_injectivity(p2))
        assert v2.status is Status.NOT_INJECTIVE
        assert v2.method is Route.DET
        w = v2.certificate
        assert w.member.matrix == M([F(1, 2), 2, F(-1, 2)], [2, F(7, 4), F(1, 2)])
        assert w.z == (F(-3, 5), F(2, 5), F(1))
        assert verify_certificate(v2, p2)


# ---------------------------------------------------------------------------
# property sweeps (each under a minute)


def test_criterion_07_route_agreement_on_random_square_problems():
    with budgeted(7, 60.0, "determinant and sign routes agree on 500 random square problems"):
        rng = random.Random(20260818)
        for k in range(500):
            n = rng.randint(1, 4)
            if k % 2 == 0:
                B = M(*[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                cls = Scaled(B)
            else:
                signs = tuple(
                    tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(n)
                )
                cls = SignPattern(signs)
            p = Problem(cls, Subspace.full(n))
            via_det = check_injectivity(p, route="det")
            via_sign = check_injectivity(p, route="sign")
            assert via_det.status is via_sign.status, (cls, via_det.status, via_sign.status)
            assert via_det.status is not Status.INCONCLUSIVE
            record(p, via_det)


def test_criterion_08_sign_set_verdict_is_the_pattern_conjunction():
    with budgeted(8, 60.0, "sign-set verdict equals the conjunction over all 2401 pattern refinements"):
        S = Subspace.full(2)
        pattern_status = {}

        def status_of_pattern(signs):
            if signs not in pattern_status:
                q = Problem(SignPattern(signs), S)
                v = check_injectivity(q)
                pattern_status[signs] = v.status
                record(q, v)
            return pattern_status[signs]

        n_seen = 0
        for combo in itertools.product(ALL_SIGN_SETS, repeat=4):
            W = SignSetMatrix(((combo[0], combo[1]), (combo[2], combo[3])))
            p = Problem(SignSets(W), S)
            verdict = check_injectivity(p)
            assert verdict.status is not Status.INCONCLUSIVE
            conjunction = all(
                status_of_pattern(pat.signs) is Status.INJECTIVE
                for pat in enumerate_patterns(W)
            )
            assert (verdict.status is Status.INJECTIVE) == conjunction, W
            # criterion 09 runs 100k falsifier trials per INJECTIVE verdict
            # under a time budget: it takes every pattern class and 1 in 5
            # multi-sign classes, and audits every witness in full
            record(p, verdict, falsify_eligible=W.is_pattern or n_seen % 5 == 0)
            n_seen += 1
        assert n_seen == 7 ** 4
        assert len(pattern_status) == 3 ** 4


def test_criterion_09_every_verdict_survives_audit():
    with budgeted(9, 60.0, "witnesses verify exactly; injective verdicts survive 100k falsifier trials"):
        assert len(REGISTRY) > 2900, (
            "the audit replays verdicts registered by the earlier acceptance "
            "tests; run this module as a whole"
        )
        n_witness = n_injective = n_falsified = 0
        for prob, verdict, falsify_eligible in REGISTRY:
            if verdict.status is Status.NOT_INJECTIVE:
                assert verify_certificate(verdict, prob)
                n_witness += 1
            elif verdict.status is Status.INJECTIVE:
                assert verify_certificate(verdict, prob)
                n_injective += 1
                if falsify_eligible:
                    cfg = OracleConfig(trials=100_000, seed=90210,
                                       max_exact_attempts=8, batch=16384)
                    hit = falsify(prob, cfg)
                    assert hit is None, (prob.matrices, hit)
                    n_falsified += 1
        assert n_witness > 2000
        assert n_injective > 300
        assert n_falsified > 300
        print(f"  audited {n_witness} witnesses, "
              f"{n_falsified}/{n_injective} injective verdicts falsifier-tested")


def test_criterion_10_sign_orthogonality_matches_exact_feasibility():
    with budgeted(10, 60.0, "sign orthogonality of (tau, sigma(v)) iff some u with sign tau kills v"):
        rng = random.Random(1010)
        pairs = 0
        for n in range(1, 5):
            vectors = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(12)]
            for tau in all_sign_vectors(n, include_zero=True):
                for v in vectors:
                    sigma_v = tuple(sign_of(c) for c in v)
                    row = RationalMatrix(1, n, [[F(c) for c in v]])
                    u = strict_sign_feasible(row, tau.entries)
                    combinatorial = sign_orthogonal(tau.entries, sigma_v)
                    assert combinatorial == (u is not None), (tau, v)
                    if u is not None:
                        assert sum(F(c) * x for c, x in zip(v, u)) == 0
                        assert tuple(sign_of(x) for x in u) == tau.entries
                    pairs += 1
        assert pairs == (3 + 9 + 27 + 81) * 12


def test_criterion_11_monomial_lift_hits_stated_tolerances():
    with budgeted(11, 60.0, "200 lifted witnesses: positive points, difference and image residuals at 1e-9"):
        rng = random.Random(4242)
        done = 0
        while done < 200:
            r = rng.randint(1, 3)
            n = r + rng.randint(1, 2)
            B = M(*[[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
            K = kernel_basis(B)
            if K.cols == 0:
                continue
            coeffs = [F(rng.randint(-2, 2)) for _ in range(K.cols)]
            v = tuple(
                sum((K.at(i, k) * coeffs[k] for k in range(K.cols)), F(0))
                for i in range(n)
            )
            if all(c == 0 for c in v):
                continue
            w = tuple(c * F(rng.randint(1, 5), rng.randint(1, 5)) for c in v)
            x, y = lift_monomial_witness(B, v, w)
            assert all(c > 0 for c in x)
            assert all(c > 0 for c in y)
            w_norm = max(abs(float(c)) for c in w)
            assert w_norm > 0
            drift = max(abs((a - b) - float(c)) for a, b, c in zip(x, y, w))
            assert drift <= 1e-9 * w_norm
            fx = [_power_image(B, i, x) for i in range(r)]
            fy = [_power_image(B, i, y) for i in range(r)]
            img_norm = max(abs(t) for t in fx)
            assert max(abs(a - b) for a, b in zip(fx, fy)) <= 1e-9 * img_norm
            done += 1


def test_criterion_12_concordance_test_matches_constructive_solver():
    with budgeted(12, 60.0, "row concordance shortcut equals LP row solvability, exhaustively to 3x3"):
        rng = random.Random(35)
        checked = 0
        for r in range(1, 4):
            for n in range(1, 4):
                for _ in range(2):
                    W = SignSetMatrix(tuple(
                        tuple(rng.choice(ALL_SIGN_SETS) for _ in range(n))
                        for _ in range(r)
                    ))
                    for rho in all_sign_vectors(r, include_zero=True):
                        for tau in all_sign_vectors(n, include_zero=True):
                            fast = concordant_pair(rho.entries, tau.entries, W)
                            slow = lp_concordant(rho.entries, tau.entries, W)
                            assert fast == slow, (W, rho, tau)
                            checked += 1
        assert checked == 2 * (3 + 9 + 27) ** 2


def _power_image(B, i, point):
    return math.prod(point[j] ** float(B.at(i, j)) for j in range(B.cols))
