import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    ALL_SIGN_SETS,
    all_sign_vectors,
    decoded_sign_vectors,
    enumerate_subspace_signs,
    fraction_elementary,
    lp_concordant,
    full_sign_sweep,
    set_concordant_pair,
    signvector_closure,
)

from injcheck.classes import (
    Interval,
    Product,
    Scaled,
    SignPattern,
    SignSetMatrix,
    SignSets,
    parse_interval_box_text,
    parse_signsets_text,
)
from injcheck import feasibility, signroute
from injcheck.injectivity import Problem, Status, check_injectivity, verify_certificate
from injcheck.limits import Caps, CapExceeded
from injcheck.linalg import RationalMatrix, Subspace
from injcheck.signroute import (
    concordant_pair,
    interval_kernel_feasible,
    interval_member_through,
    pair_sign_feasible,
    realize_sign_in_subspace,
    sign_route,
    signset_member_rows,
    subspace_sign_vectors,
)
from injcheck.signs import (
    SignVector,
    sigma,
    sign_of,
    sign_orthogonal,
)

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


def sv(*entries):
    return SignVector(tuple(entries))


DEGENERATE_SUBSPACES = [
    Subspace.from_image(M([1, 2], [0, 0], [-1, 1], [2, -3], [1, 1])),
    Subspace.from_kernel_rep(M([0, 1, 0, 0, 0], [1, 0, -1, 2, 1])),
    Subspace.from_image(M([1, -1, 0], [-2, 2, 0], [0, 1, 1], [3, -3, 0], [1, 0, 2])),
    Subspace.from_image(M([1, 2, 3], [0, 1, 1], [-1, 1, 0], [2, 0, 2], [1, -1, 0])),
    Subspace.from_kernel_rep(M([1, 1, 0, -1], [2, 2, 0, -2], [0, 1, 1, 0])),
    Subspace.from_image(RationalMatrix(6, 1, [[1], [0], [-2], [3], [0], [-1]])),
    Subspace.from_kernel_rep(M([1, 1, -1, 1, -1, 1])),
    Subspace.from_kernel_rep(M([1, -1, 0, 2, -3])),
]
DEGENERATE_IDS = ["zero-coordinate", "zero-coordinate-kernel", "parallel-coordinates",
                  "dependent-image-columns", "dependent-kernel-rows", "line", "hyperplane",
                  "hyperplane-zero-coefficient"]


class TestSubspaceSignVectors:
    def test_full_space_is_every_nonzero_vector(self):
        got = decoded_sign_vectors(Subspace.full(2))
        assert len(got) == 8
        assert set(got) == set(all_sign_vectors(2))

    def test_plane_with_alternating_normal(self):
        S = Subspace.from_kernel_rep(M([1, -1, 1]))
        got = decoded_sign_vectors(S)
        names = {"".join("+0-"[1 - e] for e in v.entries) for v in got}
        assert names == {"+++", "---", "++0", "--0", "0++", "0--",
                         "+0-", "-0+", "+--", "-++", "++-", "--+"}
        assert len(got) == 12

    def test_line(self):
        S = Subspace.from_image(RationalMatrix(2, 1, [[1], [1]]))
        got = decoded_sign_vectors(S)
        assert [v.entries for v in got] == [(-1, -1), (1, 1)]

    def test_matches_brute_enumeration(self):
        rng = random.Random(7)
        for n, build in itertools.product((1, 2, 3, 4, 5, 6, 4, 5, 6), ("image", "kernel")):
            k = rng.randint(1, n)
            if build == "image":
                S = Subspace.from_image(RationalMatrix(
                    n, k, [[F(rng.randint(-2, 2)) for _ in range(k)] for _ in range(n)]))
            else:
                S = Subspace.from_kernel_rep(RationalMatrix(
                    k, n, [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]))
            if S.dim == 0:
                assert subspace_sign_vectors(S) == ()
                continue
            assert decoded_sign_vectors(S) == enumerate_subspace_signs(S)

    @pytest.mark.parametrize("S", DEGENERATE_SUBSPACES, ids=DEGENERATE_IDS)
    def test_degenerate_subspaces_match_brute_enumeration(self, S):
        assert decoded_sign_vectors(S) == enumerate_subspace_signs(S)

    def test_needs_no_feasibility_problem(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sigma(S) must not solve a feasibility problem")

        monkeypatch.setattr(feasibility, "feasible_cone", refuse)
        monkeypatch.setattr(signroute, "feasible_cone", refuse)
        monkeypatch.setattr(signroute, "strict_sign_feasible", refuse)
        S = Subspace.from_image(M([1, 0, 2], [0, 1, -1], [1, 1, 0], [2, -1, 1],
                                  [0, 3, 1], [-1, 2, 2]))
        assert S.dim == 3
        got = decoded_sign_vectors(S)
        assert got and set(got) == {-v for v in got}
        assert list(got) == sorted(got, key=lambda v: v.entries)

    def test_size_of_an_eight_coordinate_subspace(self):
        # 4388 was counted once by enumerate_subspace_signs (6560 LPs)
        S = Subspace.from_image(M(
            [1, 2, 0, -2, 0, -1], [-2, 1, 1, -2, 0, -1], [-1, 0, -1, 0, -1, -1],
            [-1, 1, 1, 0, -2, 2], [-1, 0, 2, -2, 0, 2], [-1, 1, 0, -2, 1, -2],
            [0, 1, -2, -1, 2, 2], [-2, 1, 2, -1, 0, -1]))
        assert (S.n, S.dim) == (8, 6)
        got = subspace_sign_vectors(S)
        assert len(got) == len(set(got)) == 4388
        assert decoded_sign_vectors(S) == signvector_closure(S)

    def test_every_reported_vector_is_realizable(self):
        # every tau in sigma(S) is realized in S with exactly its signs, and
        # a random tau is realizable exactly when the LP finds a point
        rng = random.Random(21)
        agreed = {True: 0, False: 0}
        for n, build in itertools.product((1, 2, 3, 4, 5, 6, 4, 5, 6), ("image", "kernel")):
            k = rng.randint(1, n)
            rows = [[F(rng.randint(-2, 2)) for _ in range(k if build == "image" else n)]
                    for _ in range(n if build == "image" else k)]
            S = (Subspace.from_image(RationalMatrix(n, k, rows)) if build == "image"
                 else Subspace.from_kernel_rep(RationalMatrix(k, n, rows)))
            for tau in decoded_sign_vectors(S):
                z = realize_sign_in_subspace(S, tau)
                assert z is not None and S.contains(z) and sigma(z) == tau
            for _ in range(12):
                tau = sv(*(rng.choice((-1, 0, 1)) for _ in range(n)))
                z = realize_sign_in_subspace(S, tau)
                lp = feasibility.strict_sign_feasible(S.kernel_rep(), tau)
                assert (z is None) == (lp is None), (S, tau)
                agreed[z is not None] += 1
                if z is not None:
                    assert S.contains(z) and sigma(z) == tau
        assert min(agreed.values()) >= 20, agreed

    def test_zero_subspace_realizes_only_zero(self):
        S = Subspace.from_kernel_rep(M([1, 0], [0, 1]))
        assert realize_sign_in_subspace(S, sv(0, 0)) == (F(0), F(0))
        assert realize_sign_in_subspace(S, sv(1, 0)) is None

    def test_cached_on_the_subspace(self):
        S = Subspace.from_kernel_rep(M([1, 2, 3]))
        assert subspace_sign_vectors(S) is subspace_sign_vectors(S)

    def test_zero_subspace(self):
        S = Subspace.from_kernel_rep(M([1, 0], [0, 1]))
        assert subspace_sign_vectors(S) == ()

    def test_dimension_cap(self):
        S = Subspace.full(4)
        with pytest.raises(CapExceeded) as err:
            subspace_sign_vectors(S, Caps(sign_enum_dim=3))
        assert err.value.cap_name == "sign_enum_dim"

    def test_kernel_sign_vectors(self):
        got = decoded_sign_vectors(Subspace.from_kernel_rep(M([1, 1])))
        assert [v.entries for v in got] == [(-1, 1), (1, -1)]


def _seeded_subspaces(rng, count):
    """Image and kernel-rep subspaces with n up to 6, dimension 0 and the
    full space included."""
    yield Subspace.from_kernel_rep(M([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    for n in range(1, 6):
        yield Subspace.full(n)
    for k in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, n)
        rows = [[F(rng.randint(-2, 2)) for _ in range(m if k % 2 else n)]
                for _ in range(n if k % 2 else m)]
        yield (Subspace.from_image(RationalMatrix(n, m, rows)) if k % 2
               else Subspace.from_kernel_rep(RationalMatrix(m, n, rows)))


class TestMaskPairs:
    """sigma(S) is held as (positive, negative) bit-mask pairs; decoded, it
    is the SignVector closure it replaced (tests/oracles.py), in order."""

    def test_decoded_pairs_match_the_signvector_closure(self):
        shapes = set()
        for S in _seeded_subspaces(random.Random(33), 60):
            got = subspace_sign_vectors(S)
            assert all(type(p) is int and type(m) is int and not p & m and p | m
                       and (p | m) >> S.n == 0 for p, m in got), S
            assert decoded_sign_vectors(S) == signvector_closure(S) == \
                enumerate_subspace_signs(S), S
            shapes.add((S.dim == 0, S.dim == S.n))
        assert shapes == {(True, False), (False, True), (False, False)}

    def test_swept_half_is_the_pairs_led_by_minus(self):
        # the first half are exactly the pairs whose lowest support bit
        # (coordinate 0 first) is negative
        for S in _seeded_subspaces(random.Random(34), 60):
            got = subspace_sign_vectors(S)
            half = len(got) // 2
            for i, (p, m) in enumerate(got):
                lowest = (p | m) & -(p | m)
                assert bool(m & lowest) == (i < half), (S, i)

    def test_sweep_decodes_only_what_an_lp_or_the_hit_takes(self, monkeypatch):
        decoded, handed = [], []
        from_masks = SignVector.from_masks
        monkeypatch.setattr(SignVector, "from_masks", classmethod(
            lambda cls, p, m, n: decoded.append(from_masks(p, m, n)) or decoded[-1]))
        pair, interval, hit = (signroute.pair_sign_feasible,
                               signroute.interval_kernel_feasible, signroute._hit)
        monkeypatch.setattr(signroute, "pair_sign_feasible",
                            lambda B, tau, rho: handed.extend((tau, rho)) or pair(B, tau, rho))
        monkeypatch.setattr(signroute, "interval_kernel_feasible",
                            lambda D, S, tau, *a: handed.append(tau) or interval(D, S, tau, *a))

        def hit_taking(inner, W_in, W_out, S, K, tau, rho, v):
            if v is None:  # a Scaled hit reuses the pair its LP took
                handed.extend((tau, rho))
            return hit(inner, W_in, W_out, S, K, tau, rho, v)

        monkeypatch.setattr(signroute, "_hit", hit_taking)
        problems = [(cls, S, A) for inner in sorted(_MAKE_INNER) for cls, S, A in
                    TestNoLpOutsideScaledPairs._problems(random.Random(37), _MAKE_INNER[inner])]
        problems += [(Interval(D), S, A)
                     for D, S, A in _random_interval_problems(random.Random(38), 60)]
        verdicts = set()
        for k, (cls, S, A) in enumerate(problems):
            decoded.clear()
            handed.clear()
            res = sign_route(cls, S, A)
            verdicts.add((isinstance(cls, Interval), res.injective))
            assert decoded == handed, k
            assert all(type(v) is SignVector for v in decoded), k
        assert verdicts == {(i, j) for i in (False, True) for j in (False, True)}


class TestElementaryVectors:
    """`_elementary` reads each kernel off the int-row elimination; decoded,
    it must give the keys, exact vectors and insertion order of the Fraction
    kernel and product it replaced (tests/oracles.py)."""

    @staticmethod
    def check(S):
        got = signroute._elementary(S)
        ref = fraction_elementary(S)
        assert list(got) == list(ref)
        assert all(type(v) is int for nums, den in got.values() for v in (*nums, den))
        scales = [s for _, s in S.image_basis().int_rows()]
        decoded = [tuple(F(num, den * s) for num, s in zip(nums, scales))
                   for nums, den in got.values()]
        assert all(type(v) is Fraction for z in decoded for v in z)
        assert decoded == list(ref.values())

    def test_matches_fraction_reference_on_seeded_subspaces(self):
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randint(1, 7)
            k = rng.randint(1, n)

            def entry():
                return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 999_983)))

            if rng.random() < 0.5:
                S = Subspace.from_image(RationalMatrix(
                    n, k, [[entry() for _ in range(k)] for _ in range(n)]))
            else:
                S = Subspace.from_kernel_rep(RationalMatrix(
                    k, n, [[entry() for _ in range(n)] for _ in range(k)]))
            self.check(S)

    @pytest.mark.parametrize("S", DEGENERATE_SUBSPACES, ids=DEGENERATE_IDS)
    def test_degenerate_subspaces_match_fraction_reference(self, S):
        self.check(S)


class TestMaskConcordance:
    """The bit-mask concordance against the set-based test in tests/oracles.py."""

    def test_every_row_of_up_to_three_sign_sets(self):
        for n in (1, 2, 3):
            for row in itertools.product(ALL_SIGN_SETS, repeat=n):
                W = SignSetMatrix((row,))
                for tau in itertools.product((-1, 0, 1), repeat=n):
                    for rho in ((-1,), (0,), (1,)):
                        assert concordant_pair(rho, tau, W) == \
                            set_concordant_pair(rho, tau, W), (row, tau, rho)

    def test_seeded_matrices(self):
        rng = random.Random(16)
        for r, n in [(3, 4)] * 100 + [(4, 5)] * 100:
            W = SignSetMatrix_random(rng, r, n)
            for _ in range(150):
                rho = tuple(rng.choice((-1, 0, 1)) for _ in range(r))
                tau = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
                assert concordant_pair(sv(*rho), tau, W) == \
                    set_concordant_pair(rho, tau, W), (W, rho, tau)

    def test_dimension_mismatch(self):
        W = parse_signsets_text("+ -")
        with pytest.raises(ValueError):
            concordant_pair((1,), (1, 1, 1), W)
        with pytest.raises(ValueError):
            concordant_pair((1, 0), (1, 1), W)


class TestPairsAndConcordance:
    def test_pair_sign_feasible_witness(self):
        B = M([1, 1], [1, 0])
        v = pair_sign_feasible(B, (-1, 1), (-1, -1))
        assert v is not None
        assert sigma(v).entries == (-1, 1)
        assert sigma(B.apply(v)).entries == (-1, -1)

    def test_pair_sign_infeasible(self):
        B = M([1, 0], [0, 1])
        assert pair_sign_feasible(B, (1, 1), (-1, 1)) is None

    def test_concordant_examples(self):
        W = parse_signsets_text("+ + -\n+ + +")
        assert concordant_pair(sv(0, 0), sv(-1, 1, 1), W)
        assert not concordant_pair(sv(0, 0), sv(-1, -1, -1), W)
        assert concordant_pair(sv(1, 1), sv(1, 0, 0), W)

    def test_agrees_with_lp_construction_exhaustively(self):
        rng = random.Random(15)
        shapes = [(1, 2), (2, 2), (2, 3)]
        for r, n in shapes:
            for _ in range(2):
                W = SignSetMatrix_random(rng, r, n)
                for rho in all_sign_vectors(r, include_zero=True):
                    for tau in all_sign_vectors(n, include_zero=True):
                        assert concordant_pair(rho, tau, W) == \
                            lp_concordant(rho.entries, tau.entries, W), \
                            (W, rho.entries, tau.entries)

    def test_member_rows_hit_targets_exactly(self):
        W = parse_signsets_text("+ + -\n+ + +")
        x = (F(-1), F(1), F(2))
        B = signset_member_rows(W, x, (F(0), F(0)))
        assert W.contains(B)
        assert B.apply(x) == (F(0), F(0))

    def test_member_rows_nonzero_targets(self):
        W = parse_signsets_text("0+ -0\n* +")
        x = (F(3), F(-2))
        targets = (F(5), F(-7, 3))
        B = signset_member_rows(W, x, targets)
        assert W.contains(B)
        assert B.apply(x) == targets

    def test_member_rows_random(self):
        # zero, positive and negative targets, and rows whose sign row leaves
        # P or N (the coordinates where b_j x_j is positive or negative) empty
        rng = random.Random(41)
        seen = set()
        for _ in range(400):
            r, n = rng.randint(1, 3), rng.randint(1, 4)
            W = SignSetMatrix_random(rng, r, n)
            x = tuple(F(rng.choice((-1, 0, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                      for _ in range(n))
            targets = tuple(F(rng.choice((-1, 0, 1)) * rng.randint(1, 7), rng.randint(1, 4))
                            for _ in range(r))
            if not concordant_pair(sigma(targets), sigma(x), W):
                continue
            B = signset_member_rows(W, x, targets)
            assert W.contains(B)
            assert B.apply(x) == targets
            for i, t in enumerate(targets):
                prods = {sigma(B.row(i))[j] * sigma(x)[j] for j in range(n)}
                seen.add((sign_of(t), 1 in prods, -1 in prods))
        assert seen >= {(0, False, False), (0, True, True), (1, True, False),
                        (1, True, True), (-1, False, True), (-1, True, True)}, seen


def SignSetMatrix_random(rng, r, n):
    from injcheck.classes import SignSetMatrix

    return SignSetMatrix(tuple(
        tuple(rng.choice(ALL_SIGN_SETS) for _ in range(n)) for _ in range(r)))


class TestScaledRoute:
    def test_injective_two_species_example(self):
        res = sign_route(Scaled(M([1, 1], [2, 1])), Subspace.full(2), None)
        assert res.supported and res.injective
        assert res.hit is None

    def test_singular_base_matrix_has_witness(self):
        res = sign_route(Scaled(M([1, 1], [1, 1])), Subspace.full(2), None)
        assert res.supported and not res.injective
        hit = res.hit
        w = hit.member.matrix.apply(hit.z)
        assert all(x == 0 for x in w)
        assert all(k > 0 for k in hit.member.kappa)
        assert all(l > 0 for l in hit.member.lam)
        assert sigma(hit.z) == hit.tau
        B, v, zz = hit.lift_data
        assert all(x == 0 for x in B.apply(v))
        assert sigma(v) == sigma(zz)

    def test_restricting_the_domain_restores_injectivity(self):
        # singular base matrix, but the coset direction misses every
        # kernel sign vector
        S = Subspace.from_image(RationalMatrix(2, 1, [[1], [1]]))
        res = sign_route(Scaled(M([1, 1], [1, 1])), S, None)
        assert res.injective

    def test_left_matrix_composition(self):
        # two reactions feeding back on two species
        N = M([1, -1], [-1, 1])
        B = M([1, 1], [1, 0])
        S = Subspace.from_image(RationalMatrix(2, 1, [[1], [-1]]))
        res = sign_route(Scaled(B), S, N)
        assert res.supported and not res.injective
        hit = res.hit
        assert hit.rho is not None and not hit.rho.is_zero()
        w = hit.member.matrix.apply(hit.z)
        assert all(x == 0 for x in N.apply(w))
        assert S.contains(hit.z) and any(x != 0 for x in hit.z)

    def test_deterministic_hits(self):
        a = sign_route(Scaled(M([1, 1], [1, 1])), Subspace.full(2), None)
        b = sign_route(Scaled(M([1, 1], [1, 1])), Subspace.full(2), None)
        assert a.hit.z == b.hit.z
        assert a.hit.member.matrix == b.hit.member.matrix


class TestPatternRoute:
    def test_positive_determinant_pattern_injective(self):
        res = sign_route(SignPattern(((1, -1), (1, 1))), Subspace.full(2), None)
        assert res.supported and res.injective

    def test_full_positive_pattern_not_injective(self):
        res = sign_route(SignPattern(((1, 1), (1, 1))), Subspace.full(2), None)
        assert not res.injective
        hit = res.hit
        assert all(x == 0 for x in hit.member.matrix.apply(hit.z))

    def test_wide_pattern_frozen_witness(self):
        S = Subspace.from_kernel_rep(M([1, -1, 1]))
        W = parse_signsets_text("+ + -\n+ + +")
        res = sign_route(SignSets(W), S, None)
        assert not res.injective
        hit = res.hit
        assert hit.tau.entries == (-1, 1, 1)
        assert hit.z == (F(-1), F(1), F(2))
        assert hit.member.matrix == M([F(1, 2), 1, F(-1, 4)], [1, F(1, 2), F(1, 4)])

    def test_multi_sign_sets(self):
        W = parse_signsets_text("0+ -")
        res = sign_route(SignSets(W), Subspace.full(2), None)
        assert not res.injective
        assert W.contains(res.hit.member.matrix)
        assert all(x == 0 for x in res.hit.member.matrix.apply(res.hit.z))

    def test_pattern_with_left_matrix(self):
        A = M([1, -1])
        W = parse_signsets_text("+ 0\n0 +")
        res = sign_route(SignSets(W), Subspace.full(2), A)
        assert res.supported and not res.injective
        hit = res.hit
        w = hit.member.matrix.apply(hit.z)
        assert all(x == 0 for x in A.apply(w))


class TestIntervalRoute:
    def test_open_box_full_plane_witness(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        res = sign_route(Interval(D), Subspace.full(2), None)
        assert not res.injective
        hit = res.hit
        assert D.contains(hit.member.matrix)
        assert all(x == 0 for x in hit.member.matrix.apply(hit.z))
        assert sigma(hit.z) == hit.tau

    def test_open_box_on_diagonal_injective(self):
        D = parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")
        S = Subspace.from_image(RationalMatrix(2, 1, [[1], [1]]))
        res = sign_route(Interval(D), S, None)
        assert res.injective

    def test_degenerate_diagonal_with_left_matrix(self):
        A = M([1, -1])
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")
        full = sign_route(Interval(D), Subspace.full(2), A)
        assert not full.injective
        assert full.hit.z == (F(-2), F(-1))
        assert full.hit.member.matrix == M([F(1, 2), 0], [0, 1])
        diagonal = sign_route(Interval(D), Subspace.from_image(
            RationalMatrix(2, 1, [[1], [1]])), A)
        assert diagonal.injective

    def test_punctured_entry_blocks_zero(self):
        D = parse_interval_box_text("(-inf,0)u(0,inf)")
        res = sign_route(Interval(D), Subspace.full(1), None)
        assert res.injective

    def test_zero_allowed_entry(self):
        D = parse_interval_box_text("[0,1]")
        res = sign_route(Interval(D), Subspace.full(1), None)
        assert not res.injective
        assert res.hit.member.matrix == M([0])

    def test_interval_kernel_feasible_shapes(self):
        D = parse_interval_box_text("(0,1) {0}\n{0} {1}")
        z, u = interval_kernel_feasible(D, Subspace.full(2), sv(-1, -1), M([1, -1]))
        assert sigma(z).entries == (-1, -1)
        assert u[0] == u[1]
        member = interval_member_through(D, z, u)
        assert D.contains(member)
        assert member.apply(z) == tuple(u)

    def test_member_through_random(self):
        rng = random.Random(5)
        texts = ["(0,1) [1,2]\n(-2,-1) (0,inf)", "[0,0] (0,inf)\n(-inf,0) {3}"]
        for text in texts:
            D = parse_interval_box_text(text)
            for _ in range(10):
                z = tuple(F(rng.randint(-3, 3)) for _ in range(2))
                if all(x == 0 for x in z):
                    continue
                targets = []
                ok = True
                for i in range(2):
                    lo, hi = _row_range(D, i, z)
                    if lo is None or hi is None or lo >= hi:
                        ok = False
                        break
                    targets.append((lo + hi) / 2)
                if not ok:
                    continue
                member = interval_member_through(D, z, tuple(targets))
                assert D.contains(member)
                assert member.apply(z) == tuple(targets)


def _brute_left_zero_signs(rows, A=None, W_out=None):
    """The signs rho of an inner image the left side can send to 0, counted
    without the route: sigma(ker A) by one LP per candidate, orthogonality to
    an outer sign-set factor by trying every sign row it contains."""
    if W_out is not None:
        return [rho for rho in itertools.product((-1, 0, 1), repeat=rows)
                if all(any(sign_orthogonal(choice, rho)
                           for choice in itertools.product(*W_out.row(i)))
                       for i in range(W_out.rows))]
    kernel = enumerate_subspace_signs(Subspace.from_kernel_rep(A)) if A is not None else ()
    return [(0,) * rows] + [k.entries for k in kernel]


def _random_subspace(rng, n):
    d = rng.randint(1, n)
    if d == n:
        return Subspace.full(n)
    return Subspace.from_image(RationalMatrix(n, d, [[rng.randint(-2, 2) for _ in range(d)]
                                                     for _ in range(n)]))


class TestOneSweep:
    def test_left_zero_signs_are_sorted_masks(self):
        # the rho of a left matrix or an outer sign-set factor, decoded, are
        # the brute-force list in sweep order (0 in the middle of sigma(ker A))
        rng = random.Random(12)
        for k in range(120):
            rows = rng.randint(1, 4)
            A = W_out = None
            if k % 2:
                W_out = SignSetMatrix_random(rng, rng.randint(1, 3), rows)
            else:
                left = rng.randint(1, 2)
                A = RationalMatrix(left, rows, [[rng.randint(-2, 2) for _ in range(rows)]
                                                for _ in range(left)])
            K = Subspace.from_kernel_rep(A) if A is not None else None
            got = signroute._left_zero_signs(W_out, K, rows, Caps())
            assert [SignVector.from_masks(p, m, rows).entries for p, m in got] == \
                sorted(_brute_left_zero_signs(rows, A, W_out)), k

    def test_injective_sign_set_sweeps_check_every_pair(self):
        # every (tau, rho) pair of the half sweep reaches concordant_pair:
        # pairs_checked is half of |sigma(S)| times the number of signs the
        # left side sends to 0
        rng = random.Random(11)
        injective = {"alone": 0, "left": 0, "product": 0}
        for k in range(240):
            n, mid = rng.randint(1, 3), rng.randint(1, 3)
            shape = ("alone", "left", "product")[k % 3]
            S = _random_subspace(rng, n)
            A = W_out = None
            if shape == "product":
                W_out = SignSetMatrix_random(rng, rng.randint(1, 3), mid)
                cls = Product(SignSets(W_out), SignSets(SignSetMatrix_random(rng, mid, n)))
            else:
                cls = SignSets(SignSetMatrix_random(rng, mid, n))
                if shape == "left":
                    A = RationalMatrix(1, mid, [[rng.randint(-2, 2) for _ in range(mid)]])
            res = sign_route(cls, S, A)
            if not res.injective:
                continue
            injective[shape] += 1
            expected = len(enumerate_subspace_signs(S)) // 2 * len(
                _brute_left_zero_signs(mid, A, W_out))
            assert res.diagnostics["pairs_checked"] == expected, (k, cls.describe())
        assert min(injective.values()) >= 5, injective

    @pytest.mark.parametrize("cls, S, left", [
        (Scaled(M([1, 1], [2, 1])), Subspace.full(2), None),
        (Scaled(M([1, 1], [1, 1])), Subspace.full(2), None),
        (Scaled(M([1, 1], [1, 0])), Subspace.from_image(M([1], [-1])), M([1, -1], [-1, 1])),
        (Scaled(M([1, -1, 0], [0, 1, -1])), Subspace.full(3), None),
        (Product(SignSets(parse_signsets_text("+ +")), Scaled(M([1, 0], [0, 1]))),
         Subspace.full(2), None),
        (Product(SignSets(parse_signsets_text("+ -\n+ +")), Scaled(M([1, -1], [1, -2]))),
         Subspace.full(2), None),
        (Product(SignPattern(((1, 1, -1),)), Scaled(M([1, 2, 0], [0, 1, 1], [1, 0, 1]))),
         Subspace.from_kernel_rep(M([1, -1, 1])), None),
    ])
    def test_one_lp_per_checked_scaled_pair(self, monkeypatch, cls, S, left):
        # the sweep must look pair_sign_feasible up at call time, where
        # instrumentation that rebinds the module attribute sees every call
        calls = []
        original = signroute.pair_sign_feasible

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(signroute, "pair_sign_feasible", counted)
        res = sign_route(cls, S, left)
        assert res.supported
        assert len(calls) == res.diagnostics["pairs_checked"] > 0


# an r x n inner factor of each kind the pair loop serves, drawn from rng
_MAKE_INNER = {
    "scaled": lambda rng, r, n: Scaled(RationalMatrix(
        r, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)])),
    "signsets": lambda rng, r, n: SignSets(SignSetMatrix_random(rng, r, n)),
    "pattern": lambda rng, r, n: SignPattern(tuple(
        tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(r))),
}


class TestNoLpOutsideScaledPairs:
    @staticmethod
    def _problems(rng, inner):
        # (class, S, left matrix) alone, behind a left matrix and as a
        # product under an outer sign-set factor, on random small S
        for k in range(90):
            n, mid = rng.randint(1, 3), rng.randint(1, 3)
            shape = ("alone", "left", "product")[k % 3]
            cls = inner(rng, mid, n)
            A = None
            if shape == "left":
                A = RationalMatrix(1, mid, [[rng.randint(-2, 2) for _ in range(mid)]])
            elif shape == "product":
                cls = Product(SignSets(SignSetMatrix_random(rng, rng.randint(1, 3), mid)), cls)
            yield cls, _random_subspace(rng, n), A

    @pytest.mark.parametrize("inner", ["signsets", "pattern"])
    def test_sign_sets_and_patterns_solve_no_lp(self, monkeypatch, inner):
        def refuse(*args, **kwargs):
            raise AssertionError("a sign-set decision solved an LP")

        monkeypatch.setattr(feasibility, "feasible_cone", refuse)
        monkeypatch.setattr(signroute, "feasible_cone", refuse)
        verdicts = set()
        for cls, S, A in self._problems(random.Random(17), _MAKE_INNER[inner]):
            res = sign_route(cls, S, A)
            verdicts.add(res.injective)
            if not res.injective:
                hit = res.hit
                image = hit.member.matrix.apply(hit.z)
                assert all(x == 0 for x in (A.apply(image) if A is not None else image))
        assert verdicts == {True, False}

    def test_scaled_solves_one_lp_per_pair_test(self, monkeypatch):
        lps, pairs = [], []
        cone, pair = feasibility.feasible_cone, signroute.pair_sign_feasible
        monkeypatch.setattr(feasibility, "feasible_cone",
                            lambda *a, **k: lps.append(1) or cone(*a, **k))
        monkeypatch.setattr(signroute, "pair_sign_feasible",
                            lambda *a: pairs.append(1) or pair(*a))
        verdicts = set()
        for cls, S, A in self._problems(random.Random(19), _MAKE_INNER["scaled"]):
            verdicts.add(sign_route(cls, S, A).injective)
            assert len(lps) == len(pairs)
        assert verdicts == {True, False} and len(pairs) > 0


# one token per kind of interval entry: {0}, nonzero points, closed, open,
# half-lines and punctured
_ENTRY_TOKENS = ("{0}", "{1}", "{-2}", "{1/2}", "[0,1]", "[-1,2]", "[1,3]", "[-2,-1]",
                 "(0,1)", "(-1,1)", "(-3,-1)", "(0,inf)", "(-inf,0)", "[0,inf)", "(-inf,0]",
                 "(1,inf)", "(-inf,2]", "(-inf,inf)", "(-inf,0)u(0,inf)", "(-2,0)u(0,3]")


def _random_interval_problems(rng, count):
    """(box, S, left matrix or None) over every entry kind; S is the full
    space or a random image, and every other problem has a left matrix."""
    for k in range(count):
        n, rows = rng.randint(1, 3), rng.randint(1, 3)
        D = parse_interval_box_text("\n".join(
            " ".join(rng.choice(_ENTRY_TOKENS) for _ in range(n)) for _ in range(rows)))
        A = None
        if k % 2:
            left = rng.randint(1, 2)
            A = RationalMatrix(left, rows, [[rng.randint(-2, 2) for _ in range(rows)]
                                            for _ in range(left)])
        yield D, _random_subspace(rng, n), A


def _screen_passes(D, A, tau):
    """Does tau pass the screen: behind a left matrix always, otherwise when
    rho = 0 passes the set-based concordance test of the box's sign hull?"""
    hull = SignSetMatrix(tuple(tuple(e.sign_set() for e in row) for row in D.entries))
    return A is not None or set_concordant_pair((0,) * D.rows, tau, hull)


def assert_same_sweep(res, ref, k):
    """The half sweep and the sweep over all of sigma(S) give the same status
    and first hit; pairs_checked is the reference's on a hit, half of it
    without one."""
    assert res.supported and res.injective == ref.injective, k
    assert res.diagnostics["taus"] == ref.diagnostics["taus"], k
    factor = 2 if res.injective else 1
    assert res.diagnostics["pairs_checked"] * factor == ref.diagnostics["pairs_checked"], k
    if not res.injective:
        assert (res.hit.tau, res.hit.rho, res.hit.z) == (ref.hit.tau, ref.hit.rho, ref.hit.z), k
        assert res.hit.member.matrix == ref.hit.member.matrix, k
        assert res.hit.lift_data == ref.hit.lift_data, k


class TestHalfSweep:
    """Only the taus whose first nonzero entry is -1 are swept; the sweep
    over all of sigma(S) in `oracles` is the reference."""

    @pytest.mark.parametrize("inner", sorted(_MAKE_INNER))
    def test_matches_the_full_sweep(self, inner):
        seen = set()
        problems = TestNoLpOutsideScaledPairs._problems(random.Random(31), _MAKE_INNER[inner])
        for k, (cls, S, A) in enumerate(problems):
            res = sign_route(cls, S, A)
            assert_same_sweep(res, full_sign_sweep(cls, S, A), k)
            seen.add((isinstance(cls, Product), A is not None, res.injective))
        assert {(p, a, i) for p, a in ((False, False), (False, True), (True, False))
                for i in (False, True)} <= seen

    def test_swept_taus_lead_with_minus(self, monkeypatch):
        swept = []
        original = signroute._concordant_rows
        monkeypatch.setattr(signroute, "_concordant_rows",
                            lambda masks, p, m: swept.append((p, m)) or original(masks, p, m))
        res = sign_route(SignPattern(((1, 0), (0, 1))), Subspace.full(2), None)
        assert res.injective and res.diagnostics["taus"] == 8
        assert [SignVector.from_masks(p, m, 2) for p, m in swept] == \
            [sv(-1, -1), sv(-1, 0), sv(-1, 1), sv(0, -1)]


class TestIntervalScreen:
    def test_screened_sweep_matches_one_lp_per_tau(self):
        verdicts, full, skipped = set(), 0, 0
        for k, (D, S, A) in enumerate(_random_interval_problems(random.Random(23), 240)):
            res = sign_route(Interval(D), S, A)
            assert_same_sweep(res, full_sign_sweep(Interval(D), S, A), k)
            verdicts.add(res.injective)
            full += S.dim == S.n
            skipped += sum(not _screen_passes(D, A, tau)
                           for tau in decoded_sign_vectors(S)[:res.diagnostics["pairs_checked"]])
        assert verdicts == {True, False} and full > 0 and skipped > 0

    def test_one_lp_per_tau_that_passes_the_screen(self, monkeypatch):
        solved = []
        original = signroute.interval_kernel_feasible
        monkeypatch.setattr(signroute, "interval_kernel_feasible",
                            lambda D, S, tau, *a: solved.append(tau) or original(D, S, tau, *a))
        for k, (D, S, A) in enumerate(_random_interval_problems(random.Random(29), 200)):
            solved.clear()
            res = sign_route(Interval(D), S, A)
            swept = decoded_sign_vectors(S)[:res.diagnostics["pairs_checked"]]
            assert solved == [tau for tau in swept if _screen_passes(D, A, tau)], k

    def test_readme_diagonal_solves_no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sign screen let a tau through to an LP")

        monkeypatch.setattr(feasibility, "feasible_cone", refuse)
        monkeypatch.setattr(signroute, "feasible_cone", refuse)
        problem = Problem(Interval(parse_interval_box_text("(0,inf) (0,inf)\n(0,inf) (0,inf)")),
                          Subspace.from_image(M([1], [1])))
        verdict = check_injectivity(problem)
        assert verdict.status is Status.INJECTIVE
        assert verdict.diagnostics["sign_pairs_checked"] == 1  # --, not ++
        assert verify_certificate(verdict, problem)

    def test_screened_out_taus_need_no_branch_plan(self):
        # 7 punctured rows need 2^7 branches, beyond the cap of 64, for any
        # tau; no member maps a nonzero z to 0, so the screen skips the one
        # tau swept and the verdict is decided where one LP per tau gives up
        D = parse_interval_box_text("\n".join(["(-inf,0)u(0,inf)"] * 7))
        with pytest.raises(CapExceeded, match="branches"):
            full_sign_sweep(Interval(D), Subspace.full(1))
        problem = Problem(Interval(D), Subspace.full(1))
        verdict = check_injectivity(problem)
        assert verdict.status is Status.INJECTIVE
        assert verdict.diagnostics["sign_pairs_checked"] == 1
        assert verify_certificate(verdict, problem)


class TestUnsupportedShapes:
    @pytest.mark.parametrize("cls, left", [
        (Product(Interval(parse_interval_box_text("(0,1)")),
                 Interval(parse_interval_box_text("(0,1) (0,1)"))), None),
        (Product(SignSets(parse_signsets_text("+ -\n+ +")), Scaled(M([1, 1], [0, 1]))),
         M([1, 1])),
    ])
    def test_rejected_before_sign_vectors(self, monkeypatch, cls, left):
        def refuse(*args, **kwargs):
            raise AssertionError("sigma(S) computed for a shape the sweep cannot serve")

        monkeypatch.setattr(signroute, "subspace_sign_vectors", refuse)
        assert not sign_route(cls, Subspace.full(2), left).supported


def _row_range(D, i, z):
    lo = F(0)
    hi = F(0)
    for j, zj in enumerate(z):
        e = D.at(i, j)
        if e.lower is None or e.upper is None:
            if zj != 0:
                return None, None
            continue
        a, b = e.lower * zj, e.upper * zj
        lo += min(a, b)
        hi += max(a, b)
    if lo == hi:
        return None, None
    return lo, hi
