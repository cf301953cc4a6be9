import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from injcheck.feasibility import strict_sign_feasible
from injcheck.linalg import RationalMatrix
from injcheck.signs import (
    SignVector,
    format_sign_set,
    parse_sign_set,
    sigma,
    sign_masks,
    sign_of,
    sign_orthogonal,
    sign_text,
    signset_row_orthogonal_witness,
)

from oracles import ALL_SIGN_SETS, all_sign_vectors, signset_row_orthogonal

F = Fraction


class TestSigma:
    def test_basic(self):
        assert sigma((3, 0, F(-1, 2))).entries == (1, 0, -1)

    def test_text_round_trip(self):
        v = SignVector((1, 0, -1))
        assert str(v) == "+0-"
        assert (-v).entries == (-1, 0, 1)

    @pytest.mark.parametrize("entries, bad", [((0, 2), "2"), ((1, -1, 0.5), "0.5"),
                                              ((0, [1]), "[1]")])
    def test_rejects_a_non_sign_and_names_it(self, entries, bad):
        with pytest.raises(ValueError, match=f"not a sign: {re.escape(bad)}$"):
            SignVector(entries)

    @given(st.lists(st.fractions(), min_size=1, max_size=6),
           st.fractions(min_value="1/100", max_value=100))
    def test_positive_scaling_invariance(self, xs, c):
        assert sigma([c * x for x in xs]) == sigma(xs)
        assert sigma([-c * x for x in xs]) == -sigma(xs)


class TestSignOrthogonal:
    def test_opposing_coordinates(self):
        assert sign_orthogonal(SignVector((1, 1)), SignVector((1, -1)))

    def test_disjoint_supports(self):
        assert sign_orthogonal(SignVector((1, 0)), SignVector((0, 1)))

    def test_aligned_fails(self):
        assert not sign_orthogonal(SignVector((1, 1)), SignVector((1, 0)))

    def test_matches_real_orthogonality_semantics(self):
        # tau _|_ sigma(v) iff some u with sigma(u) = tau satisfies u.v = 0
        for n in (1, 2, 3):
            for tau in all_sign_vectors(n, include_zero=True):
                for v_signs in itertools.product((-2, 0, 3), repeat=n):
                    v = tuple(F(x) for x in v_signs)
                    feasible = strict_sign_feasible(
                        RationalMatrix.from_rows([v]), tau) is not None
                    assert feasible == sign_orthogonal(tau, sigma(v))


class TestSignSetTokens:
    def test_all_seven(self):
        assert len(ALL_SIGN_SETS) == 7
        for ss in ALL_SIGN_SETS:
            assert parse_sign_set(format_sign_set(ss)) == ss

    def test_specific_tokens(self):
        assert parse_sign_set("0") == frozenset({0})
        assert parse_sign_set("-+") == frozenset({-1, 1})
        assert parse_sign_set("*") == frozenset({-1, 0, 1})
        assert parse_sign_set("0+") == parse_sign_set("+0")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sign_set("x")


def _enumeration_orthogonal(row, tau, values=(F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2))):
    """Ground truth by brute force: some entry choice b with sigma(b_j) in w_j
    and b . x = 0 for a concrete x realizing tau."""
    x = [F(t) for t in tau]
    options = []
    for w in row:
        opts = []
        for s in sorted(w):
            if s == 0:
                opts.append(F(0))
            else:
                opts.extend(s * v for v in values if v > 0)
        options.append(opts)
    return any(
        sum(b * xi for b, xi in zip(combo, x)) == 0
        for combo in itertools.product(*options)
    )


class TestSignSetRowOrthogonal:
    def test_needs_two_distinct_coordinates(self):
        # one coordinate offering both signs is not enough: the single product
        # is either positive or negative, never cancelled
        row = (frozenset({-1, 1}), frozenset({0}))
        assert not signset_row_orthogonal(row, (1, 0))

    def test_cancelling_pair(self):
        row = (frozenset({1}), frozenset({-1}))
        assert signset_row_orthogonal(row, (1, 1))

    def test_all_zero_products(self):
        row = (frozenset({0, 1}), frozenset({1}))
        assert signset_row_orthogonal(row, (1, 0))

    def test_exhaustive_n2_against_enumeration(self):
        for row in itertools.product(ALL_SIGN_SETS, repeat=2):
            for tau in itertools.product((-1, 0, 1), repeat=2):
                assert signset_row_orthogonal(row, tau) == \
                    _enumeration_orthogonal(row, tau), (row, tau)

    def test_exhaustive_n3_spot(self):
        import random

        rng = random.Random(5)
        rows = [tuple(rng.choice(ALL_SIGN_SETS) for _ in range(3)) for _ in range(40)]
        for row in rows:
            for tau in itertools.product((-1, 0, 1), repeat=3):
                assert signset_row_orthogonal(row, tau) == \
                    _enumeration_orthogonal(row, tau), (row, tau)

    def test_witness_produces_orthogonal_choice(self):
        for row in itertools.product(ALL_SIGN_SETS, repeat=3):
            for tau in [(1, 1, 1), (1, -1, 0), (0, 1, -1)]:
                if not signset_row_orthogonal(row, tau):
                    assert signset_row_orthogonal_witness(row, tau) is None
                    continue
                choice = signset_row_orthogonal_witness(row, tau)
                assert choice is not None
                assert all(c in w for c, w in zip(choice, row))
                prods = [c * t for c, t in zip(choice, tau)]
                assert all(p == 0 for p in prods) or (
                    any(p > 0 for p in prods) and any(p < 0 for p in prods))


class TestAllSignVectors:
    def test_count_and_order(self):
        vs = list(all_sign_vectors(2))
        assert len(vs) == 8  # 3^2 - 1
        assert vs[0].entries == (-1, -1)
        assert all(vs[i].entries < vs[i + 1].entries for i in range(len(vs) - 1))

    def test_include_zero(self):
        assert len(list(all_sign_vectors(2, include_zero=True))) == 9


class TestSignOf:
    def test_values(self):
        assert sign_of(F(5, 3)) == 1
        assert sign_of(0) == 0
        assert sign_of(F(-1, 7)) == -1


class TestMasks:
    def test_round_trip_and_text(self):
        # every sign vector up to length 4, with Fraction and int entries
        for n in range(5):
            for v in all_sign_vectors(n, include_zero=True):
                pos, neg = sign_masks(v.entries)
                assert (pos, neg) == sign_masks([F(3 * s, 2) for s in v])
                assert not pos & neg and (pos | neg) >> n == 0
                assert SignVector.from_masks(pos, neg, n) == v
                assert sign_text(pos, neg, n) == str(v)
