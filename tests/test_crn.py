from fractions import Fraction

import pytest

from injcheck.classes import Scaled, SignSets
from injcheck.crn import (
    KineticsMode,
    NetworkTextError,
    build_problem,
    parse_network,
    serialize_network,
)
from injcheck.injectivity import Status, check_injectivity, verify_certificate
from injcheck.linalg import RationalMatrix

F = Fraction


def M(*rows):
    return RationalMatrix.from_rows(rows)


class TestParsing:
    def test_species_in_order_of_appearance(self):
        net = parse_network("A + 2 B -> 3 C\nC -> A")
        assert net.species == ("A", "B", "C")
        assert [r.label for r in net.reactions] == ["r1", "r2"]

    def test_explicit_labels_and_comments(self):
        net = parse_network("# a note\nuptake: A -> B  # trailing comment\n")
        assert net.reactions[0].label == "uptake"

    def test_reversible_creates_two_reactions(self):
        net = parse_network("bind: A + B <-> C")
        labels = [r.label for r in net.reactions]
        assert labels == ["bind", "bind_rev"]
        fwd, rev = net.reactions
        assert fwd.reactants == rev.products
        assert fwd.products == rev.reactants

    def test_rational_and_merged_coefficients(self):
        net = parse_network("A + 1/2 A + 2 B -> B")
        r = net.reactions[0]
        assert r.reactant_coeff("A") == F(3, 2)
        assert r.reactant_coeff("B") == F(2)
        assert r.product_coeff("B") == F(1)

    def test_empty_side(self):
        net = parse_network("in: 0 -> A\nout: A -> 0")
        assert net.reactions[0].reactants == ()
        assert net.reactions[1].products == ()

    def test_orders_clause(self):
        net = parse_network("r: A + B -> C : orders A=3/2 B=1")
        r = net.reactions[0]
        assert r.order_of("A") == F(3, 2)
        assert r.order_of("B") == F(1)

    def test_orders_can_extend_species(self):
        net = parse_network("r: A -> B : orders A=1 C=2")
        assert "C" in net.species

    def test_duplicate_label_rejected(self):
        with pytest.raises(NetworkTextError) as err:
            parse_network("x: A -> B\nx: B -> A")
        assert err.value.line == 2

    def test_missing_arrow_reports_line(self):
        with pytest.raises(NetworkTextError) as err:
            parse_network("A -> B\nA + B")
        assert err.value.line == 2

    @pytest.mark.parametrize("text", [
        "A -> B\n1/0 A -> B\n",
        "A -> B\nA + B -> C : orders A=1/0 B=1\n",
        "A -> B\nA + 2/0 B -> C\n",
    ])
    def test_zero_denominator_reports_line(self, text):
        with pytest.raises(NetworkTextError) as err:
            parse_network(text)
        assert err.value.line == 2
        assert "1/0" in str(err.value) or "2/0" in str(err.value)

    def test_influence_unknown_reaction(self):
        with pytest.raises(NetworkTextError):
            parse_network("A -> B\ninfluence zz: A=+")

    def test_influence_unknown_species(self):
        with pytest.raises(NetworkTextError):
            parse_network("r: A -> B\ninfluence r: Q=+")

    def test_influence_parsed(self):
        net = parse_network("r: A + B -> C\ninfluence r: B=0-")
        assert net.influences[("r", "B")] == frozenset({-1, 0})

    def test_round_trip(self):
        text = "up: A + 2 B -> 3 C : orders A=2 B=1\ndown: C <-> A\n"
        net = parse_network(text)
        again = parse_network(serialize_network(net))
        assert again.species == net.species
        assert again.influences == net.influences
        assert [r for r in again.reactions] == [r for r in net.reactions]

    def test_round_trip_with_influences(self):
        text = "r: A + B -> C\ninfluence r: A=+ B=0-"
        net = parse_network(text)
        again = parse_network(serialize_network(net))
        assert again.influences == net.influences


class TestMatrices:
    def test_stoichiometric_matrix(self):
        net = parse_network("A + 2 B -> 3 C\nC -> A")
        N = net.stoichiometric_matrix()
        assert N == M([-1, 1], [-2, 0], [3, -1])

    def test_reactant_matrix(self):
        net = parse_network("A + 2 B -> 3 C\nC -> A")
        B = build_problem(net, KineticsMode.MASS_ACTION).matrices.B
        assert B == M([1, 2, 0], [0, 0, 1])


class TestProblems:
    def test_mass_action_uses_reactant_orders(self):
        net = parse_network("2 A -> A")
        p = build_problem(net, KineticsMode.MASS_ACTION)
        assert isinstance(p.matrices, Scaled)
        assert p.matrices.B == M([2])
        assert p.left == M([-1])
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        table = verdict.certificate.payload["monomials"]
        assert table == [{"monomial": "k1*l1", "coefficient": "-2"}]

    def test_power_law_requires_orders(self):
        net = parse_network("slow: A -> B\nB -> A : orders B=2")
        with pytest.raises(ValueError) as err:
            build_problem(net, KineticsMode.POWER_LAW)
        assert "slow" in str(err.value)

    def test_power_law_orders_used(self):
        net = parse_network("f: A -> B : orders A=3/2\nb: B -> A : orders B=2")
        p = build_problem(net, KineticsMode.POWER_LAW)
        assert p.matrices.B == M([F(3, 2), 0], [0, 2])

    def test_monotonic_strict_sign_sets(self):
        net = parse_network("A + B -> C\nC -> A")
        p = build_problem(net, KineticsMode.MONOTONIC_STRICT)
        assert isinstance(p.matrices, SignSets)
        W = p.matrices.W
        assert W.at(0, 0) == frozenset({1})
        assert W.at(0, 2) == frozenset({0})
        assert W.at(1, 2) == frozenset({1})

    def test_monotonic_weak_sign_sets(self):
        net = parse_network("A + B -> C")
        W = build_problem(net, KineticsMode.MONOTONIC_WEAK).matrices.W
        assert W.at(0, 0) == frozenset({0, 1})
        assert W.at(0, 2) == frozenset({0})

    def test_influence_overrides_entry(self):
        net = parse_network("r: A + B -> C\ninfluence r: B=0-")
        W = build_problem(net, KineticsMode.MONOTONIC_STRICT).matrices.W
        assert W.at(0, 1) == frozenset({-1, 0})
        assert W.at(0, 0) == frozenset({1})

    def test_influences_rejected_for_mass_action(self):
        net = parse_network("r: A -> B\ninfluence r: A=+")
        with pytest.raises(ValueError):
            build_problem(net, KineticsMode.MASS_ACTION)

    def test_mode_parse_aliases(self):
        assert KineticsMode.parse("mass") is KineticsMode.MASS_ACTION
        assert KineticsMode.parse("strict") is KineticsMode.MONOTONIC_STRICT
        assert KineticsMode.parse("weak") is KineticsMode.MONOTONIC_WEAK
        assert KineticsMode.parse("power_law") is KineticsMode.POWER_LAW
        with pytest.raises(ValueError):
            KineticsMode.parse("zigzag")


class TestVerdicts:
    def test_autocatalysis_not_injective(self):
        net = parse_network("grow: A + B -> 2 A\nflip: A -> B")
        p = build_problem(net, KineticsMode.MASS_ACTION)
        verdict = check_injectivity(p)
        assert verdict.status is Status.NOT_INJECTIVE
        assert verify_certificate(verdict, p)
        w = verdict.certificate
        assert w.monomial_lift is not None
        assert w.monomial_lift["max_residual"] <= 1e-9

    def test_futile_cycle_injective_for_mass_action(self):
        net = parse_network("A -> B\nB -> A")
        p = build_problem(net, KineticsMode.MASS_ACTION)
        verdict = check_injectivity(p)
        assert verdict.status is Status.INJECTIVE
        assert verify_certificate(verdict, p)

    def test_monotonic_weak_weaker_than_strict(self):
        net = parse_network("grow: A + B -> 2 A\nflip: A -> B")
        strict = check_injectivity(build_problem(net, KineticsMode.MONOTONIC_STRICT))
        weak = check_injectivity(build_problem(net, KineticsMode.MONOTONIC_WEAK))
        assert strict.status is Status.NOT_INJECTIVE
        assert weak.status is Status.NOT_INJECTIVE

    def test_note_mentions_mode(self):
        net = parse_network("2 A -> A")
        p = build_problem(net, KineticsMode.MASS_ACTION)
        assert "mass-action" in p.note
