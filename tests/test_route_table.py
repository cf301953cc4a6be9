"""Pinned verdicts for every step of the route table.

Each case below is decided under every `route` value and the full
`json.dumps(verdict.to_payload(), sort_keys=True)` is compared with the one
recorded in `route_table_golden.json`. Together the cases reach every step of
`check_injectivity` and every way out of it: the trivial subspace, the
determinant sign, a zero assignment of a box or of a MIXED monomial table
(alone, behind a class product and under a sign cap), the sign route, the
determinant of the interval hull of a multi-sign sign-set class, every cap
that turns a step into a fallback, and the INCONCLUSIVE end of each forced
route.

Re-record after a deliberate change of verdicts with

    PYTHONPATH=src python tests/test_route_table.py
"""

import json
from pathlib import Path

import pytest

import injcheck.oracle
from injcheck.classes import (
    Interval,
    Product,
    Scaled,
    SignSets,
    parse_interval_box_text,
    parse_signsets_text,
)
from injcheck.crn import KineticsMode, build_problem, parse_network
from injcheck.injectivity import Problem, Status, check_injectivity, verify_certificate
from injcheck.limits import DEFAULT_CAPS
from injcheck.linalg import RationalMatrix, Subspace, parse_matrix_text

GOLDEN = Path(__file__).with_name("route_table_golden.json")
ROUTES = ("auto", "det", "sign")


def M(text):
    return parse_matrix_text(text.replace(";", "\n"))


def W(text):
    return SignSets(parse_signsets_text(text.replace(";", "\n")))


def D(text):
    return Interval(parse_interval_box_text(text.replace(";", "\n")))


def line(*coords):
    return Subspace.from_image(M(";".join(str(c) for c in coords)))


def plane():
    return Subspace.from_kernel_rep(M("1 -1 1"))


OPEN_QUADRANT = "(0,inf) (0,inf); (0,inf) (0,inf)"
UNIT_BOX = "(0,1) (0,1); (0,1) (0,1)"


def signsets_scaled():
    return Product(W("+ -; + +"), Scaled(M("1 1 0; 0 0 1")))


def multisign_box():
    return Product(W("0+ -; + +"), D(UNIT_BOX))


def scaled_signsets():
    return Product(Scaled(M("1 0; 0 1")), W("+ +; + +"))


# Each decision builds its problem afresh: a Subspace caches its sign vectors.
CASES = {
    "trivial": lambda: Problem(Scaled(M("1 1; 1 1")),
                               Subspace.from_image(RationalMatrix(2, 0, [[], []]))),
    "scaled_negative_det": lambda: Problem(Scaled(M("1 1; 2 1")), Subspace.full(2)),
    "open_box_full": lambda: Problem(D(OPEN_QUADRANT), Subspace.full(2)),
    "open_box_diagonal": lambda: Problem(D(OPEN_QUADRANT), line(1, 1)),
    "closed_box": lambda: Problem(D("[1,13/10] [1,11/10]; [2,143/50] [1,121/100]"),
                                  Subspace.full(2)),
    "numeric_head_box": lambda: Problem(
        Product(M("-1 0 0 1; 0 1 -1 0"), D("{1} {0}; (0,1) {0}; {0} {1}; {0} (0,1)")),
        Subspace.full(2)),
    "mixed_table_zero": lambda: Problem(W("+ + -; + + +"), plane()),
    "signsets_scaled_table": lambda: Problem(signsets_scaled(), plane()),
    "left_interval_full": lambda: Problem(D("(0,1) {0}; {0} {1}"), Subspace.full(2),
                                          left=M("1 -1")),
    "left_interval_diagonal": lambda: Problem(D("(0,1) {0}; {0} {1}"), line(1, 1),
                                              left=M("1 -1")),
    "left_scaled_feedback": lambda: Problem(Scaled(M("1 1; 1 0")), line(1, -1),
                                            left=M("1 -1; -1 1")),
    "interval_product_square": lambda: Problem(Product(D("(0,1)"), D("(0,1)")),
                                               Subspace.full(1)),
    "interval_product_wide": lambda: Problem(Product(D("(0,1)"), D("(0,1) (0,1)")),
                                             Subspace.full(2)),
    "mixed_class_product": lambda: Problem(scaled_signsets(), Subspace.full(2)),
    "mixed_sign_cap": lambda: Problem(W("+ + -; + + +"), plane()),
    "scaled_mixed_sign_cap": lambda: Problem(Scaled(M("1 2 -1; 1 1 1")), plane()),
    "multisign_signsets": lambda: Problem(W("0+ -; + +"), Subspace.full(2)),
    "monomial_cap": lambda: Problem(W("+ +; - +"), Subspace.full(2)),
    "sign_cap": lambda: Problem(Scaled(M("1 1 1")), Subspace.full(3)),
    "pattern_union_auto": lambda: Problem(multisign_box(), Subspace.full(2)),
    "pattern_union_falsifies": lambda: Problem(W("0+ -"), Subspace.full(2)),
    "pattern_union_all_injective": lambda: Problem(W("+ 0+; 0 +"), Subspace.full(2)),
    "pattern_union_inconclusive": lambda: Problem(Product(W("0+"), D("(0,1) (0,1)")),
                                                  Subspace.full(2)),
    "product_behind_left_square": lambda: Problem(signsets_scaled(), plane(),
                                                  left=M("1 0; 0 1")),
    "product_behind_left_wide": lambda: Problem(signsets_scaled(), plane(), left=M("1 1")),
    "crn_autocatalytic": lambda: build_problem(
        parse_network("grow: A + B -> 2 A\nflip: A -> B"), KineticsMode.parse("mass-action")),
    "signsets_scaled_witness": lambda: Problem(Product(W("+ +"), Scaled(M("1 0; 0 1"))),
                                               Subspace.full(2)),
    "signsets_signsets_witness": lambda: Problem(Product(W("+ +"), W("+ 0; 0 +")),
                                                 Subspace.full(2)),
    "signsets_signsets_injective": lambda: Problem(Product(W("+ -; + +"), W("+ 0; 0 +")),
                                                   line(1, 1)),
    "signsets_left": lambda: Problem(W("+ 0; 0 +"), Subspace.full(2), left=M("1 1")),
    "scaled_wide_free": lambda: Problem(Scaled(M("1 -1 0; 0 1 -1")), Subspace.full(3)),
}
CAPS = {
    "mixed_sign_cap": {"sign_enum_dim": 2},
    "scaled_mixed_sign_cap": {"sign_enum_dim": 2},
    "monomial_cap": {"monomials": 1},
    "sign_cap": {"sign_enum_dim": 2},
}


def decide(case: str, route: str):
    problem = CASES[case]()
    caps = DEFAULT_CAPS.with_overrides(**CAPS.get(case, {}))
    verdict = check_injectivity(problem, caps=caps, route=route)
    verified = verify_certificate(verdict, problem, caps=caps)
    return json.dumps(verdict.to_payload(), sort_keys=True), verified


def record() -> dict:
    return {f"{case}/{route}": decide(case, route)[0] for case in CASES for route in ROUTES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(f"{case}/{route}" for case in CASES for route in ROUTES)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_is_pinned(golden, case, route):
    payload, verified = decide(case, route)
    assert payload == golden[f"{case}/{route}"]
    assert verified


def test_no_decision_draws_a_random_member(monkeypatch):
    # every route decides exactly: the randomized falsifier is never consulted
    def refuse(*args, **kwargs):
        raise AssertionError("a decision consulted the randomized falsifier")

    monkeypatch.setattr(injcheck.oracle, "falsify", refuse)
    monkeypatch.setattr(injcheck.oracle, "sample_member", refuse)
    for case in CASES:
        for route in ROUTES:
            assert decide(case, route)[1], f"{case}/{route}"


def test_no_sign_cap_for_a_product_behind_a_left_matrix():
    # the sign sweep has no route for this shape, so it reports no cap
    # (sigma(S) would need n = 3 > sign_enum_dim)
    problem = Problem(signsets_scaled(), plane(), left=M("1 1"))
    caps = DEFAULT_CAPS.with_overrides(sign_enum_dim=2)
    for route in ("auto", "sign"):
        verdict = check_injectivity(problem, caps=caps, route=route)
        assert verdict.status is Status.INCONCLUSIVE
        assert "sign_route_fallback" not in verdict.diagnostics


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
