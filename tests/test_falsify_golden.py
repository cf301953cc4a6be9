"""Pinned falsifier witnesses for the route-table problems and for square
classes whose every member is singular.

`falsify` runs on every problem of `test_route_table.CASES` and of
`SINGULAR_CASES` at 1500 trials under seeds 0 and 1, and
`json.dumps(witness.to_payload(), sort_keys=True)` (or None for no hit) is
compared with the one recorded in `falsify_golden.json`. A change to the
falsifier's screen or exact repair that is meant to find the same members
keeps this file as it is. Every member of a `SINGULAR_CASES` class scores
near 0 in the float screen, so its witness is the first of them in `argsort`
order and moves with the last bits of the score.

Re-record after a deliberate change of witnesses with

    PYTHONPATH=src python tests/test_falsify_golden.py
"""

import json
from pathlib import Path

import pytest

from injcheck.classes import Product, Scaled
from injcheck.injectivity import Problem
from injcheck.linalg import Subspace
from injcheck.oracle import OracleConfig, falsify
from test_route_table import CASES as ROUTE_CASES, D, M

GOLDEN = Path(__file__).with_name("falsify_golden.json")
SEEDS = (0, 1)
TRIALS = 1500

SINGULAR_CASES = {
    "singular_scaled_rank1_2x2": lambda: Problem(Scaled(M("1 2; 2 4")), Subspace.full(2)),
    "singular_scaled_rank2_3x3": lambda: Problem(Scaled(M("1 2 3; 2 1 -1; 3 3 2")),
                                                 Subspace.full(3)),
    "singular_head_product_3x3": lambda: Problem(
        Product(M("1 0 1; 0 1 1; 1 1 2"), Scaled(M("1 2 0; 0 1 1; 1 0 3"))), Subspace.full(3)),
    "singular_box_zero_column": lambda: Problem(
        D("[1,2] {0} [0,1]; (0,1) {0} {2}; [-1,1] {0} (1,3)"), Subspace.full(3)),
}
CASES = {**ROUTE_CASES, **SINGULAR_CASES}


def search(case: str, seed: int):
    witness = falsify(CASES[case](), OracleConfig(trials=TRIALS, seed=seed))
    return None if witness is None else json.dumps(witness.to_payload(), sort_keys=True)


def record() -> dict:
    return {f"{case}/{seed}": search(case, seed) for case in CASES for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(f"{case}/{seed}" for case in CASES for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_witness_is_pinned(golden, case, seed):
    assert search(case, seed) == golden[f"{case}/{seed}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
