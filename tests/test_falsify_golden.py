"""Pinned falsifier witnesses for the route-table problems.

`falsify` runs on every problem of `test_route_table.CASES` at 1500 trials
under seeds 0 and 1, and `json.dumps(witness.to_payload(), sort_keys=True)`
(or None for no hit) is compared with the one recorded in
`falsify_golden.json`. A change to the falsifier's screen or exact repair
that is meant to find the same members keeps this file as it is.

Re-record after a deliberate change of witnesses with

    PYTHONPATH=src python tests/test_falsify_golden.py
"""

import json
from pathlib import Path

import pytest

from injcheck.oracle import OracleConfig, falsify
from test_route_table import CASES

GOLDEN = Path(__file__).with_name("falsify_golden.json")
SEEDS = (0, 1)
TRIALS = 1500


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
