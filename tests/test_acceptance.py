"""Acceptance gate: one test per criterion, with pinned wall-clock budgets.

The suite runs once per session (the duplication sweep dominates: criterion
2 took 44 s in a full run on a 2-CPU Xeon with Python 3.11); each test then
asserts its criterion passed and stayed within budget, and prints the
one-line summary for -s / failure output.
"""

import pytest

from sympdiff.acceptance import run_all

# seconds; roughly 2x-10x the measured times on one CPU
BUDGETS = {
    1: 5.0,
    2: 90.0,
    3: 90.0,
    4: 60.0,
    5: 10.0,
    6: 1.0,
    7: 10.0,
    8: 10.0,
    9: 10.0,
    10: 5.0,
    11: 120.0,
    12: 60.0,
}


@pytest.fixture(scope="session")
def results():
    out = {r.number: r for r in run_all(seed=0)}
    assert sorted(out) == list(range(1, 13))
    return out


def _check(results, number):
    r = results[number]
    print(r.line())
    assert r.passed, r.line()
    assert r.seconds < BUDGETS[number], (
        f"criterion {number} took {r.seconds:.2f}s, budget {BUDGETS[number]}s"
    )


def test_criterion_01_fundamental_identity(results):
    _check(results, 1)


def test_criterion_02_duplication_factors(results):
    _check(results, 2)


def test_criterion_03_algebra_relations(results):
    _check(results, 3)


def test_criterion_04_oracle_agreement(results):
    _check(results, 4)


def test_criterion_05_minimal_dimension(results):
    _check(results, 5)


def test_criterion_06_counterexample_witness(results):
    _check(results, 6)


def test_criterion_07_regular_round_trip(results):
    _check(results, 7)


def test_criterion_08_split_intertwining(results):
    _check(results, 8)


def test_criterion_09_same_field_evenness(results):
    _check(results, 9)


def test_criterion_10_char2_special_evenness(results):
    _check(results, 10)


def test_criterion_11_catalogue_self_check(results):
    _check(results, 11)


def test_criterion_12_nilpotent_cell_counts(results):
    _check(results, 12)
