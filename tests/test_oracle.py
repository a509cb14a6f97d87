"""Brute-force cross-check sweeps and the chain enumeration behind them."""

import pytest

from sympdiff.cli import _merge_sweeps
from sympdiff.exprparse import parse_poly
from sympdiff.oracle import admissible_chains, oracle_sweep


def _texts(chains):
    return [tuple(str(f) for f in chain) for chain in chains]


def test_chains_half_dim_one(F2):
    assert _texts(admissible_chains(F2, 1)) == [("t",), ("t+1",)]


def test_chains_half_dim_two(F2):
    got = set(_texts(admissible_chains(F2, 2)))
    assert got == {
        ("t", "t"),
        ("t+1", "t+1"),
        ("t^2",),
        ("t^2+t",),
        ("t^2+1",),
        ("t^2+t+1",),
    }
    # each chain is a divisibility chain of total degree 2
    for chain in admissible_chains(F2, 2):
        assert sum(f.degree for f in chain) == 2
        for a, b in zip(chain, chain[1:]):
            assert (b % a).is_zero


def test_chain_counts_gf3(F3):
    assert len(admissible_chains(F3, 0)) == 1  # the empty chain
    assert len(admissible_chains(F3, 1)) == 3
    # 9 quadratics plus 3 repeated-linear chains
    assert len(admissible_chains(F3, 2)) == 12
    with pytest.raises(ValueError):
        admissible_chains(F3, -1)


def test_restricted_sweep_agrees(F2):
    t2 = parse_poly(F2, "t^2")
    report = oracle_sweep(F2, 4, ps=[t2], qs=[t2])
    assert report.field == "GF(2)"
    assert report.pair_dim == 4
    assert report.total == 6  # one (p, q) pair, six dimension-2 chains
    assert len(report.instances) == 6
    assert report.ok
    assert report.disagreements == []
    assert set(report.matrix) == {"yes/yes", "yes/no", "no/yes", "no/no"}
    assert report.matrix["yes/no"] == 0 and report.matrix["no/yes"] == 0
    assert sum(report.matrix.values()) == 6
    # at least one verdict of each kind shows up in this slice
    assert report.matrix["yes/yes"] >= 1
    assert report.matrix["no/no"] >= 1
    for inst in report.instances:
        assert inst.agree
        assert inst.v.rows == 2


def test_sweep_input_validation(F2, Q):
    with pytest.raises(ValueError):
        oracle_sweep(F2, 3)
    with pytest.raises(ValueError):
        oracle_sweep(F2, 0)
    with pytest.raises(ValueError):
        oracle_sweep(Q, 2)


def test_merged_parts_match_single_sweep(F2):
    ps = [parse_poly(F2, "t^2"), parse_poly(F2, "t^2+t+1")]
    q = [parse_poly(F2, "t^2+1")]
    whole = oracle_sweep(F2, 2, ps=ps, qs=q)
    parts = [oracle_sweep(F2, 2, ps=[p], qs=q) for p in ps]
    merged = _merge_sweeps(parts)
    assert merged.total == whole.total
    assert merged.matrix == whole.matrix
    assert merged.ok == whole.ok
    assert [(str(i.p), str(i.q), _texts([i.chain])[0], i.decide_yes, i.brute_yes)
            for i in merged.instances] == [
        (str(i.p), str(i.q), _texts([i.chain])[0], i.decide_yes, i.brute_yes)
        for i in whole.instances
    ]


def test_full_sweep_gf2_dim6(F2):
    report = oracle_sweep(F2, 6)
    assert report.total == 224
    assert report.disagreements == []
    assert report.matrix == {"yes/yes": 66, "yes/no": 0, "no/yes": 0, "no/no": 158}
