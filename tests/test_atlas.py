"""Catalogue enumeration: golden row lists, norm quadratics, inventories."""

import pickle
import random

import pytest

from sympdiff.atlas import indecomposable_reps, norm_quadratic
from sympdiff.decide import decide_extension, pair_context
from sympdiff.errors import DifferenceInBaseField, NeedsIrreducibleInventory
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.linalg import companion, direct_sum
from sympdiff.poly import Poly, monic_polys
from sympdiff.sympform import isometry_test, symplectic_extension, validate_pair


GOLDENS = {
    "split-simple-simple": ("GF(3)", "t^2-t", "t^2-t", 2, None, [
        (1, {"r": "t+1", "n": 1}, 2),
        (3, {"x": "0", "n": 1}, 1),
        (3, {"x": "0", "n": 2}, 2),
        (3, {"x": "1", "partner": "2", "sizes": (1, 1)}, 2),
        (3, {"x": "1", "partner": "2", "sizes": (1, 0)}, 1),
        (3, {"x": "2", "partner": "1", "sizes": (1, 1)}, 2),
        (3, {"x": "2", "partner": "1", "sizes": (1, 0)}, 1),
    ]),
    # sizes (n, n), then (n+1, n), then (n+2, n) at each root
    "split-mixed": ("GF(3)", "t^2", "t^2+t", 4, None, [
        (1, {"r": "t+1", "n": 1}, 2),
        (1, {"r": "t+1", "n": 2}, 4),
        (1, {"r": "t+2", "n": 1}, 2),
        (1, {"r": "t+2", "n": 2}, 4),
        (1, {"r": "t^2+1", "n": 1}, 4),
        (1, {"r": "t^2+t+2", "n": 1}, 4),
        (1, {"r": "t^2+2*t+2", "n": 1}, 4),
        (4, {"x": "0", "partner": "1", "sizes": (1, 1)}, 2),
        (4, {"x": "0", "partner": "1", "sizes": (2, 2)}, 4),
        (4, {"x": "0", "partner": "1", "sizes": (1, 0)}, 1),
        (4, {"x": "0", "partner": "1", "sizes": (2, 1)}, 3),
        (4, {"x": "0", "partner": "1", "sizes": (2, 0)}, 2),
        (4, {"x": "0", "partner": "1", "sizes": (3, 1)}, 4),
        (4, {"x": "1", "partner": "0", "sizes": (1, 1)}, 2),
        (4, {"x": "1", "partner": "0", "sizes": (2, 2)}, 4),
        (4, {"x": "1", "partner": "0", "sizes": (1, 0)}, 1),
        (4, {"x": "1", "partner": "0", "sizes": (2, 1)}, 3),
        (4, {"x": "1", "partner": "0", "sizes": (2, 0)}, 2),
        (4, {"x": "1", "partner": "0", "sizes": (3, 1)}, 4),
    ]),
    # the larger exponent on the first translate, then on the second
    "split-distinct-translates": ("GF(3)", "t^2+t", "t^2+1", 4, None, [
        (1, {"r": "t", "n": 1}, 2),
        (1, {"r": "t", "n": 2}, 4),
        (1, {"r": "t+1", "n": 1}, 2),
        (1, {"r": "t+1", "n": 2}, 4),
        (1, {"r": "t+2", "n": 1}, 2),
        (1, {"r": "t+2", "n": 2}, 4),
        (1, {"r": "t^2+1", "n": 1}, 4),
        (1, {"r": "t^2+t+2", "n": 1}, 4),
        (6, {"translates": ("t^2+1", "t^2+2*t+2"), "sizes": (1, 1)}, 4),
        (6, {"translates": ("t^2+1", "t^2+2*t+2"), "larger": "first",
             "sizes": (1, 0)}, 2),
        (6, {"translates": ("t^2+1", "t^2+2*t+2"), "larger": "second",
             "sizes": (1, 0)}, 2),
    ]),
    "double-double": ("GF(3)", "t^2", "t^2", 4, None, [
        (1, {"r": "t+1", "n": 1}, 2),
        (1, {"r": "t+1", "n": 2}, 4),
        (1, {"r": "t+2", "n": 1}, 2),
        (1, {"r": "t+2", "n": 2}, 4),
        (1, {"r": "t^2+1", "n": 1}, 4),
        (1, {"r": "t^2+t+2", "n": 1}, 4),
        (1, {"r": "t^2+2*t+2", "n": 1}, 4),
        (2, {"x": "0", "n": 1}, 1),
        (2, {"x": "0", "n": 2}, 2),
        (2, {"x": "0", "n": 3}, 3),
        (2, {"x": "0", "n": 4}, 4),
    ]),
    # n = 3 is absent: its doubled block has dimension 12 > 8
    "distinct-special": ("GF(2)(s)", "t^2+t+1", "t^2+t+s", 8, [], [
        (10, {"quadratic": "t^2+t+(s+1)", "n": 1, "blocks": 2}, 4),
        (10, {"quadratic": "t^2+t+(s+1)", "n": 2, "blocks": 1}, 4),
        (10, {"quadratic": "t^2+t+(s+1)", "n": 4, "blocks": 1}, 8),
    ]),
}


@pytest.mark.parametrize("case", GOLDENS)
def test_rows_golden(case):
    spec, pt, qt, bound, inventory, expected = GOLDENS[case]
    ctx = field_make(spec)
    pc = pair_context(parse_poly(ctx, pt), parse_poly(ctx, qt))
    rows = indecomposable_reps(pc, bound, irreducibles=inventory)
    assert [(r.table, r.params, r.dim) for r in rows] == expected


def test_rows_decide_yes_and_give_valid_pairs(F2, F3):
    for ctx, pt, qt in [
        (F3, "t^2-t", "t^2-t"),
        (F3, "t^2+1", "t^2+1"),
        (F2, "t^2+t+1", "t^2+t+1"),
        (F3, "t^2+1", "t^2+t+2"),
    ]:
        pc = pair_context(parse_poly(ctx, pt), parse_poly(ctx, qt))
        rows = indecomposable_reps(pc, 4)
        assert rows
        for row in rows:
            assert 1 <= row.dim <= 4
            assert row.rep.rows == row.dim
            assert decide_extension(row.rep, pc).ok
            pair = symplectic_extension(row.rep)
            assert validate_pair(pair.B, pair.U).ok


def test_rows_closed_under_root_pairing_symmetry(F3):
    pc = pair_context(parse_poly(F3, "t^2-t"), parse_poly(F3, "t^2-t"))
    rows = indecomposable_reps(pc, 2)
    balanced = [r for r in rows if r.table == 3 and r.params.get("sizes") == (1, 1)]
    assert len(balanced) == 2  # x = 1 and its partner x = 2
    a, b = balanced
    assert isometry_test(
        symplectic_extension(a.rep), symplectic_extension(b.rep)
    )
    singles = [r for r in rows if r.table == 3 and r.params.get("sizes") == (1, 0)]
    assert not isometry_test(
        symplectic_extension(singles[0].rep), symplectic_extension(singles[1].rep)
    )


def test_rows_grow_monotonically_with_bound(F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    small = {(r.table, r.rep) for r in indecomposable_reps(pc, 2)}
    large = {(r.table, r.rep) for r in indecomposable_reps(pc, 4)}
    assert small < large


def test_equal_translates_deduplicated(Q):
    # q = t^2 has the double root 0, so both translates of p coincide and
    # each power appears exactly once
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2"))
    rows = indecomposable_reps(pc, 4, irreducibles=[])
    assert [(r.table, r.params["n"]) for r in rows] == [(5, 1), (5, 2)]


def test_same_field_rows_over_rationals(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))
    rows = indecomposable_reps(pc, 6, irreducibles=[])
    assert len(rows) == 6
    quads = {r.params["norm_quadratic"] for r in rows}
    assert quads == {"t^2+1", "t^2+9"}
    assert sorted(r.params["n"] for r in rows) == [1, 1, 2, 2, 3, 3]


def test_same_field_shift_rows(Q):
    # p = q: the in-field difference 0 contributes doubled odd blocks and
    # single even blocks
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    rows = indecomposable_reps(pc, 4, irreducibles=[])
    shift_rows = [
        (r.params["n"], r.params["blocks"], r.dim)
        for r in rows
        if "shift" in r.params
    ]
    # n = 3 is absent: its doubled block has dimension 6 > 4
    assert shift_rows == [(1, 2, 2), (2, 1, 2), (4, 1, 4)]


def test_norm_quadratic_goldens(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))
    assert norm_quadratic(pc, 0) == parse_poly(Q, "t^2+9")
    assert norm_quadratic(pc, 1) == parse_poly(Q, "t^2+1")

    pc_eq = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    assert norm_quadratic(pc_eq, 0) == parse_poly(Q, "t^2+4")
    with pytest.raises(DifferenceInBaseField):
        norm_quadratic(pc_eq, 1)
    with pytest.raises(ValueError):
        norm_quadratic(pc_eq, 2)


def test_infinite_field_needs_inventory(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))
    with pytest.raises(NeedsIrreducibleInventory):
        indecomposable_reps(pc, 4)


def test_inventory_regular_rows_over_rationals(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))
    t = Poly.t(Q)
    rows = indecomposable_reps(pc, 4, irreducibles=[t])
    # irreducibility of a quartic over Q is not decided, so t^4 + 2 is
    # trusted, and then skipped: its rows need dimension 8 > 4
    assert indecomposable_reps(pc, 4, irreducibles=[t, parse_poly(Q, "t^4+2")]) == rows
    regular = [r for r in rows if r.table == 1]
    assert [(r.params["r"], r.params["n"]) for r in regular] == [("t", 1), ("t", 2)]
    assert regular[0].rep == companion(parse_poly(Q, "t^2"))


def test_inventory_validation(Q, F3):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))
    with pytest.raises(ValueError):
        indecomposable_reps(pc, 4, irreducibles=[parse_poly(Q, "2*t+1")])
    with pytest.raises(ValueError):
        indecomposable_reps(pc, 4, irreducibles=[parse_poly(Q, "t^2-1")])
    with pytest.raises(ValueError):
        indecomposable_reps(pc, 4, irreducibles=[parse_poly(F3, "t")])
    with pytest.raises(ValueError):
        indecomposable_reps(pc, 0)


def test_inventory_over_an_equal_field_context(Q):
    # an unpickled Q is equal to Q but another object: the decision accepts
    # polynomials over it, and so does the inventory
    Q2 = pickle.loads(pickle.dumps(Q))
    assert Q2 == Q and Q2 is not Q
    inventory = [parse_poly(Q, "t-1")]

    def rows(ctx):
        pc = pair_context(parse_poly(ctx, "t^2+1"), parse_poly(ctx, "t^2+4"))
        found = indecomposable_reps(pc, 4, irreducibles=inventory)
        return [(r.table, r.params, r.rep) for r in found]

    assert rows(Q2) == rows(Q)
    assert {"r": "t-1", "n": 2} in [params for _, params, _ in rows(Q2)]


def _sum_relation_plans():
    """(pair context, row bound, inventory): every (p, q) over GF(2), GF(3),
    GF(4) and GF(5), then criterion 11's Q and GF(2)(s) pairs with its
    inventories."""
    plans = []
    for spec, bound in (("GF(2)", 3), ("GF(3)", 3), ("GF(4)|t^2+t+1", 2), ("GF(5)", 2)):
        quads = list(monic_polys(field_make(spec), 2))
        plans += [(pair_context(p, q), bound, None) for p in quads for q in quads]
    for spec, inventory, pairs in (
        ("Q", ("t", "t+1", "t^2-2"), (
            ("t^2-2*t+1", "t^2"), ("t^2-t", "t^2-t"), ("t^2-t", "t^2"),
            ("t^2+1", "t^2"), ("t^2+1", "t^2-1"), ("t^2+1", "t^2+4"),
            ("t^2+1", "t^2-2"),
        )),
        ("GF(2)(s)", ("t", "t+1", "t^2+t+s"), (
            ("t^2+t+1", "t^2+t+s"), ("t^2+t+1", "t^2+s*t+s"),
            ("t^2+s", "t^2+s^3"), ("t^2+t+1", "t^2+t+1"),
        )),
    ):
        ctx = field_make(spec)
        inv = [parse_poly(ctx, r) for r in inventory]
        plans += [
            (pair_context(parse_poly(ctx, p), parse_poly(ctx, q)), 4, inv)
            for p, q in pairs
        ]
    return plans


def test_sums_of_rows_decide_yes():
    """The sum relation: a direct sum of catalogue rows is a direct sum of
    symplectic (p,q)-differences, so it decides YES.  The rows come from
    the exceptional-shapes table through the catalogue and the decision
    reads the same table, so the two readers are checked against each
    other on v of dimension 12 and more, beyond the reach of brute force."""
    rng = random.Random(31)
    plans = _sum_relation_plans()
    sums = dims = 0
    for pc, bound, inventory in plans:
        rows = indecomposable_reps(pc, bound, irreducibles=inventory)
        for _ in range(2):
            picked = [rng.choice(rows) for _ in range(rng.randint(2, 4))]
            v = direct_sum(*(row.rep for row in picked))
            report = decide_extension(v, pc)
            assert report.ok, (
                pc.p, pc.q, [row.params for row in picked], report.failing_evidence
            )
            sums, dims = sums + 1, max(dims, v.rows)
    assert sums == 2 * len(plans) == 1978 and dims >= 12


def test_regular_rows_skip_factors_sharing_roots_with_F(F2):
    # over GF(2) with p = q = t^2 + t: F = t^2 (t+1)^2 and r = t + 1 gives
    # r(sigma) = (t+1)^2 sharing the root 1 with F, so only coprime r survive
    pc = pair_context(parse_poly(F2, "t^2+t"), parse_poly(F2, "t^2+t"))
    rows = indecomposable_reps(pc, 4)
    regular_rs = {r.params["r"] for r in rows if r.table == 1}
    assert "t" not in regular_rs and "t+1" not in regular_rs
    assert "t^2+t+1" in regular_rs
