"""JSON round-trips for scalars, polynomials, matrices, pairs, witnesses.

Report encoders are encode-only; for those we check the output survives
json.dumps and carries the expected keys.
"""

import json
import random
from pathlib import Path

import pytest

from sympdiff.atlas import indecomposable_reps
from sympdiff.decide import decide_extension, decide_pair, pair_context
from sympdiff.errors import DivisionByZero, SerializationError
from sympdiff.exprparse import parse_poly, parse_scalar
from sympdiff.fields import field_make, field_spec
from sympdiff.linalg import Mat, companion, direct_sum
from sympdiff.oracle import oracle_sweep
from sympdiff.serialize import (
    decode_mat,
    decode_pair,
    decode_poly,
    decode_scalar,
    decode_witness,
    encode_decision_report,
    encode_mat,
    encode_pair,
    encode_poly,
    encode_scalar,
    encode_sweep_report,
    encode_table_row,
    encode_validity_report,
    encode_verification_report,
    encode_witness,
)
from sympdiff.sympform import symplectic_extension, validate_pair
from sympdiff.witness import duplication_witness, verify_witness

F4 = field_make("GF(4)|t^2+t+1")


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------


def test_scalar_round_trip_prime(F3):
    for n in range(3):
        a = F3.from_int(n)
        enc = encode_scalar(F3, a)
        assert isinstance(enc, int)
        assert decode_scalar(F3, enc) == a
        assert json.dumps(enc)


def test_scalar_round_trip_rationals(Q):
    half = parse_scalar(Q, "1/2")
    assert encode_scalar(Q, half) == "1/2"
    assert decode_scalar(Q, "1/2") == half
    assert decode_scalar(Q, "-3/4") == parse_scalar(Q, "-3/4")
    # integer-valued rationals encode as plain ints
    assert encode_scalar(Q, Q.from_int(7)) == 7
    assert decode_scalar(Q, 7) == Q.from_int(7)


def test_scalar_round_trip_extension():
    g = decode_scalar(F4, [0, 1])
    assert g not in (F4.zero, F4.one)
    assert encode_scalar(F4, g) == [0, 1]
    # short lists are padded, ints lift via the prime subfield
    assert decode_scalar(F4, [1]) == F4.one
    assert decode_scalar(F4, 1) == F4.one


def test_scalar_round_trip_ratfunc(F2s):
    s = F2s.gen
    a = F2s.add(s, F2s.one)  # s + 1
    enc = encode_scalar(F2s, a)
    assert enc == {"num": [1, 1], "den": [1]}
    assert decode_scalar(F2s, enc) == a
    # non-canonical input is reduced on decode: (s^2+s)/(s+1) == s
    messy = {"num": [0, 1, 1], "den": [1, 1]}
    assert decode_scalar(F2s, messy) == s


def test_ratfunc_decode_is_canonical(F2s):
    # untrimmed coefficient lists decode to the canonical scalar
    assert decode_scalar(F2s, {"num": [1, 0], "den": [1]}) == F2s.one
    assert decode_scalar(F2s, {"num": [0, 1], "den": [1, 0, 0]}) == F2s.gen
    F3s = field_make("GF(3)(s)")
    zero = decode_scalar(F3s, {"num": [3], "den": [1]})
    assert F3s.is_zero(zero) and zero == F3s.zero
    with pytest.raises(DivisionByZero):
        decode_scalar(F2s, {"num": [1], "den": [0]})
    with pytest.raises(DivisionByZero):
        decode_scalar(F3s, {"num": [1], "den": [3, 6]})


def test_scalar_grammar_strings_accepted(F5, F2s):
    assert decode_scalar(F5, "2+2") == F5.from_int(4)
    assert decode_scalar(F2s, "s^2+1") == F2s.mul(
        F2s.add(F2s.gen, F2s.one), F2s.add(F2s.gen, F2s.one)
    )


def test_scalar_rejections(F3, F2s):
    with pytest.raises(SerializationError):
        decode_scalar(F3, True)  # bool is not an int scalar
    with pytest.raises(SerializationError):
        decode_scalar(F4, [1, 0, 1])  # three coefficients, degree-2 field
    with pytest.raises(SerializationError):
        decode_scalar(F2s, {"num": [1]})  # missing "den"
    with pytest.raises(SerializationError):
        decode_scalar(F3, 1.5)


@pytest.mark.parametrize(
    "obj",
    [
        [1.7, True],  # would truncate to (1, 1)
        [1, True],
        [0, "1"],
        [1.0],
    ],
)
def test_extension_coefficients_must_be_ints(obj):
    with pytest.raises(SerializationError):
        decode_scalar(F4, obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"num": [1.9, "1"], "den": [1]},  # would truncate to s+1
        {"num": [1, 1], "den": [True]},
        {"num": [1], "den": "1"},
    ],
)
def test_ratfunc_coefficients_must_be_ints(F2s, obj):
    with pytest.raises(SerializationError):
        decode_scalar(F2s, obj)


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, text",
    [
        ("GF(3)", "t^2+2*t+1"),
        ("Q", "t^3-1/2*t+7"),
        ("GF(4)|t^2+t+1", "t^2+t+1"),
        ("GF(2)(s)", "t^2+s*t+s"),
    ],
)
def test_poly_round_trip(spec, text):
    ctx = field_make(spec)
    f = parse_poly(ctx, text)
    obj = encode_poly(f)
    assert obj["field"] == field_spec(ctx)
    assert json.dumps(obj)
    assert decode_poly(obj) == f
    assert decode_poly(obj, ctx) == f  # ctx cross-check passes


def test_poly_grammar_string_needs_ctx(F3):
    assert decode_poly("t^2+1", F3) == parse_poly(F3, "t^2+1")
    with pytest.raises(SerializationError):
        decode_poly("t^2+1")


def test_poly_field_mismatch(F3, F5):
    obj = encode_poly(parse_poly(F3, "t+1"))
    with pytest.raises(SerializationError):
        decode_poly(obj, F5)


def test_poly_bad_objects(F3):
    with pytest.raises(SerializationError):
        decode_poly({"field": "GF(3)"})  # no coeffs
    with pytest.raises(SerializationError):
        decode_poly(42, F3)
    with pytest.raises(SerializationError):
        decode_poly({"coeffs": [1, 2]})  # no field key, no ctx
    for spec in (["GF(3)"], {}, 3):
        with pytest.raises(SerializationError, match="is not a string"):
            decode_poly({"field": spec, "coeffs": [1, 1]}, F3)


# ----------------------------------------------------------------------
# matrices, pairs, witnesses
# ----------------------------------------------------------------------


def test_mat_round_trip(F3, Q):
    for ctx, text in [(F3, "t^2+2*t+2"), (Q, "t^2-1/3")]:
        m = companion(parse_poly(ctx, text))
        obj = encode_mat(m)
        assert obj["rows"] == obj["cols"] == 2
        assert json.dumps(obj)
        assert decode_mat(obj) == m
        assert decode_mat(obj, ctx) == m


def test_mat_shape_defaults_and_mismatch(F3):
    m = decode_mat({"field": "GF(3)", "entries": [[1, 2], [0, 1]]})
    assert (m.rows, m.cols) == (2, 2)
    with pytest.raises(SerializationError):
        decode_mat({"field": "GF(3)", "rows": 3, "cols": 2, "entries": [[1, 2]]})
    with pytest.raises(SerializationError):
        decode_mat({"field": "GF(3)", "entries": [[1, 2], [3]]})
    with pytest.raises(SerializationError):
        decode_mat([[1, 2]], F3)  # not a dict
    with pytest.raises(SerializationError):
        decode_mat({"entries": [[1]]})  # no field key, no ctx


@pytest.mark.parametrize("key", ["rows", "cols"])
@pytest.mark.parametrize("bad", [True, 1.0, "1", -3])
def test_mat_shape_must_be_a_plain_int(key, bad):
    # True == 1 == 1.0, so only the type tells these from the shape 1 x 1
    obj = {"field": "GF(3)", "rows": 1, "cols": 1, "entries": [[1]]}
    assert decode_mat(obj).entries == ((1,),)
    with pytest.raises(SerializationError, match=repr(key)):
        decode_mat(dict(obj, **{key: bad}))
    # an empty grid has no row to check a (negative) width against
    empty = {"field": "GF(3)", "rows": 0, "cols": 0, "entries": []}
    assert decode_mat(empty).cols == 0
    with pytest.raises(SerializationError, match=repr(key)):
        decode_mat(dict(empty, **{key: bad}))


CODEC_FIELDS = ["GF(3)", "Q", "GF(4)|t^2+t+1", "GF(2)(s)"]

# (refused scalar, an accepted scalar equal to it in Python where one exists)
REFUSED_AFTER_TWIN = [
    (True, 1),
    (1.0, 1),
    ([1, True], [1, 1]),
    ({"num": [1], "den": [True]}, {"num": [1], "den": [1]}),
]


@pytest.mark.parametrize("spec", CODEC_FIELDS)
@pytest.mark.parametrize("refused, twin", REFUSED_AFTER_TWIN)
def test_mat_refuses_a_scalar_after_its_accepted_twin(spec, refused, twin):
    """The memoized grid decode keys entries by exact JSON type: a refused
    scalar equal to an earlier accepted one still raises decode_scalar's
    error."""
    ctx = field_make(spec)
    with pytest.raises(SerializationError) as want:
        decode_scalar(ctx, refused)
    try:
        decode_scalar(ctx, twin)
    except SerializationError:
        twin = 1  # not a scalar of this kind: accepted ones before it
    obj = {"field": spec, "entries": [[twin, twin], [twin, refused]]}
    with pytest.raises(SerializationError) as got:
        decode_mat(obj)
    assert str(got.value) == str(want.value)


def _json_scalars(ctx, rng):
    """A pool of JSON forms of scalars over ``ctx``: ints, grammar strings
    and the kind's own schema, some equal in value, none refused."""
    pool = [0, 1, -1, 2, 7, "1", "0", "2", " 1"]
    if ctx.kind == "rationals":
        pool += ["1/2", "-3/4", "2/4"]
    if ctx.kind == "extension":
        pool += [[1, 0], [0, 1], [1, 1], [1], []]
    if ctx.kind == "ratfunc":
        pool += [{"num": [0, 1], "den": [1]}, {"num": [1, 1], "den": [1, 1]},
                 {"num": [1], "den": [0, 1]}, "s", "s+1"]
    return [rng.choice(pool) for _ in range(12 * 12)]


@pytest.mark.parametrize("spec", CODEC_FIELDS)
def test_mat_grid_decodes_as_entry_by_entry(spec):
    ctx = field_make(spec)
    flat = _json_scalars(ctx, random.Random(spec))
    grid = [flat[i:i + 12] for i in range(0, len(flat), 12)]
    want = Mat(ctx, [[decode_scalar(ctx, e) for e in row] for row in grid])
    assert decode_mat({"field": spec, "entries": grid}) == want
    assert decode_mat(encode_mat(want)) == want


def test_pair_round_trip(F5):
    P = symplectic_extension(companion(parse_poly(F5, "t^2+2")))
    obj = encode_pair(P)
    assert json.dumps(obj)
    back = decode_pair(obj)
    assert back.B == P.B and back.U == P.U
    with pytest.raises(SerializationError):
        decode_pair({"B": encode_mat(P.B)})


def test_witness_round_trip(F3):
    pctx = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    w = duplication_witness(pctx, parse_poly(F3, "t+2"))
    obj = encode_witness(w)
    assert json.dumps(obj)
    back = decode_witness(obj, F3)
    assert back == w
    with pytest.raises(SerializationError):
        decode_witness({"B": encode_mat(w.B), "U": encode_mat(w.U)})
    with pytest.raises(SerializationError):
        decode_witness("not a witness")


# ----------------------------------------------------------------------
# report encoders: json-able dictionaries with stable keys
# ----------------------------------------------------------------------


def test_decision_report_encoding(F3):
    pctx = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    rep = decide_extension(companion(parse_poly(F3, "t^2+2")), pctx)
    obj = encode_decision_report(rep, pctx)
    assert json.dumps(obj)
    assert obj["verdict"] == "yes"
    assert obj["p"] == "t^2+1" and obj["q"] == "t^2+1"
    assert obj["invariant_factors"] == ["t^2+2"]
    assert obj["case"]["family"] == "irreducible-same-splitting-field"
    assert obj["regular"][0]["ok"] is True
    # the answer is built fresh: an edit of it leaves the report as it was
    pair_rep = decide_pair(symplectic_extension(companion(parse_poly(F3, "t^2+2"))), pctx)
    pair_obj = encode_decision_report(pair_rep, pctx)
    before = [json.dumps(obj), json.dumps(pair_obj)]
    for evidence in (obj["exceptional"], pair_obj["exceptional"], pair_obj["pair_level"]):
        evidence["parts"][0]["cell_counts"].append(7)
        evidence["criterion"] = "edited"
    after = [json.dumps(encode_decision_report(r, pctx)) for r in (rep, pair_rep)]
    assert after == before


_GOLDENS = json.loads(
    (Path(__file__).with_name("decision_goldens.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", _GOLDENS, ids=[f"{c['shape']}-{c['report']['verdict']}" for c in _GOLDENS]
)
def test_decision_report_goldens(case):
    """One YES and one NO pair in each constrained evidence shape: the
    encoded pair decision is pinned, the extension decision is the same
    without ``pair_level``, and ``pair_level`` checks the same targets as
    the exceptional evidence."""
    ctx = field_make(case["field"])
    pctx = pair_context(parse_poly(ctx, case["p"]), parse_poly(ctx, case["q"]))
    v = direct_sum(*(companion(parse_poly(ctx, f)) for f in case["v"]))
    obj = encode_decision_report(decide_pair(symplectic_extension(v), pctx), pctx)
    assert obj == case["report"]
    ext = encode_decision_report(decide_extension(v, pctx), pctx)
    assert ext == {**obj, "pair_level": None}
    if "parts" in obj["exceptional"]:
        assert [part["at"] for part in obj["pair_level"]["parts"]] == [
            part["at"] for part in obj["exceptional"]["parts"]
        ]
    else:
        assert obj["pair_level"] is None


def test_validity_and_verification_report_encoding(F3):
    pctx = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    P = symplectic_extension(companion(parse_poly(F3, "t^2+2")))
    vobj = encode_validity_report(validate_pair(P.B, P.U))
    assert json.dumps(vobj)
    assert vobj["ok"] is True
    assert vobj["invariant_factors"] == ["t^2+2", "t^2+2"]
    assert vobj["failures"] == []

    w = duplication_witness(pctx, parse_poly(F3, "t+2"))
    robj = encode_verification_report(verify_witness(w, pctx))
    assert json.dumps(robj)
    assert robj["ok"] is True
    assert robj["failures"] == []
    assert robj["difference_matches"] is True


def test_table_row_encoding_lists_tuple_params(F3):
    pctx = pair_context(parse_poly(F3, "t^2-t"), parse_poly(F3, "t^2-t"))
    rows = indecomposable_reps(pctx, 2)
    objs = [encode_table_row(r) for r in rows]
    assert json.dumps(objs)
    sized = [o for o in objs if "sizes" in o["params"]]
    assert sized and all(isinstance(o["params"]["sizes"], list) for o in sized)
    assert all(o["rep"]["rows"] == o["dim"] for o in objs)


def test_sweep_report_encoding(F2):
    t2 = parse_poly(F2, "t^2")
    rep = oracle_sweep(F2, 2, ps=[t2], qs=[t2])
    obj = encode_sweep_report(rep)
    assert json.dumps(obj)
    assert obj["field"] == "GF(2)"
    assert obj["pair_dim"] == 2
    assert obj["ok"] is True
    assert obj["disagreements"] == []
    assert set(obj["matrix"]) == {"yes/yes", "yes/no", "no/yes", "no/no"}
    assert sum(obj["matrix"].values()) == obj["total"]
