"""End-to-end CLI tests: JSON in, JSON out, exit codes 0/2/1."""

import io
import json
import sys
import time

import pytest

from sympdiff.cli import cli_run
from sympdiff.decide import pair_context
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.linalg import companion
from sympdiff.serialize import decode_mat, encode_pair
from sympdiff.sympform import symplectic_extension


def run(capsys, argv):
    code = cli_run(argv)
    return code, capsys.readouterr().out


def lines_of(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_classify_reports_family_and_derived_data(capsys):
    code, out = run(capsys, [
        "classify", "--field", "GF(2)(s)", "--p", "t^2+t+s", "--q", "t^2+t+s+1",
    ])
    obj = json.loads(out)
    assert code == 0
    assert obj["family"] == "irreducible-distinct-fields-special"
    assert obj["swapped"] is False
    assert obj["delta"] == "0"
    assert obj["F"] == "t^4+t^2+1"
    assert set(obj) >= {"p", "q", "normalized_p", "normalized_q", "Lambda"}


def test_decide_yes_exits_zero(capsys):
    code, out = run(capsys, [
        "decide", "--field", "Q", "--p", "t^2+2", "--q", "t^2+2",
        "--v", "companion:t^2+1",
    ])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "yes"
    assert obj["regular_ok"] and obj["exceptional_ok"]


def test_decide_no_exits_two_with_evidence(capsys):
    code, out = run(capsys, [
        "decide", "--field", "Q", "--p", "t^2+2", "--q", "t^2+2",
        "--v", "companion:t+1",
    ])
    obj = json.loads(out)
    assert code == 2
    assert obj["verdict"] == "no"
    assert "not a polynomial in" in obj["failing_evidence"]


def test_decide_accepts_pair_json_on_stdin(capsys, monkeypatch, F3):
    P = symplectic_extension(companion(parse_poly(F3, "t^2+2")))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(encode_pair(P))))
    code, out = run(capsys, [
        "decide", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--pair", "-",
    ])
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_witness_yes_carries_verification(capsys):
    code, out = run(capsys, [
        "witness", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--v", "companion:t^2+2",
    ])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "yes"
    assert obj["verification"]["ok"] is True
    assert obj["verification"]["failures"] == []
    u1 = decode_mat(obj["witness"]["U1"])
    assert u1.rows == u1.cols == 4


def test_witness_over_a_large_prime_with_a_free_coordinate(capsys):
    # the residual's solution space has one free coordinate over GF(2^61 - 1)
    start = time.monotonic()
    code, out = run(capsys, [
        "witness", "--field", "GF(2305843009213693951)", "--p", "t^2-1",
        "--q", "(t+4)*(t+6)", "--v", "companion:t-5",
    ])
    assert time.monotonic() - start < 5.0
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "yes"
    assert obj["verification"]["ok"] is True


def test_witness_no_exits_two_with_decision(capsys):
    code, out = run(capsys, [
        "witness", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--v", "companion:t+1",
    ])
    obj = json.loads(out)
    assert code == 2
    assert obj["verdict"] == "no"
    assert obj["decision"]["verdict"] == "no"


def test_witness_no_reuses_the_decision(capsys, monkeypatch):
    import sympdiff.cli
    import sympdiff.witness
    from sympdiff.decide import decide_extension

    argv = ["--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
            "--v", "companion:t+1;t^2+2"]
    code, decided = run(capsys, ["decide"] + argv)
    assert code == 2
    calls = []

    def counting(v, pctx):
        calls.append(v)
        return decide_extension(v, pctx)

    monkeypatch.setattr(sympdiff.cli, "decide_extension", counting)
    monkeypatch.setattr(sympdiff.witness, "decide_extension", counting)
    code, out = run(capsys, ["witness"] + argv)
    assert code == 2
    assert len(calls) == 1
    obj = json.loads(out)
    assert obj["verdict"] == "no"
    assert json.dumps(obj["decision"], indent=2) + "\n" == decided


def test_witness_verifies_once(capsys, monkeypatch):
    import sympdiff.cli
    import sympdiff.witness
    from sympdiff.witness import verify_witness

    calls = []

    def counting(w, pctx):
        calls.append(w)
        return verify_witness(w, pctx)

    monkeypatch.setattr(sympdiff.cli, "verify_witness", counting)
    monkeypatch.setattr(sympdiff.witness, "verify_witness", counting)
    code, out = run(capsys, [
        "witness", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--v", "companion:t^2+2",
    ])
    assert code == 0
    assert json.loads(out)["verification"]["ok"] is True
    assert len(calls) == 1


def test_witness_pair_decides_once(capsys, monkeypatch, F3):
    import sympdiff.decide

    calls = []
    decide = sympdiff.decide._decide

    def counting(pctx, factors, dimension):
        calls.append(factors)
        return decide(pctx, factors, dimension)

    monkeypatch.setattr(sympdiff.decide, "_decide", counting)
    P = symplectic_extension(companion(parse_poly(F3, "t^2+2")))
    code, out = run(capsys, [
        "witness", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--pair", json.dumps(encode_pair(P)),
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "yes" and obj["verification"]["ok"] is True
    assert len(calls) == 1


def test_witness_residual_above_candidate_cap_is_null(capsys):
    # GF(5), v = 0 in dimension 4: decided YES, but the residual search
    # would scan 5^28 > 2^63 candidates
    code, out = run(capsys, [
        "witness", "--field", "GF(5)", "--p", "t^2", "--q", "t^2",
        "--v", "companion:t;t;t;t", "--bound", "8",
    ])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "yes" and obj["witness"] is None


@pytest.mark.parametrize("spec, p", [
    ("GF(10000019)", "t^2+3"),
    ("GF(2305843009213693951)", "t^2+3"),
    ("Q", "t^2+100000000000000000001"),
])
def test_large_fields_answer_quickly(capsys, spec, p):
    # root finding by square roots: no field scan, no divisor enumeration
    ctx = field_make(spec)
    start = time.monotonic()
    pair_context(parse_poly(ctx, p), parse_poly(ctx, "t^2-1"))
    assert time.monotonic() - start < 1.0
    start = time.monotonic()
    code, out = run(capsys, [
        "decide", "--field", spec, "--p", p, "--q", "t^2-1",
        "--v", "companion:t^2+1",
    ])
    assert time.monotonic() - start < 1.0
    assert code == 0 and json.loads(out)["verdict"] == "yes"


def test_witness_yes_without_construction_is_flagged(capsys):
    # decided YES over Q, but the factor is not sigma-decomposable and the
    # brute-force fallback needs a finite field: witness declined with a note
    code, out = run(capsys, [
        "witness", "--field", "Q", "--p", "t^2-1", "--q", "t^2-1",
        "--v", "companion:t-2",
    ])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "yes"
    assert obj["witness"] is None
    assert "no constructive witness" in obj["note"]


def test_verify_round_trip_through_file(capsys, tmp_path):
    _, out = run(capsys, [
        "witness", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--v", "companion:t^2+2",
    ])
    witness_obj = json.loads(out)["witness"]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_obj))

    code, out = run(capsys, [
        "verify", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--witness", str(path),
    ])
    assert code == 0
    assert json.loads(out)["ok"] is True

    witness_obj["U1"]["entries"][0][0] = (
        witness_obj["U1"]["entries"][0][0] + 1
    ) % 3
    path.write_text(json.dumps(witness_obj))
    code, out = run(capsys, [
        "verify", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
        "--witness", str(path),
    ])
    obj = json.loads(out)
    assert code == 2
    assert obj["ok"] is False
    assert obj["failures"]


def test_enumerate_emits_one_json_line_per_row(capsys):
    code, out = run(capsys, [
        "enumerate", "--field", "GF(3)", "--p", "t^2-t", "--q", "t^2-t",
        "--dim", "2",
    ])
    rows = lines_of(out)
    assert code == 0
    assert len(rows) == 7
    assert sorted({r["table"] for r in rows}) == [1, 3]
    for r in rows:
        rep = decode_mat(r["rep"])
        assert rep.rows == rep.cols == r["dim"] <= 2


def test_oracle_cli_serial_and_parallel_agree(capsys):
    code, out = run(capsys, ["oracle", "--field", "GF(2)", "--dim", "2"])
    serial = json.loads(out)
    assert code == 0
    assert serial["ok"] is True
    assert serial["total"] == 32  # 4 p's x 4 q's x 2 chains

    code, out = run(capsys, [
        "oracle", "--field", "GF(2)", "--dim", "2", "--jobs", "2",
    ])
    parallel = json.loads(out)
    assert code == 0
    assert parallel["matrix"] == serial["matrix"]
    assert parallel["total"] == serial["total"]


def test_oracle_jobs_bounded_by_polys_and_cpus(capsys, monkeypatch):
    import concurrent.futures
    import os

    pools = []

    class SerialPool:  # records the pool size, forks nothing
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["oracle", "--field", "GF(2)", "--dim", "2", "--jobs", "5000"]
    code, out = run(capsys, argv)
    assert code == 0 and json.loads(out)["total"] == 32
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, out = run(capsys, argv)  # GF(2) has 4 monic quadratics p
    assert code == 0 and json.loads(out)["total"] == 32
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    code, out = run(capsys, argv)  # one worker: no pool at all
    assert code == 0
    assert pools == [3, 4]


def test_errors_are_structured_json(capsys):
    code, out = run(capsys, [
        "classify", "--field", "GF(6)", "--p", "t^2+1", "--q", "t^2+1",
    ])
    obj = json.loads(out)
    assert code == 1
    assert obj["error"]["type"] == "FieldSpecError"

    for argv in (
        ["decide", "--field", "Q", "--p", "t^2+1", "--q", "t^2+1"],
        ["decide", "--field", "Q", "--p", "t^2+1", "--q", "t^2+1",
         "--v", "companion:t", "--pair", "{}"],
        [],
    ):
        code, out = run(capsys, argv)
        assert code == 1
        assert "error" in json.loads(out)


_PQ = ["--p", "t^2+1", "--q", "t^2+1"]


@pytest.mark.parametrize("argv, error_type", [
    (["oracle", "--field", "GF(2)", "--dim", "3"], "InvalidArgument"),
    (["enumerate", "--field", "GF(3)", *_PQ, "--dim", "0"], "InvalidArgument"),
    (["enumerate", "--field", "Q", *_PQ, "--dim", "4", "--inventory", "t^2-1"],
     "InvalidArgument"),
    (["decide", "--field", "Q", *_PQ, "--v", '{"entries": 5}'],
     "SerializationError"),
    (["decide", "--field", "GF(4)|t^2+t+1", *_PQ,
      "--v", '{"rows": 1, "cols": 1, "entries": [[[1, "a"]]]}'],
     "SerializationError"),
    (["decide", "--field", "GF(2)(s)", *_PQ,
      "--v", '{"rows": 1, "cols": 1, "entries": [[{"num": 5, "den": [1]}]]}'],
     "SerializationError"),
    (["classify", "--field", "Q", "--p", "t^100000000", "--q", "t^2"], "ParseError"),
])
def test_malformed_arguments_are_structured_errors(capsys, argv, error_type):
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error_type


def test_selftest_exit_code_tracks_results(capsys, monkeypatch):
    import sympdiff.acceptance as acceptance

    class Fake:
        def __init__(self, number, passed):
            self.number = number
            self.name = f"criterion-{number}"
            self.passed = passed
            self.detail = "stub"
            self.seconds = 0.0

    monkeypatch.setattr(acceptance, "run_all", lambda seed=0: [Fake(1, True), Fake(2, True)])
    code, out = run(capsys, ["selftest"])
    assert code == 0
    assert [r["passed"] for r in json.loads(out)] == [True, True]

    monkeypatch.setattr(acceptance, "run_all", lambda seed=0: [Fake(1, True), Fake(2, False)])
    code, out = run(capsys, ["selftest", "--seed", "7"])
    assert code == 1
    assert [r["passed"] for r in json.loads(out)] == [True, False]
