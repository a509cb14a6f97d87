"""End-to-end CLI tests: JSON in, JSON out, exit codes 0/2/1."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sympdiff.cli import _build_parser, _dumps_indented, _parse_v, cli_run
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


# a YES instance answered by a duplication block, used by no other test here
MEMO_ARGS = ["--field", "GF(5)", "--p", "t^2+1", "--q", "t^2+2"]
MEMO_V = ["--v", "companion:t^2+3"]


def test_decide_then_witness_factors_v_once(capsys, monkeypatch, cold):
    import sympdiff.linalg

    ctx = field_make("GF(5)")
    cold(ctx)
    v = companion(parse_poly(ctx, "t^2+3"))
    original, of_v = sympdiff.linalg.invariant_factors, []

    def counting(M):
        if M == v:
            of_v.append(M)
        return original(M)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sympdiff") and vars(mod).get("invariant_factors") is original:
            monkeypatch.setattr(mod, "invariant_factors", counting)
    assert run(capsys, ["decide", *MEMO_ARGS, *MEMO_V])[0] == 0
    code, out = run(capsys, ["witness", *MEMO_ARGS, *MEMO_V])
    assert code == 0 and json.loads(out)["verification"]["ok"] is True
    assert len(of_v) == 1
    info = ctx._decision_memo.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_request_sequence_builds_one_pair_context(capsys, cold):
    ctx = field_make("GF(5)")
    cold(ctx)
    assert run(capsys, ["classify", *MEMO_ARGS])[0] == 0
    assert run(capsys, ["decide", *MEMO_ARGS, *MEMO_V])[0] == 0
    code, out = run(capsys, ["witness", *MEMO_ARGS, *MEMO_V])
    witness = json.dumps(json.loads(out)["witness"])
    code, out = run(capsys, ["verify", *MEMO_ARGS, "--witness", witness])
    assert code == 0 and json.loads(out)["ok"] is True
    info = ctx._pair_memo.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_editing_an_encoded_decision_leaves_the_next_answer(capsys, F3):
    from sympdiff.decide import decide_extension
    from sympdiff.serialize import encode_decision_report

    # a NO in the intertwined-pairs shape: dicts and lists in the evidence
    argv = ["decide", "--field", "GF(3)", "--p", "t^2-1", "--q", "t^2+t",
            "--v", "companion:t^2+2;(t-1)^3"]
    first = run(capsys, argv)
    assert first[0] == 2
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2+t"))
    v = _parse_v(F3, argv[-1])
    hits = F3._decision_memo.cache_info().hits
    report = decide_extension(v, pc)
    assert F3._decision_memo.cache_info().hits == hits + 1  # the memo's report
    encoded = encode_decision_report(report, pc)
    encoded["exceptional"]["pairs"][0]["partner_counts"].append(9)
    encoded["exceptional"]["pairs"].clear()
    encoded["exceptional"]["unconstrained_fixed_points"].append("1")
    encoded["exceptional"]["criterion"] = "edited"
    assert run(capsys, argv) == first


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


def test_oracle_cli_serial_and_parallel_agree(capsys, monkeypatch):
    # the workers get the field context by pickle; over GF(4) that context
    # memoizes its products
    from sympdiff import cli

    reports = []
    encode = cli.ser.encode_sweep_report

    def record(report):
        reports.append([
            (i.p, i.q, i.chain, i.decide_yes, i.brute_yes) for i in report.instances
        ])
        return encode(report)

    monkeypatch.setattr(cli.ser, "encode_sweep_report", record)
    # GF(2): 4 p's x 4 q's x 2 chains; GF(4): 16 x 16 x 4
    for field, total in [("GF(2)", 32), ("GF(4)|t^2+t+1", 1024)]:
        code, out = run(capsys, ["oracle", "--field", field, "--dim", "2"])
        serial = json.loads(out)
        assert code == 0
        assert serial["ok"] is True
        assert serial["total"] == total

        code, out = run(capsys, [
            "oracle", "--field", field, "--dim", "2", "--jobs", "2",
        ])
        parallel = json.loads(out)
        assert code == 0
        assert parallel["matrix"] == serial["matrix"]
        assert parallel["total"] == serial["total"]
        assert reports[-1] == reports[-2]


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the process pool with one that forks nothing; returns the
    list of the pool sizes asked for."""
    import concurrent.futures

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
    return pools


def test_oracle_reports_a_disagreement_and_exits_1(capsys, monkeypatch):
    # over GF(2) at p = q = t^2, S(C(t)) is a YES and S(C(t+1)) a NO; a
    # search that finds no witness makes the YES the one disagreement
    from sympdiff import oracle

    monkeypatch.setattr(oracle, "brute_force_witness", lambda *args, **kwargs: None)
    code, out = run(capsys, [
        "oracle", "--field", "GF(2)", "--dim", "2", "--p", "t^2", "--q", "t^2",
    ])
    report = json.loads(out)
    assert code == 1 and report["ok"] is False and report["total"] == 2
    assert report["matrix"] == {"yes/yes": 0, "yes/no": 1, "no/yes": 0, "no/no": 1}
    (record,) = report["disagreements"]
    assert record == {
        "p": "t^2", "q": "t^2", "chain": ["t"], "decide": "yes", "brute": "no",
    }
    assert list(record) == ["p", "q", "chain", "decide", "brute"]


def test_oracle_jobs_bounded_by_polys_and_cpus(capsys, monkeypatch, serial_pool):
    import os

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
    assert serial_pool == [3, 4]


def test_oracle_jobs_reports_wall_time(capsys, monkeypatch, serial_pool):
    # each worker's part claims 1000 s; the sweep reports the pool's wall
    # time, not the sum of its parts
    import os

    from sympdiff import cli

    sweep = cli.oracle_sweep

    def slow_part(*args, **kwargs):
        report = sweep(*args, **kwargs)
        report.seconds = 1000.0
        return report

    monkeypatch.setattr(cli, "oracle_sweep", slow_part)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    start = time.monotonic()
    code, out = run(capsys, [
        "oracle", "--field", "GF(2)", "--dim", "2", "--jobs", "4",
    ])
    elapsed = time.monotonic() - start
    report = json.loads(out)
    assert code == 0 and report["total"] == 32 and serial_pool == [4]
    assert 0 <= report["seconds"] <= elapsed + 0.001


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

# a usage error raised halfway through parsing (--dim is not an int), and a
# valid request through the same subcommand
_REQUESTS = {
    "usage": ["enumerate", "--field", "GF(3)", *_PQ, "--dim", "two"],
    "valid": ["enumerate", "--field", "GF(3)", *_PQ, "--dim", "2"],
}


@pytest.mark.parametrize("order", [("usage", "valid"), ("valid", "usage")])
def test_shared_parser_answers_as_a_fresh_one(capsys, order):
    fresh = {}
    for name, argv in _REQUESTS.items():
        _build_parser.cache_clear()
        fresh[name] = run(capsys, argv)
    assert fresh["usage"][0] == 1 and fresh["valid"][0] == 0
    _build_parser.cache_clear()
    for name in order + order:  # each request, then each again
        assert run(capsys, _REQUESTS[name]) == fresh[name]
    assert _build_parser.cache_info().misses == 1  # one parser for all four
_LONG = "1" * 4400  # past Python's 4,300-digit limit on int(str)
_ZERO = {"field": {}, "entries": [[0, 0], [0, 0]]}


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
    (["decide", "--field", "GF(3)", *_PQ, "--v", f"companion:t+{_LONG}"],
     "ParseError"),
    (["classify", "--field", "GF(3)", "--p", f"t^{_LONG}", "--q", "t^2"],
     "ParseError"),
    (["decide", "--field", "GF(3)", *_PQ,
      "--v", json.dumps({"entries": [[_LONG, 0], [0, 1]]})], "ParseError"),
    (["classify", "--field", f"GF({'7' * 5000})", "--p", "t^2", "--q", "t^2"],
     "FieldSpecError"),
    (["decide", "--field", "GF(3)", *_PQ, "--pair", json.dumps({
        "B": {"field": ["GF(3)"], "entries": [[0, 1], [2, 0]]},
        "U": {"entries": [[0, 0], [0, 0]]},
    })], "SerializationError"),
    (["verify", "--field", "GF(3)", *_PQ, "--witness", json.dumps({
        "B": {"entries": [[0, 1], [2, 0]]}, "U": _ZERO, "U1": _ZERO, "U2": _ZERO,
    })], "SerializationError"),
    (["decide", "--field", "GF(3)", *_PQ, "--v", "companion:;"], "_UsageError"),
])
def test_malformed_arguments_are_structured_errors(capsys, argv, error_type):
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error_type


def test_ratfunc_pair_with_untrimmed_scalars_is_decided(capsys):
    # {"num": [3], "den": [1]} is zero over GF(3)(s): B is alternating
    pair = ('{"B": {"entries": [[{"num": [3], "den": [1]}, 2], [1, 0]]},'
            ' "U": {"entries": [[0, 0], [0, 0]]}}')
    code, out = run(capsys, ["decide", "--field", "GF(3)(s)", *_PQ, "--pair", pair])
    assert code == 2
    assert json.loads(out)["verdict"] == "no"


def _usage_error(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 1
    return json.loads(out)["error"]


@pytest.mark.parametrize("flag", ["--pair", "--witness", "--v"])
def test_invalid_json_file_is_a_usage_error(capsys, tmp_path, flag):
    path = tmp_path / "bad.json"
    path.write_text('{"B": ', encoding="utf-8")
    command = "verify" if flag == "--witness" else "decide"
    err = _usage_error(capsys, [command, "--field", "GF(3)", *_PQ, flag, str(path)])
    assert err["type"] == "_UsageError" and "bad.json" in err["message"]


def test_invalid_json_on_stdin_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    err = _usage_error(capsys, ["decide", "--field", "GF(3)", *_PQ, "--pair", "-"])
    assert err["type"] == "_UsageError"


def test_directory_path_is_a_usage_error(capsys, tmp_path):
    err = _usage_error(capsys, ["decide", "--field", "GF(3)", *_PQ, "--pair", str(tmp_path)])
    assert err["type"] == "_UsageError"


def test_binary_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "pair.bin"
    path.write_bytes(bytes(range(128, 256)))
    err = _usage_error(capsys, ["decide", "--field", "GF(3)", *_PQ, "--pair", str(path)])
    assert err["type"] == "_UsageError"


def test_unreadable_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    import sympdiff.cli as cli

    path = tmp_path / "pair.json"
    path.write_text("{}", encoding="utf-8")

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # chmod cannot stop a superuser from reading, so the refusal is simulated
    monkeypatch.setattr(cli, "open", denied, raising=False)
    err = _usage_error(capsys, ["decide", "--field", "GF(3)", *_PQ, "--pair", str(path)])
    assert err["type"] == "_UsageError" and "Permission denied" in err["message"]


def test_deeply_nested_inline_json_is_a_usage_error(capsys):
    err = _usage_error(capsys, ["decide", "--field", "GF(3)", *_PQ, "--pair", "[" * 100000])
    assert err["type"] == "_UsageError"
    assert len(err["message"]) < 400  # the inline text is shown truncated


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


class _CountingOut(io.StringIO):
    """stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _reference_encoding(out: str, lines: bool) -> str:
    """What ``json.dump`` writes for the JSON values in ``out``: one line
    each without an indent, else one value with indent=2."""
    buf = io.StringIO()
    for text in out.splitlines() if lines else [out]:
        json.dump(json.loads(text), buf, **({} if lines else {"indent": 2}))
        buf.write("\n")
    return buf.getvalue()


def test_every_subcommand_writes_json_dump_bytes_once_per_answer(
    monkeypatch, tmp_path
):
    import sympdiff.acceptance as acceptance

    class Criterion:
        number, name, passed, detail, seconds = 1, "stub", True, "é ✓", 0.25

    monkeypatch.setattr(acceptance, "run_all", lambda seed=0: [Criterion()])
    pq = ["--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1"]
    calls = [
        ["classify", *pq],
        ["decide", *pq, "--v", "companion:t^2+2"],
        ["decide", "--field", "Q", "--p", "t^2+2", "--q", "t^2+2", "--v", "companion:t+1"],
        ["witness", *pq, "--v", "companion:t^2+2"],
        ["verify", *pq, "--witness", str(tmp_path / "witness.json")],
        ["enumerate", "--field", "GF(3)", "--p", "t^2-t", "--q", "t^2-t", "--dim", "2"],
        ["oracle", "--field", "GF(2)", "--dim", "2"],
        ["selftest"],
        ["classify", "--field", "GF(4)", "--p", "t^2", "--q", "t^2"],  # an error
    ]
    for argv in calls:
        out = _CountingOut()
        monkeypatch.setattr(sys, "stdout", out)
        cli_run(argv)
        text = out.getvalue()
        if argv[0] == "witness":
            (tmp_path / "witness.json").write_text(json.dumps(json.loads(text)["witness"]))
        rows = argv[0] == "enumerate"
        assert text == _reference_encoding(text, rows), argv
        assert out.writes == (text.count("\n") if rows else 1), argv


# JSON values as json.dumps takes them: every leaf kind (ints past 2^64,
# NaN, the infinities and -0.0, control and non-ASCII characters), lists,
# tuples, dicts with str, int, float, bool and None keys, and equal leaf
# lists side by side, with bools or floats in place of equal ints
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.lists(st.sampled_from([0, 1, -1, 2**70, True, False, 1.0, 0.0, -0.0])),
)
_json_values = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(
            st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none()),
            kids,
        ),
        kids.map(lambda x: [x, x, [x, [x]]]),
    ),
    max_leaves=30,
)


@example(x=[[1, 1], [1, True], [1, 1.0], [[1, 1]], ([1, 1],)])
@example(x={"é\x00\n\"": -0.0, 1: float("nan"), 2.5: float("-inf"), None: [], False: {}})
@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=_json_values)
def test_indented_writer_equals_json_dumps(x):
    assert _dumps_indented(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("bad", [object(), [1, {2j}], {"a": {(1, 2): 3}}, {1j: 0}])
def test_indented_writer_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError) as want:
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        _dumps_indented(bad)


# Each request runs through cli_run in one fresh interpreter, which prints
# [exit code, numpy imported after it?, stdout] per request.
_FRESH_SCRIPT = """
import contextlib, io, json, sys
from sympdiff.cli import cli_run
answers = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_run(argv)
    answers.append([code, "numpy" in sys.modules, out.getvalue()])
print(json.dumps(answers))
"""


def test_numpy_is_imported_by_the_first_request_that_builds_an_array(capsys):
    gf27 = "GF(27)|t^3+2*t+1"
    light = [
        ["classify", "--field", "Q", "--p", "t^2+1", "--q", "(t-1)*(t-2)"],
        ["classify", "--field", gf27, "--p", "t^2+1", "--q", "t^2+t+2"],
        ["decide", "--field", "Q", "--p", "t^2+2", "--q", "t^2+2",
         "--v", "companion:t+1"],
        ["decide", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
         "--v", "companion:t^2+2"],
    ]
    search = ["witness", "--field", "GF(3)", "--p", "t^2+1", "--q", "t^2+1",
              "--v", "companion:t^2"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT, json.dumps(light + [search])],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    answers = json.loads(done.stdout)
    assert [(code, numpy) for code, numpy, _ in answers] == [
        (0, False), (0, False), (2, False), (0, False), (0, True)
    ]
    assert answers[-1][2] == run(capsys, search)[1]
