"""Golden CLI answers: exit code and sha256 of stdout for fixed argv lists.

``cli_golden.json`` holds one record per request, each ``{"argv": [...],
"code": int, "sha256": hex}``.  The replay test sends every argv through
``cli_run`` and compares both, so any change to the bytes of an answer
(values, key order, indentation, escapes) shows up here.  Regenerate the
file only for an intended change of output::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sympdiff.cli import cli_run
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.serialize import decode_witness

from witness_reference import check_witness

GOLDEN = Path(__file__).with_name("cli_golden.json")

FIELDS = {
    "Q": "Q",
    "GF3": "GF(3)",
    "GFp": "GF(100003)",
    "GF4": "GF(4)|t^2+t+1",
    "GF27": "GF(27)|t^3+2*t+1",
    "GF2s": "GF(2)(s)",
}

# the symplectic extension S(v) of v = C(t^2+2) over GF(3), as --pair JSON
S_C_T2_PLUS_2 = json.dumps({
    "B": {"entries": [[0, 0, 2, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0]]},
    "U": {"entries": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
})

# (subcommand, field, p, q, extra argv); "witness" requests whose answer is
# YES are sent back through verify, once intact and once with U1 and U2
# swapped (a failed verification)
REQUESTS = [
    ("classify", "Q", "t^2+1", "(t-1)*(t-2)", []),
    ("classify", "GF3", "t^2+1", "t^2+1", []),
    ("classify", "GF4", "t^2+t+1", "t^2", []),
    ("classify", "GF27", "t^2+1", "t^2+1", []),
    ("classify", "GF2s", "t^2+t+s", "t^2+t+s+1", []),
    ("decide", "Q", "t^2+2", "t^2+2", ["--v", "companion:t^2+1"]),
    ("decide", "Q", "t^2+2", "t^2+2", ["--v", "companion:t+1"]),
    ("decide", "GF3", "t^2+1", "t^2+1", ["--v", '{"field": "GF(3)", "entries": '
                                         '[[0, 1], ["-1", 0]]}']),
    ("decide", "GF4", "t^2+t+1", "t^2+t+1", ["--v", "companion:t^2+t;t^2+t"]),
    ("decide", "GF2s", "t^2+t+s", "t^2+s", ["--v", "companion:t^2+s"]),
    ("witness", "GF3", "t^2+1", "t^2+1", ["--v", "companion:t^2"]),
    ("witness", "GFp", "t^2+1", "t^2-1", ["--v", "companion:t^2+3"]),
    ("witness", "GF4", "t^2+t+1", "t^2+t+1", ["--v", "companion:t^2+t"]),
    ("witness", "GF27", "t^2+1", "t^2+1", ["--v", "companion:t^6+t^2+1"]),
    ("witness", "Q", "t^2+1", "t^2+1", ["--v", "companion:t^4+5"]),
    ("witness", "GF2s", "t^2+s", "t^2+s", ["--v", "companion:t^2+s+1"]),
    ("witness", "Q", "t^2+2", "t^2+2", ["--v", "companion:t+1"]),
    ("enumerate", "GF3", "t^2-t", "t^2-t", ["--dim", "2"]),
    ("enumerate", "GF4", "t^2+t+1", "t^2", ["--dim", "2"]),
    ("enumerate", "Q", "t^2+1", "t^2+2", ["--dim", "2", "--inventory", "t-1;t-3"]),
    # structured errors: a field spec with a non-ASCII character (escaped in
    # the answer), and a boolean matrix entry
    ("classify", None, "t^2", "t^2", ["--field", "GF(é)"]),
    ("decide", "GF27", "t^2+1", "t^2+1", ["--v", '{"entries": [[[1], true], [0, 1]]}']),
    # --pair instead of --v: S(C(t^2+2)) over GF(3)
    ("decide", "GF3", "t^2+1", "t^2+1", ["--pair", S_C_T2_PLUS_2]),
    ("witness", "GF3", "t^2+1", "t^2+1", ["--pair", S_C_T2_PLUS_2]),
    # usage errors: both of --v and --pair, and neither
    ("decide", "GF3", "t^2+1", "t^2+1", ["--v", "companion:t^2+2", "--pair", S_C_T2_PLUS_2]),
    ("witness", "GF3", "t^2+1", "t^2+1", ["--v", "companion:t^2+2", "--pair", S_C_T2_PLUS_2]),
    ("decide", "GF3", "t^2+1", "t^2+1", []),
    ("witness", "GF3", "t^2+1", "t^2+1", []),
    # a YES decision without a constructive witness (infinite field)
    ("witness", "Q", "t^2-t", "t^2-t", ["--v", "companion:t"]),
    # enumerate up to dimension 6: same-field norm-quadratic rows (table 7),
    # root pairs (table 3), characteristic-2 special even powers (table 10)
    ("enumerate", "Q", "t^2+1", "t^2+4", ["--dim", "6", "--inventory", "t-1;t-3"]),
    ("enumerate", "GF3", "t^2-t", "t^2-t", ["--dim", "6"]),
    ("enumerate", "GF2s", "t^2+t+1", "t^2+t+s", ["--dim", "6", "--inventory", "t;t+1"]),
]


def _call(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(argv)
    return code, buf.getvalue()


def _argvs():
    """Every argv of REQUESTS, each YES witness followed by its verify
    requests."""
    for cmd, field, p, q, extra in REQUESTS:
        head = [cmd] + (["--field", FIELDS[field]] if field else [])
        argv = head + ["--p", p, "--q", q] + extra
        yield argv
        if cmd != "witness":
            continue
        code, out = _call(argv)
        witness = json.loads(out).get("witness")
        if code or witness is None:
            continue
        pq = ["--field", FIELDS[field], "--p", p, "--q", q]
        yield ["verify", *pq, "--witness", json.dumps(witness)]
        swapped = dict(witness, U1=witness["U2"], U2=witness["U1"])
        yield ["verify", *pq, "--witness", json.dumps(swapped)]


def _record(argv):
    code, out = _call(argv)
    return {"argv": argv, "code": code,
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


# read only when collected: the script below (re)writes the file
GOLDENS = [] if __name__ == "__main__" else json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "golden", GOLDENS, ids=[f"{i:02d}-{g['argv'][0]}" for i, g in enumerate(GOLDENS)]
)
def test_cli_answer_matches_golden(golden):
    assert _record(golden["argv"]) == golden


def test_goldens_replay_twice_in_one_process():
    """Each answer is the same bytes again when the field contexts already
    hold the pair contexts and decisions of the first pass."""
    for _ in range(2):
        assert [_record(golden["argv"]) for golden in GOLDENS] == GOLDENS


def test_yes_witnesses_pass_the_reference_checker():
    failures = {}
    for i, golden in enumerate(GOLDENS):
        argv = golden["argv"]
        if argv[0] != "witness" or golden["code"]:
            continue
        witness = json.loads(_call(argv)[1])["witness"]
        if witness is not None:
            opts = dict(zip(argv[1::2], argv[2::2]))
            ctx = field_make(opts["--field"])
            p, q = (parse_poly(ctx, opts[key]) for key in ("--p", "--q"))
            failures[i] = check_witness(decode_witness(witness, ctx), p, q)
    assert len(failures) == 7 and not any(failures.values()), failures


if __name__ == "__main__":
    records = [_record(argv) for argv in _argvs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} records in {GOLDEN}", file=sys.stderr)
