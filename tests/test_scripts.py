"""Smoke tests for the runnable scripts in scripts/."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_times_every_field_kind(capsys):
    fields = ["Q", "GF(2)(s)", "GF(3)", "GF(5)", "GF(4)|t^2+t+1", "GF(27)|t^3+2*t+1"]
    _load("bench_kernels").main(
        ["--fields", *fields, "--sizes", "3", "--reps", "2", "--density", "0.5"]
    )
    result = json.loads(capsys.readouterr().out)
    assert list(result) == fields
    for spec in fields:
        cells = result[spec]["3"]
        assert sorted(cells) == [
            "block_us", "horner_us", "invfac_us", "matmul_us", "rank_us", "sub_us"
        ]
        assert all(us > 0 for us in cells.values())
