"""Smoke test for the runnable demo in scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_counterexample_demo_passes(capsys):
    spec = importlib.util.spec_from_file_location(
        "counterexample_demo", SCRIPTS / "counterexample_demo.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main() == 0
    assert "all checks passed" in capsys.readouterr().out
