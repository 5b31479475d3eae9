"""Byte-for-byte replay of the demos' recorded stdout.

Each script under demos/ runs in process and its whole stdout is compared
with tests/golden/demos/<script>.out.  To record the files again after a
deliberate change of output:

    PYTHONPATH=src python3 tests/test_golden_demos.py --record
"""

import contextlib
import io
import os
import runpy
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")
SCRIPTS = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))


def _run(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name + ".py"), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_output(name):
    with open(os.path.join(GOLDEN, name + ".out")) as fh:
        assert _run(name) == fh.read()


def test_every_demo_has_a_golden():
    assert sorted(f[:-4] for f in os.listdir(GOLDEN)) == SCRIPTS


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_demos.py --record")
    for name in SCRIPTS:
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(_run(name))
