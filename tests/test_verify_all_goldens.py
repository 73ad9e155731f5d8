"""Goldens for `verify-all --json` over the built-in registry.

`verify_all_goldens.json` maps each order to the exit code and the stdout
lines of `qserieslab verify-all --order <order> --json`, with the
`elapsed_ms` field taken out of every line.  Any change in a status, a
certified order, a mismatch or the field set and order of the JSON objects
fails here.  To record them again after an intended output change:

    PYTHONPATH=src python tests/test_verify_all_goldens.py > tests/verify_all_goldens.json
"""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qserieslab.cli import main

ORDERS = ("50", "200", "600", "1000")

GOLDENS = Path(__file__).with_name("verify_all_goldens.json")

_ELAPSED = re.compile(r',"elapsed_ms":\d+')


def _run(order: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify-all", "--order", order, "--json"])
    return {"exit": code, "lines": [_ELAPSED.sub("", ln) for ln in out.getvalue().splitlines()]}


@pytest.mark.parametrize("order", ORDERS)
def test_verify_all_json_matches_golden(order):
    goldens = json.loads(GOLDENS.read_text())
    assert _run(order) == goldens[order]


if __name__ == "__main__":
    print(json.dumps({order: _run(order) for order in ORDERS}, indent=1))
