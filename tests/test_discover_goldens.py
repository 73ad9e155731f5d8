"""Goldens for `discover --json` over the paper's related characters.

`discover_goldens.json` maps each order to the exit code and the stdout of
`qserieslab discover <NAMES> --order <order> --json`.  NAMES are the ten
(5,6) minimal-model characters and the two (2,5) Rogers-Ramanujan
characters rescaled to q^(1/2) and to -q^(1/2); MIN-1, MIN-2, SIGNED-1/2-8
and SIGNED-1/2-40 are the four relations among them.  Any change in a
relation, its normalisation or the JSON layout fails here.  To record them
again after an intended output change:

    PYTHONPATH=src python tests/test_discover_goldens.py > tests/discover_goldens.json
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qserieslab.cli import main

NAMES = (
    "chi:5,6,1,1",
    "chi:5,6,1,2",
    "chi:5,6,1,3",
    "chi:5,6,1,4",
    "chi:5,6,1,5",
    "chi:5,6,2,1",
    "chi:5,6,2,2",
    "chi:5,6,2,3",
    "chi:5,6,2,4",
    "chi:5,6,2,5",
    "chi:2,5,1,1@q^1/2",
    "chi:2,5,1,2@q^1/2",
    "chi:2,5,1,1@-q^1/2",
    "chi:2,5,1,2@-q^1/2",
)

ORDERS = ("100", "1513/10", "200", "1000")

GOLDENS = Path(__file__).with_name("discover_goldens.json")


def _run(order: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["discover", *NAMES, "--order", order, "--json"])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("order", ORDERS)
def test_discover_json_matches_golden(order):
    goldens = json.loads(GOLDENS.read_text())
    assert _run(order) == goldens[order]


def test_goldens_hold_the_four_relations():
    goldens = json.loads(GOLDENS.read_text())
    for order in ORDERS:
        assert goldens[order]["exit"] == 0
        assert len(json.loads(goldens[order]["stdout"])["relations"]) == 4


if __name__ == "__main__":
    print(json.dumps({order: _run(order) for order in ORDERS}, indent=1))
