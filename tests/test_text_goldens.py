"""Byte-level goldens for the text of every named-series family.

`text_goldens.json` maps "<name> @ <order>" to the SHA-256 digest of
to_text(named_series(name, order)).  The digests were recorded before the
minimal characters and the lattice-sum character were moved onto the shared
theta-sum and product expanders, so any change in their text fails here.
To record them again after an intended output change:

    PYTHONPATH=src python tests/test_text_goldens.py > tests/text_goldens.json
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from qserieslab import named_series, to_text

NAMES = (
    *(f"chi:5,6,{m},{n}" for m in range(1, 5) for n in range(1, 6)),
    "chi:2,5,1,1@q^1/2",
    "chi:2,5,1,2@q^1/2",
    "chi:2,5,1,1@-q^1/2",
    "chi:2,5,1,2@-q^1/2",
    "chi:11,13,5,7",
    "rr:1",
    "rr:2",
    "w:0",
    "w:2/5",
    "w:tau1/40",
    "w:tau1/8",
    "fkw",
    "fkw@q^1/3",
    "a22:basic",
    "a22:2L1",
    "a22:L0",
)
ORDERS = (F(50), F(200), F(37, 6))
# Product-heavy and theta-heavy families again at a depth where every product
# family runs through many levels of its expansion.
DEEP = ("rr:1", "rr:2", "a22:basic", "a22:2L1", "a22:L0", "chi:5,6,1,1", "fkw")
CASES = (*((n, o) for n in NAMES for o in ORDERS), *((n, F(1000)) for n in DEEP))

GOLDENS = Path(__file__).with_name("text_goldens.json")


def _key(name: str, order: F) -> str:
    return f"{name} @ {order}"


def _digest(name: str, order: F) -> str:
    return hashlib.sha256(to_text(named_series(name, order)).encode()).hexdigest()


@pytest.mark.parametrize("name,order", CASES, ids=lambda v: str(v))
def test_text_matches_golden(name, order):
    goldens = json.loads(GOLDENS.read_text())
    assert _digest(name, order) == goldens[_key(name, order)]


if __name__ == "__main__":
    print(json.dumps({_key(n, o): _digest(n, o) for n, o in CASES}, indent=1))
