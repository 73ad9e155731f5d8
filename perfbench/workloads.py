"""Workload inputs: every op is the argv of one `qserieslab` CLI call.

Inputs depend only on the workload name and the seed, so the same seed
always gives the same ops.  The seed changes the order of the ops and, for
`explore-warm`, a sub-unit shift of the order ladder; it never changes how
much work a pass does by more than about one percent, so runs with
different seeds are comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0

# Built-ins that need the two-variable engine; every other built-in is a
# one-variable identity.
QUINTUPLE_IDS = ("QPI", "WANTED3", "SPECIALIZE-L", "SPECIALIZE-R")

SCALAR_ORDER = "500"
# Above the fixed z-window cap of 546, so SPECIALIZE-L/R exhaust their
# retry passes and end INSUFFICIENT_ORDER.
QUINTUPLE_ORDER = "600"

EXPLORE_NAMES = (
    *(f"chi:5,6,{m},{n}" for m in (1, 2) for n in range(1, 6)),
    "chi:2,5,1,1@q^1/2",
    "chi:2,5,1,2@q^1/2",
    "chi:2,5,1,1@-q^1/2",
    "chi:2,5,1,2@-q^1/2",
    "rr:1",
    "rr:2",
    "w:0",
    "w:2/5",
    "w:tau1/40",
    "w:tau1/8",
    "fkw",
    "a22:basic",
)
DISCOVER_NAMES = EXPLORE_NAMES[:14]
# MIN-1, MIN-2, SIGNED-1/2-8 and SIGNED-1/2-40 each give one independent
# relation among DISCOVER_NAMES; nothing else relates them.
DISCOVER_RELATIONS = 4
LADDER_BASE = 100
LADDER_RUNGS = 11
LADDER_STEP = 10


# Workload name -> whether every memo is cleared before each op.  Cold
# workloads model one CLI call per process, as a user runs it.
COLD = {"scalar-cold": True, "quintuple-deep": True, "explore-warm": False}


def ops(workload: str, seed: int, identity_ids: tuple[str, ...]) -> list[list[str]]:
    """The argv of every op of one pass, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scalar-cold":
        chosen = [i for i in identity_ids if i not in QUINTUPLE_IDS]
        rng.shuffle(chosen)
        return [["verify", i, "--order", SCALAR_ORDER, "--json"] for i in chosen]
    if workload == "quintuple-deep":
        chosen = [i for i in identity_ids if i in QUINTUPLE_IDS]
        rng.shuffle(chosen)
        return [["verify", i, "--order", QUINTUPLE_ORDER, "--json"] for i in chosen]
    if workload == "explore-warm":
        return explore_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def explore_ops(rng: random.Random) -> list[list[str]]:
    # The ladder starts at 100 + k/10 for a seeded k in 0..9: a shift of whole
    # units would change the work of a pass by about 10 % between seeds.
    start = LADDER_BASE + Fraction(rng.randrange(10), 10)
    out: list[list[str]] = []
    for rung in range(LADDER_RUNGS):
        order = str(start + LADDER_STEP * rung)
        names = list(EXPLORE_NAMES)
        rng.shuffle(names)
        out.extend(["expand", name, "--order", order] for name in names)
        out.append(["discover", *DISCOVER_NAMES, "--order", order, "--json"])
    return out
