"""One pass of one workload, in a fresh single-threaded interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (set up, then exit), `run` (time every op with tracing
off), `trace` (the same ops with timing wrappers installed; spans go to
SPANS_PATH) or `record` (like `run`, without goldens, returning every output
so that the goldens can be written).  The worker prints `READY` once the
first op is ready, which is where the parent stops its set-up clock, then
one JSON line with the pass's results.  It drives the program only through
`cli.main(argv)`, with stdout and stderr captured, and checks every output
after the timed section.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import pkgutil
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from types import ModuleType

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDENS = os.path.join(HERE, "goldens.json")


def load_modules() -> dict[str, ModuleType]:
    """Every module of the qserieslab package under this checkout's src/."""
    sys.path.insert(0, SRC)
    import qserieslab

    if not os.path.abspath(qserieslab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qserieslab imported from {qserieslab.__file__}, not from {SRC}")
    modules = {"qserieslab": qserieslab}
    for info in pkgutil.iter_modules(qserieslab.__path__):
        modules[info.name] = importlib.import_module(f"qserieslab.{info.name}")
    return modules


def find_memos(modules: dict[str, ModuleType]) -> dict[str, object]:
    """Module-level memos (anything exposing cache_clear and cache_info),
    named by their function name without leading underscores."""
    found: dict[int, object] = {}
    for mod in modules.values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return {getattr(m, "__name__", repr(m)).lstrip("_"): m for m in found.values()}


class MemoStats:
    """Hits, misses and peak entries of every memo, summed across clears."""

    def __init__(self, memos: dict[str, object]) -> None:
        self.memos = memos
        self.hits = dict.fromkeys(memos, 0)
        self.misses = dict.fromkeys(memos, 0)
        self.entries = 0
        self._base = self._read()

    def _read(self) -> dict:
        return {name: memo.cache_info() for name, memo in self.memos.items()}

    def fold(self) -> None:
        now = self._read()
        for name, info in now.items():
            self.hits[name] += info.hits - self._base[name].hits
            self.misses[name] += info.misses - self._base[name].misses
        self.entries = max(self.entries, sum(info.currsize for info in now.values()))
        self._base = now

    def clear(self) -> None:
        self.fold()
        for memo in self.memos.values():
            memo.cache_clear()
        self._base = self._read()

    def metrics(self) -> dict[str, float]:
        hits, misses = sum(self.hits.values()), sum(self.misses.values())
        out = {
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.entries": self.entries,
        }
        for name in self.memos:
            out[f"cache.{name}.hits"] = self.hits[name]
            out[f"cache.{name}.misses"] = self.misses[name]
        return out


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, HERE)
    import workloads

    modules = load_modules()
    cold = workloads.COLD[workload]
    memos = find_memos(modules)
    if cold and not memos:
        raise SystemExit("cold workload found no memo exposing cache_clear to clear")
    identity_ids = tuple(record.id for record in modules["verify"].registry())
    ops = workloads.ops(workload, seed, identity_ids)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    from tracer import Tracer

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install(modules)
    stats = MemoStats(memos)
    cli = modules["cli"]
    results = []
    op_s: list[float] = []
    try:
        started = perf_counter()
        for op in ops:
            if cold:
                stats.clear()
            out, err = io.StringIO(), io.StringIO()
            op_started = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(op)
            except Exception as exc:  # an op that raises is counted as failed
                rc, err = None, io.StringIO(repr(exc))
            op_s.append(perf_counter() - op_started)
            results.append((op, rc, out.getvalue(), err.getvalue()))
        wall_s = perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()
    stats.fold()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from checks import op_key, tally

    goldens = {}
    if mode != "record":
        with open(GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)
    failed, certified, problems = tally(results, goldens)

    report = {
        "wall_s": wall_s,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": failed,
        "certified": certified,
        "problems": problems,
        "layers": stats.metrics(),
    }
    if tracer is not None:
        report["layers"].update(tracer.metrics())
        report["mul_buckets"] = tracer.bucket_table()
        measured = tracer.installed | {"cache." + name for name in memos}
        report["measured"] = sorted(measured | ({"cache"} if memos else set()))
        report["missing_targets"] = tracer.missing
        tracer.write_spans(argv[3])
    if mode == "record":
        report["outputs"] = {op_key(op): [rc, out] for op, rc, out, _ in results}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
