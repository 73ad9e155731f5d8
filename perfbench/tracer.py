"""Timing spans around the public functions of each qserieslab module.

The tracer replaces a function everywhere it is bound at module level in the
package (e.g. `series.mul` is also `characters.mul`, `lattice.mul` and
`verify.mul`), so every call site is timed, and puts every original back on
`restore`.  Spans (name, start, end, parent) stay in memory until the run
writes them out.  A span's self time is its duration minus the durations of
its child spans; the program is single-threaded, so children never overlap.

A function missing from the program is skipped and its span is listed in
`missing`, so the run can report the metrics it would have fed as
unmeasured instead of letting them read 0 unnoticed.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Optional


class Frame:
    __slots__ = ("name", "index", "start", "child", "duration", "self_s", "kernel", "orders")

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self.start = 0.0
        self.child = 0.0  # summed duration of child spans
        self.duration = 0.0
        self.self_s = 0.0
        self.kernel = "naive"  # set by a child _kronecker_mul span
        self.orders: list = []  # certified orders of top-level evaluates


# hook(tracer, frame, parent frame or None, call args, result)
Hook = Callable[["Tracer", Frame, Optional[Frame], tuple, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[Frame] = []
        self.stats: dict[str, float] = defaultdict(int)
        self.mul_buckets: dict[tuple[str, int], dict[str, float]] = {}
        self._restore: list[tuple[ModuleType, str, Any]] = []
        self.installed: set[str] = set()  # span names with a wrapper in place
        self.missing: list[str] = []  # "module.attr" targets the program lacks

    # ------------------------------------------------------------------
    # installing and removing wrappers

    def install(self, modules: dict[str, ModuleType]) -> None:
        for span, module, attr, hook in _targets():
            original = getattr(modules[module], attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self.installed.add(span)
            wrapper = self._wrap(span, original, hook)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def restore(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def _wrap(self, span: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        spans, stack, stats = self.spans, self.stack, self.stats

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = Frame(span, len(spans))
            spans.append(None)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                frame.duration = end - frame.start
                frame.self_s = frame.duration - frame.child
                if parent is not None:
                    parent.child += frame.duration
                spans[frame.index] = (span, frame.start, end, None if parent is None else parent.index)
                stats[span + ".calls"] += 1
                stats[span + ".self_s"] += frame.self_s
            if hook is not None:
                hook(self, frame, parent, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # results

    def metrics(self) -> dict[str, float]:
        return dict(self.stats)

    def bucket_table(self) -> list[dict]:
        rows = []
        for (kernel, low), cell in sorted(self.mul_buckets.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            rows.append({"kernel": kernel, "pairs_from": low, "pairs_below": max(1, 2 * low), **cell})
        return rows

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# per-function hooks, run after the span closes


def _mul_pairs(a: Any, b: Any) -> int:
    """Coefficient pairs mul's kernel sees: terms that can reach below the
    result order min(O_a + lead(b), O_b + lead(a)) (see series.mul)."""
    if not a.terms or not b.terms:
        return 0
    lead_a, lead_b = a.terms[0][0], b.terms[0][0]
    order = min(a.order + lead_b, b.order + lead_a)
    na = bisect_left(a.terms, order - lead_b, key=lambda t: t[0])
    nb = bisect_left(b.terms, order - lead_a, key=lambda t: t[0])
    return na * nb


def _on_mul(tr: Tracer, frame: Frame, parent, args, result) -> None:
    pairs = _mul_pairs(args[0], args[1])
    tr.stats["series.mul.pairs"] += pairs
    low = 1 << (pairs.bit_length() - 1) if pairs else 0
    cell = tr.mul_buckets.setdefault((frame.kernel, low), {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    cell["calls"] += 1
    cell["self_s"] += frame.self_s
    cell["total_s"] += frame.duration


def _on_kronecker(tr: Tracer, frame: Frame, parent, args, result) -> None:
    tr.stats["series.kronecker_mul.pairs"] += len(args[0]) * len(args[1])
    if parent is not None:
        parent.kernel = "kronecker"


def _out_terms(span: str) -> Hook:
    def hook(tr: Tracer, frame, parent, args, result) -> None:
        tr.stats[span + ".out_terms"] += len(result.terms)

    return hook


def _on_to_text(tr: Tracer, frame, parent, args, result) -> None:
    tr.stats["series.to_text.bytes"] += len(result.encode())


def _on_evaluate(tr: Tracer, frame, parent, args, result) -> None:
    # A top-level evaluate is one side of one check_record pass.
    if parent is not None and parent.name == "verify.check_record":
        parent.orders.append(result.order)


def _on_check_record(tr: Tracer, frame: Frame, parent, args, result) -> None:
    orders = frame.orders
    certified = [min(orders[i : i + 2]) for i in range(0, len(orders), 2)]
    futile = sum(1 for i in range(1, len(certified)) if certified[i] <= max(certified[:i]))
    tr.stats["verify.check_record.passes"] += len(certified)
    tr.stats["verify.check_record.futile_passes"] += futile
    tr.stats["verify.check_s." + args[0].id.replace("/", "_")] += frame.duration


def _on_discover(tr: Tracer, frame, parent, args, result) -> None:
    series, order = args[0], args[1]
    tr.stats["verify.discover.rows"] += len({e for s in series for e, _ in s.terms if e < order})


def _targets() -> list[tuple[str, str, str, Optional[Hook]]]:
    """(span name, module, attribute, hook) for every traced function.

    characters.minimal_char times the memoised `_minimal_char`, which every
    character path (minimal_char, w_char, a22_char, traces) goes through.
    """
    return [
        ("series.mul", "series", "mul", _on_mul),
        ("series.kronecker_mul", "series", "_kronecker_mul", _on_kronecker),
        ("series.invert", "series", "invert", _out_terms("series.invert")),
        ("series.add_sub", "series", "add", None),
        ("series.add_sub", "series", "sub", None),
        ("series.compare", "series", "compare", None),
        ("series.substitute", "series", "substitute", None),
        ("series.substitute", "series", "substitute_signed", None),
        ("series.to_text", "series", "to_text", _on_to_text),
        ("products.expand_product", "products", "expand_product", _out_terms("products.expand_product")),
        ("characters.named_series", "characters", "named_series", None),
        ("characters.minimal_char", "characters", "_minimal_char", None),
        ("characters.a22_char", "characters", "a22_char", None),
        ("lattice.theta_sum", "lattice", "theta_sum", None),
        ("lattice.fkw_character", "lattice", "fkw_character", None),
        ("bivariate.quintuple_rhs", "bivariate", "quintuple_rhs", None),
        ("bivariate.quintuple_lhs", "bivariate", "quintuple_lhs", None),
        ("bivariate.bivariate_theta", "bivariate", "bivariate_theta", None),
        ("bivariate.specialize", "bivariate", "specialize", None),
        ("bivariate.compare_bivariate", "bivariate", "compare_bivariate", None),
        ("verify.check_record", "verify", "check_record", _on_check_record),
        ("verify.evaluate", "verify", "evaluate", _on_evaluate),
        ("verify.discover", "verify", "discover", _on_discover),
        ("cli.main", "cli", "main", None),
    ]
