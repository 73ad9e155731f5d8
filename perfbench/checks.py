"""Output checks for every op the benchmark runs.

Each check returns the list of problems it found (empty when the output is
right) and whether the op certified its result at the requested order.
Goldens, recorded at the default seed, pin each identity's status and
certified order and the SHA-256 of every `expand` text and `discover` line.
An INSUFFICIENT_ORDER golden is a floor, not a pin, so that certifying
further than the recorded program did is never counted as a failure.
Exact invariants hold for any seed: an `expand` text round-trips through
`from_text`, and every discovered relation, applied to the expanded series in
this module's own Fraction arithmetic, vanishes below the order.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Mapping

from qserieslab.series import SeriesError, from_text, to_text

from workloads import DISCOVER_RELATIONS

VERIFY_KEYS = ["id", "status", "order", "mismatch", "elapsed_ms"]
# Exit code each verify status must come with.
STATUS_EXIT = {"PASS": 0, "FAIL": 1, "INSUFFICIENT_ORDER": 3}

Texts = Mapping[tuple[str, str], str]
MAX_PROBLEMS = 20


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _order_of(argv: list[str]) -> str:
    return argv[argv.index("--order") + 1]


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_series(text: str) -> tuple[Fraction, dict[Fraction, Fraction]]:
    """(order, exponent -> coefficient) from the series text format."""
    lines = text.splitlines()
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("D=") or not header[1].startswith("O="):
        raise ValueError(f"bad header {lines[0]!r}")
    num, den = header[1][2:].split("/")
    coeffs = {}
    for line in lines[1:]:
        e, c = (Fraction(int(p), int(q)) for p, q in (f.split("/") for f in line.split()))
        coeffs[e] = c
    return Fraction(int(num), int(den)), coeffs


def tally(results: list, goldens: Mapping) -> tuple[int, int, list[str]]:
    """(ops failed, ops certified, first problems) over (argv, rc, stdout,
    stderr) results; rc is None for an op that raised.  An op fails when it
    raised or any of its checks found a problem."""
    texts = {(op[1], op[3]): out for op, rc, out, _ in results if op[0] == "expand"}
    failed = certified = 0
    problems: list[str] = []
    for op, rc, out, err in results:
        if rc is None:
            found, ok = [f"{op_key(op)} raised {err}"], False
        else:
            found, ok = check_op(op, rc, out, texts, goldens)
        failed += bool(found)
        certified += ok
        problems.extend(found[: MAX_PROBLEMS - len(problems)])
    return failed, certified, problems


def check_op(
    argv: list[str], rc: int, out: str, texts: Texts, goldens: Mapping
) -> tuple[list[str], bool]:
    verb = argv[0]
    if verb == "verify":
        return check_verify(argv, rc, out, goldens)
    if verb == "expand":
        return check_expand(argv, rc, out, goldens)
    if verb == "discover":
        return check_discover(argv, rc, out, texts, goldens)
    raise ValueError(f"no check for {verb!r}")


def check_verify(argv: list[str], rc: int, out: str, goldens: Mapping) -> tuple[list[str], bool]:
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return [f"verify output is not a JSON object: {out[:200]!r}"], False
    problems = []
    if list(report) != VERIFY_KEYS:
        problems.append(f"verify JSON keys {list(report)} != {VERIFY_KEYS}")
    if report.get("id") != argv[1]:
        problems.append(f"verify id {report.get('id')!r} != {argv[1]!r}")
    status, order = report.get("status"), report.get("order")
    if STATUS_EXIT.get(status) != rc:
        problems.append(f"exit code {rc} does not match status {status!r}")
    if status == "FAIL":
        problems.append(f"{argv[1]} FAIL: mismatch {report.get('mismatch')}")
    requested = _frac_text(Fraction(_order_of(argv)))
    passed = status == "PASS" and order == requested
    golden = goldens.get("verify", {}).get(op_key(argv))
    if golden is not None and not _meets_golden(status, order, passed, golden):
        problems.append(f"{argv[1]}: got {status} at {order}, golden {golden[0]} at {golden[1]}")
    return problems, passed


def _meets_golden(status: object, order: object, passed: bool, golden: list) -> bool:
    """A PASS golden must be matched exactly.  An INSUFFICIENT_ORDER golden is
    a floor: a PASS at the requested order, or INSUFFICIENT_ORDER certified at
    least as far as the golden, meets it; FAIL, a missing status or a lower
    certified order does not."""
    if golden[0] != "INSUFFICIENT_ORDER":
        return [status, order] == golden
    if passed:
        return True
    try:
        return status == "INSUFFICIENT_ORDER" and Fraction(order) >= Fraction(golden[1])
    except (TypeError, ValueError, ZeroDivisionError):
        return False


def check_expand(argv: list[str], rc: int, text: str, goldens: Mapping) -> tuple[list[str], bool]:
    if rc != 0:
        return [f"expand exited {rc}"], False
    problems = []
    try:
        if to_text(from_text(text)) != text:
            problems.append("expand text does not round-trip through from_text")
        order, _ = parse_series(text)
    except (SeriesError, ValueError, IndexError) as exc:
        return [f"expand text does not parse: {exc!r}"], False
    if order != Fraction(_order_of(argv)):
        problems.append(f"expand certified to {order}, requested {_order_of(argv)}")
    problems += _golden_hash(argv, text, goldens)
    return problems, not problems


def check_discover(
    argv: list[str], rc: int, line: str, texts: Texts, goldens: Mapping
) -> tuple[list[str], bool]:
    if rc != 0:
        return [f"discover exited {rc}"], False
    try:
        payload = json.loads(line)
        names, order = payload["names"], Fraction(payload["order"])
        relations = [[Fraction(c) for c in rel] for rel in payload["relations"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"discover output does not parse: {exc}"], False
    problems = []
    if order != Fraction(_order_of(argv)):
        problems.append(f"discover sampled to {order}, requested {_order_of(argv)}")
    if len(relations) != DISCOVER_RELATIONS:
        problems.append(f"discover found {len(relations)} relations, expected {DISCOVER_RELATIONS}")
    try:
        series = [parse_series(texts[(name, _order_of(argv))])[1] for name in names]
    except (KeyError, ValueError, IndexError) as exc:
        return problems + [f"no usable expand text to apply relations to: {exc!r}"], False
    for rel in relations:
        if len(rel) != len(series) or not any(rel):
            problems.append(f"relation {rel} is not a nonzero vector over {len(series)} series")
            continue
        total: dict[Fraction, Fraction] = {}
        for c, s in zip(rel, series):
            for e, v in s.items():
                if e < order:
                    total[e] = total.get(e, Fraction(0)) + c * v
        bad = sorted(e for e, v in total.items() if v)
        if bad:
            problems.append(f"relation {[str(c) for c in rel]} leaves q^{bad[0]} nonzero")
    problems += _golden_hash(argv, line, goldens)
    return problems, not problems


def _golden_hash(argv: list[str], text: str, goldens: Mapping) -> list[str]:
    want = goldens.get("sha256", {}).get(op_key(argv))
    if want is not None and sha256(text) != want:
        return [f"{op_key(argv)}: output hash differs from the golden"]
    return []
