"""Command-line surface: expand series expressions, verify identities,
discover linear relations.

Exit status: 0 on success or all-PASS, 1 when a verification finds a
mismatch, 2 on usage errors, unknown names or ids, malformed inputs (a
zero denominator or substitution exponent, a malformed function form, a
two-variable expression given to expand or discover, a zero series under inv, a
signed substitution of a series whose exponent steps are not integers, a
registry path that cannot be read, such as a directory, or an expression
nested too deeply to parse or evaluate; flat chains of + and * of any
length are not nested) and running out of memory, 3 when a verification
reports an insufficient order or discover has too few rows.  Results go to
stdout, diagnostics to stderr: a registry error names its line, a
verify-all error its record.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .series import EmptySeriesError, GradingError, PuiseuxSeries, to_text, truncate
from .verify import (
    IdentityRecord,
    InsufficientRowsError,
    Status,
    UnknownIdentityError,
    VerificationReport,
    check,
    check_record,
    discover,
    evaluate,
    load_registry,
    parse_expression,
    registry,
)

__all__ = ["Command", "UsageError", "parse_args", "execute", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3

# exit 2 with one line; a verify-all record that raises one is named in it
_ERRORS = (OSError, RecursionError, ValueError, EmptySeriesError, GradingError, MemoryError)


def _message(exc: Exception) -> str:
    return "out of memory" if isinstance(exc, MemoryError) else str(exc)


_ORDER_RE = re.compile(r"-?\d+(?:/0*[1-9]\d*)?$")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Command:
    verb: str
    targets: tuple[str, ...]
    order: Fraction
    machine: bool
    registry_path: Optional[str] = None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _order_arg(text: str) -> Fraction:
    if not _ORDER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"order must be an integer or p/q fraction with q > 0, got {text!r}"
        )
    return Fraction(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qserieslab", description=__doc__)
    commands = parser.add_subparsers(dest="verb", required=True)

    def common(sub: argparse.ArgumentParser, with_registry: bool) -> None:
        sub._negative_number_matcher = _ORDER_RE  # -1/2 is a value, as -3 is
        sub.add_argument("--order", type=_order_arg, default=Fraction(50),
                         help="exclusive truncation order as p/q (default 50)")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        if with_registry:
            sub.add_argument("--registry", metavar="PATH", default=None,
                             help="replace the built-in identity registry")

    expand = commands.add_parser("expand", help="print the series of an expression")
    expand.add_argument("expression")
    common(expand, with_registry=False)

    verify = commands.add_parser("verify", help="check one identity")
    verify.add_argument("id")
    common(verify, with_registry=True)

    verify_all = commands.add_parser("verify-all", help="check every identity")
    common(verify_all, with_registry=True)

    disc = commands.add_parser("discover", help="find rational linear relations among expressions")
    disc.add_argument("expressions", nargs="+")
    common(disc, with_registry=False)
    return parser


_parser: Optional[_Parser] = None


def parse_args(argv: Sequence[str]) -> Command:
    """The Command for a command line; raises UsageError when it is malformed.

    The argparse parser is built on the first call and reused: a parse keeps
    nothing between calls, each fills a fresh namespace.
    """
    global _parser
    if _parser is None:
        _parser = _build_parser()
    ns = _parser.parse_args(list(argv))
    if ns.verb == "expand":
        targets: tuple[str, ...] = (ns.expression,)
    elif ns.verb == "verify":
        targets = (ns.id,)
    elif ns.verb == "discover":
        if len(ns.expressions) < 2:
            raise UsageError("discover needs at least two series expressions")
        targets = tuple(ns.expressions)
    else:
        targets = ()
    return Command(ns.verb, targets, ns.order, ns.json, getattr(ns, "registry", None))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _report_json(report: VerificationReport) -> str:
    mismatch = None
    if report.mismatch is not None:
        mismatch = {
            "exponent": _frac_str(report.mismatch.exponent),
            "lhs": _frac_str(report.mismatch.lhs),
            "rhs": _frac_str(report.mismatch.rhs),
            "z": report.mismatch.z_exponent,
        }
    payload = {
        "id": report.id,
        "status": report.status.value,
        "order": _frac_str(report.order_checked),
        "mismatch": mismatch,
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(payload, separators=(",", ":"))


def _report_text(report: VerificationReport) -> str:
    line = f"{report.id} {report.status.value} order={_frac_str(report.order_checked)}"
    if report.mismatch is not None:
        m = report.mismatch
        where = f"q^{_frac_str(m.exponent)}"
        if m.z_exponent is not None:
            where = f"z^{m.z_exponent} {where}"
        line += f" mismatch at {where}: lhs={_frac_str(m.lhs)} rhs={_frac_str(m.rhs)}"
    return line


def _status_exit(statuses: Sequence[Status]) -> int:
    if any(s is Status.FAIL for s in statuses):
        return EXIT_FAIL
    if any(s is Status.INSUFFICIENT_ORDER for s in statuses):
        return EXIT_INSUFFICIENT
    return EXIT_OK


def _load(cmd: Command) -> Sequence[IdentityRecord]:
    if cmd.registry_path is None:
        return registry()
    return load_registry(cmd.registry_path)


def execute(cmd: Command) -> int:
    if cmd.verb == "expand":
        return _run_expand(cmd)
    if cmd.verb == "verify":
        return _run_verify(cmd)
    if cmd.verb == "verify-all":
        return _run_verify_all(cmd)
    return _run_discover(cmd)


def _series(target: str, order: Fraction) -> PuiseuxSeries:
    value = evaluate(parse_expression(target), order)
    if not isinstance(value, PuiseuxSeries):
        raise ValueError(f"{target!r} is a two-variable series; specialize it to one variable")
    return value


def _run_expand(cmd: Command) -> int:
    series = _series(cmd.targets[0], cmd.order)
    if series.order > cmd.order:  # a product or an inverse can certify past its request
        series = truncate(series, cmd.order)
    if cmd.machine:
        payload = {
            "name": cmd.targets[0],
            "D": series.grading,
            "O": _frac_str(series.order),
            "terms": [line.split(" ") for line in to_text(series).splitlines()[1:]],
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        sys.stdout.write(to_text(series))
    return EXIT_OK


def _run_verify(cmd: Command) -> int:
    try:
        report = check(cmd.targets[0], cmd.order, _load(cmd))
    except UnknownIdentityError:
        print(f"error: unknown identity id {cmd.targets[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    print(_report_json(report) if cmd.machine else _report_text(report))
    return _status_exit([report.status])


def _run_verify_all(cmd: Command) -> int:
    statuses = []
    for record in _load(cmd):
        try:
            report = check_record(record, cmd.order)
        except _ERRORS as exc:
            print(f"error: {record.id}: {_message(exc)}", file=sys.stderr)
            return EXIT_USAGE
        print(_report_json(report) if cmd.machine else _report_text(report), flush=True)
        statuses.append(report.status)
    return _status_exit(statuses)


def _run_discover(cmd: Command) -> int:
    series = [_series(target, cmd.order) for target in cmd.targets]
    try:
        relations = discover(series, cmd.order)
    except InsufficientRowsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    if cmd.machine:
        payload = {
            "names": list(cmd.targets),
            "order": _frac_str(cmd.order),
            "relations": [[_frac_str(c) for c in rel.coefficients] for rel in relations],
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        if not relations:
            print("no relations found")
        for rel in relations:
            print("relation: " + " ".join(_frac_str(c) for c in rel.coefficients))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd = parse_args(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return execute(cmd)
    except _ERRORS as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
