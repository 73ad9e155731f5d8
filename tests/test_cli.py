import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import given, strategies as st

import qserieslab
from qserieslab import characters, cli, lattice, products
from qserieslab.cli import Command, UsageError, main, parse_args
from qserieslab.series import invert, to_text, truncate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseArgs:
    def test_verify_with_order(self):
        cmd = parse_args(["verify", "MIN-1", "--order", "100"])
        assert cmd == Command("verify", ("MIN-1",), F(100), False, None)

    def test_expand_json(self):
        cmd = parse_args(["expand", "chi:5,6,1,2", "--order", "10", "--json"])
        assert cmd.verb == "expand"
        assert cmd.targets == ("chi:5,6,1,2",)
        assert cmd.order == 10
        assert cmd.machine

    def test_default_order_is_50(self):
        assert parse_args(["verify-all"]).order == 50

    def test_fractional_order(self):
        assert parse_args(["expand", "rr:1", "--order", "311/60"]).order == F(311, 60)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--order", "abc"],
            ["verify", "MIN-1", "--order", "11/60+5"],
            ["frobnicate"],
            ["verify", "MIN-1", "--unknown-flag"],
            [],
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)

    def test_discover_needs_two_names(self):
        with pytest.raises(UsageError):
            parse_args(["discover", "rr:1"])


class TestExpand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "expand", "rr:1", "--order", "311/60")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "D=60 O=311/60"
        assert lines[1] == "11/60 1/1"
        # partitions into parts 2,3 mod 5 of sizes 1..4: nonzero at 2,3,4
        assert len(lines) == 5

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "expand", "rr:1", "--order", "311/60", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "rr:1"
        assert payload["D"] == 60
        assert payload["O"] == "311/60"
        assert payload["terms"][0] == ["11/60", "1/1"]

    # den > 1 and grading > 1: every exponent and coefficient is reduced on its own
    @pytest.mark.parametrize(
        "target, order, expected",
        [
            (
                "mono(3/4,1/3) * rr:1",
                "12",
                '{"name":"mono(3/4,1/3) * rr:1","D":60,"O":"12/1","terms":[["31/60","3/4"],'
                '["151/60","3/4"],["211/60","3/4"],["271/60","3/4"],["331/60","3/4"],["391/60","3/2"],'
                '["451/60","3/2"],["511/60","9/4"],["571/60","9/4"],["631/60","3/1"],["691/60","3/1"]]}\n',
            ),
            (
                "mono(3/4,1/3) * rr:1 + mono(-5/6,1/2) + mono(7,-3/4)",
                "4",
                '{"name":"mono(3/4,1/3) * rr:1 + mono(-5/6,1/2) + mono(7,-3/4)","D":60,"O":"4/1",'
                '"terms":[["-3/4","7/1"],["1/2","-5/6"],["31/60","3/4"],["151/60","3/4"],["211/60","3/4"]]}\n',
            ),
        ],
    )
    def test_json_bytes(self, capsys, target, order, expected):
        assert run(capsys, "expand", target, "--order", order, "--json") == (0, expected, "")

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "nope:1")
        assert code == 2
        assert "nope:1" in err

    def test_expression(self, capsys):
        # the inverse certifies past its request, and expand prints only the request
        code, out, err = run(capsys, "expand", "inv(a22:basic)", "--order", "50")
        assert (code, err) == (0, "")
        assert out == to_text(truncate(invert(characters.named_series("a22:basic", 50)), 50))
        assert out.splitlines()[0] == "D=72 O=50/1"

    # a name or a sum certifies its request; a product of factors that lead
    # below q^0, or an inverse, can certify more, and only then is a copy made.
    # rr:1 * rr:2 flattens to two products and the monomial q^(1/6), none of
    # them leading below q^0, so each is asked for 50 and the product is exact
    @pytest.mark.parametrize(
        "target, certified",
        [
            ("rr:1", None),
            ("rr:1 + rr:2", None),
            ("rr:1 * rr:2", None),
            ("inv(a22:basic)", F(1801, 36)),
            ("chi:2,5,1,1 * chi:2,5,1,2", F(3011, 60)),
        ],
    )
    def test_truncates_only_past_the_request(self, capsys, monkeypatch, target, certified):
        calls = []

        def spy(a, order):
            calls.append(a.order)
            return truncate(a, order)

        monkeypatch.setattr(cli, "truncate", spy)
        code, out, _ = run(capsys, "expand", target, "--order", "50")
        assert code == 0 and out.splitlines()[0].endswith(" O=50/1")
        assert calls == ([] if certified is None else [certified])

    def test_two_variable_expression_exits_2(self, capsys):
        assert run_alone("expand", "qlhs(-3,3)") == (
            2,
            "",
            "error: 'qlhs(-3,3)' is a two-variable series; specialize it to one variable\n",
        )


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "MIN-1", "--order", "30")
        assert code == 0
        assert out.strip() == "MIN-1 PASS order=30/1"

    def test_unknown_id_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "NOPE")
        assert code == 2
        assert "NOPE" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "RR-1", "--order", "20", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"id", "status", "order", "mismatch", "elapsed_ms"}
        assert payload["status"] == "PASS"
        assert payload["order"] == "20/1"
        assert payload["mismatch"] is None

    def test_json_stable_modulo_elapsed(self, capsys):
        _, first, _ = run(capsys, "verify", "MIN-4", "--order", "25", "--json")
        _, second, _ = run(capsys, "verify", "MIN-4", "--order", "25", "--json")
        strip = lambda s: re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', s)
        assert strip(first) == strip(second)

    def test_fail_exit_one(self, capsys, tmp_path):
        path = tmp_path / "broken.registry"
        path.write_text("BROKEN | 20 | rr:1 | rr:1 + mono(1,7)\n")
        code, out, _ = run(capsys, "verify", "BROKEN", "--registry", str(path))
        assert code == 1
        assert "BROKEN FAIL" in out
        assert "q^7/1" in out
        assert "lhs=0/1 rhs=1/1" in out


class TestVerifyAll:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--order", "20")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) >= 13
        assert all(" PASS order=20/1" in line for line in lines)

    @pytest.mark.parametrize("order", ["0", "-3", "1/3"])
    def test_all_pass_at_orders_up_to_one(self, capsys, order):
        # APPENDIX-DISPLAY inverts (q)_inf, which is empty below order 1
        code, out, err = run(capsys, "verify-all", "--order", order)
        lines = out.strip().splitlines()
        assert code == 0, err
        expected = F(order)
        assert len(lines) == len(qserieslab.registry())
        assert all(f" PASS order={expected.numerator}/{expected.denominator}" in line for line in lines)

    def test_registry_override_aggregates_failures(self, capsys, tmp_path):
        path = tmp_path / "mixed.registry"
        path.write_text(
            "GOOD | 20 | chi:2,5,1,1 | rr:1\n"
            "BAD  | 20 | rr:1 | rr:1 + mono(1,7)\n"
        )
        code, out, _ = run(capsys, "verify-all", "--registry", str(path))
        lines = out.strip().splitlines()
        assert code == 1
        assert lines[0].startswith("GOOD PASS")
        assert lines[1].startswith("BAD FAIL")

    def test_missing_registry_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-all", "--registry", str(tmp_path / "none"))
        assert code == 2
        assert err

    def test_registry_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify-all", "--registry", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_order_column_is_not_the_cli_order(self, capsys, tmp_path):
        # verify-all checks every record at --order (default 50); a record's
        # order column is only the Python API's default_order
        path = tmp_path / "inv.registry"
        path.write_text("INV | 1000 | inv(a22:basic) * a22:basic | mono(1,0)\n")
        assert run(capsys, "verify-all", "--registry", str(path)) == (0, "INV PASS order=50/1\n", "")

    def test_forty_factor_product(self, capsys, tmp_path):
        # one product nested to the left, against two halves of 20
        chain, half = " * ".join(["chi:2,5,1,2"] * 40), " * ".join(["chi:2,5,1,2"] * 20)
        path = tmp_path / "chain.registry"
        path.write_text(f"CHAIN | 50 | {chain} | ({half}) * ({half})\n")
        assert run(capsys, "verify-all", "--registry", str(path)) == (0, "CHAIN PASS order=50/1\n", "")

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--order", "15", "--json")
        assert code == 0
        for line in out.strip().splitlines():
            assert json.loads(line)["status"] == "PASS"


class TestNegativeOrders:
    def test_negative_fraction_as_its_own_argument(self):
        assert parse_args(["verify-all", "--order", "-1/2"]).order == F(-1, 2)

    def test_verify_all_at_minus_one_half(self, capsys):
        code, out, err = run(capsys, "verify-all", "--order", "-1/2")
        assert code == 0, err
        lines = out.strip().splitlines()
        assert len(lines) == len(qserieslab.registry())
        assert all(" PASS order=-1/2" in line for line in lines)


# One name per family, the three a22 modules, and rescaled forms.
_FAMILY_NAMES = [
    "chi:2,5,1,2", "chi:5,6,1,3", "rr:1", "rr:2", "a22:basic", "a22:2L1", "a22:L0",
    "w:0", "w:2/5", "w:tau1/40", "w:tau1/8", "fkw",
    "a22:2L1@q^1/3", "a22:L0@q^2", "chi:2,5,1,1@-q^1/2", "rr:2@q^3",
]


@pytest.mark.parametrize("order", ["-7", "-3", "-1/2", "0", "1/3", "7/2"])
@pytest.mark.parametrize("name", _FAMILY_NAMES)
def test_every_family_certifies_the_requested_order(capsys, name, order):
    # computed afresh, as in a new process: a memo could serve a truncation
    for module in (characters, lattice, products):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    code, out, err = run(capsys, "expand", name, f"--order={order}")
    assert code == 0, err
    expected = F(order)
    assert out.splitlines()[0].split()[1] == f"O={expected.numerator}/{expected.denominator}"


class TestDiscover:
    def test_relation_output(self, capsys):
        code, out, _ = run(
            capsys, "discover", "chi:5,6,1,2", "chi:5,6,1,4", "chi:2,5,1,1@q^1/2",
            "--order", "30",
        )
        assert code == 0
        assert out.strip() == "relation: 1/1 1/1 -1/1"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "discover", "chi:5,6,1,1", "chi:5,6,1,5", "chi:2,5,1,2@q^2",
            "--order", "30", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["relations"] == [["1/1", "-1/1", "-1/1"]]

    def test_independent_series(self, capsys):
        code, out, _ = run(capsys, "discover", "rr:1", "rr:2", "--order", "25")
        assert code == 0
        assert out.strip() == "no relations found"

    def test_insufficient_rows_exit_three(self, capsys):
        code, _, err = run(capsys, "discover", "rr:1", "rr:2", "--order", "3")
        assert code == 3
        assert "rows" in err

    def test_unknown_name(self, capsys):
        code, _, _ = run(capsys, "discover", "rr:1", "bogus", "--order", "20")
        assert code == 2

    def test_parenthesised_sum_target(self, capsys):
        code, out, _ = run(
            capsys, "discover", "(chi:5,6,1,2 + chi:5,6,1,4)", "chi:2,5,1,1@q^1/2", "--order", "30"
        )
        assert code == 0
        assert out.strip() == "relation: 1/1 -1/1"

    def test_two_variable_target_exits_2(self, capsys):
        code, out, err = run(capsys, "discover", "rr:1", "qrhs(-3,3) - qlhs(-3,3)", "--order", "20")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1


# Function forms the parser rejects, each with the start of its message.
_MALFORMED_FORMS = [
    ("prod(1,1,1)", "expected prod(s,a,d,p, ...), got 3 arguments to prod"),
    ("mono(rr:1, 0)", "expected mono(c, e), got 2 arguments to mono"),
    ("inv(rr:1, 2)", "expected inv(e), got 2 arguments to inv"),
    ("specialize(qlhs(-3,3), 5/2)", "expected specialize(e, r, w), got 2 arguments to specialize"),
    ("theta(1, 0,0)", "expected theta(A, B,C,s, ...), got 3 arguments to theta"),
    ("btheta(-3,3, 1,1,0,0,3)", "expected btheta(zmin, zmax, s,A,B,C,E,F, ...), got 7 arguments to btheta"),
    ("qlhs(-3)", "expected qlhs(zmin, zmax), got 1 arguments to qlhs"),
    ("prod(1/2,1,1,1)", "sign must be +1 or -1, got 1/2"),
    ("theta(1, 0,0,2)", "sign must be +1 or -1, got 2"),
    ("btheta(-3,3, 0,1,0,0,3,0)", "sign must be +1 or -1, got 0"),
    ("prod(1,1,1,1/2)", "power must be an integer, got 1/2"),
    ("prod(1,1,1,0)", "factor power must be nonzero"),
    ("qlhs(-1/2,3)", "window must be an integer, got -1/2"),
    ("qrhs(3,-3)", "empty z-window [3, -3]"),
    ("btheta(2,1)", "empty z-window [2, 1]"),
    ("btheta(-3,3, 1,1,0,0,3/2,0)", "z-step must be an integer, got 3/2"),
    ("theta(0, 0,0,1)", "quadratic coefficient must be positive"),
    ("btheta(-3,3, 1,-1,0,0,3,0)", "need positive quadratic coefficient and z-step"),
    ("btheta(-3,3, 1,1,0,0,0,0)", "need positive quadratic coefficient and z-step"),
    ("specialize(qlhs(-3,3), 0, 1)", "specialize ratio must be positive, got 0"),
    ("specialize(qlhs(-3,3), -5/2, 1)", "specialize ratio must be positive, got -5/2"),
]


class TestMainUsage:
    def test_usage_error_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "abc")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "rr:1@q^0"],
            ["expand", "rr:1", "--order", "1/0"],
            ["verify", "RR-1", "--order", "1/0"],
        ],
    )
    def test_zero_divisor_arguments_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "X | 1/0 | rr:1 | rr:1",
            "X | 10 | sub(rr:1,0) | rr:1",
            "X | 10 | subsigned(rr:1,0) | rr:1",
            "X | 10 | inv(rr:1 - rr:1) | rr:1",
            "X | 50 | subsigned(chi:2,5,1,1@q^1/2, 1) | rr:1",
            pytest.param("X | 5 | " + "(" * 1200 + "rr:1" + ")" * 1200 + " | rr:1", id="1200-nested-parentheses"),
        ],
    )
    def test_bad_registry_entry_exits_two(self, capsys, tmp_path, line):
        path = tmp_path / "bad.registry"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "verify-all", "--registry", str(path))
        assert code == 2
        assert not out
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param("B | 10 | rr:1 + | rr:1", "unexpected end of expression", id="unexpected-end"),
            *(pytest.param(f"B | 10 | {form} | rr:1", message, id=form) for form, message in _MALFORMED_FORMS),
            pytest.param(
                "B | 5 | " + "(" * 1200 + "rr:1" + ")" * 1200 + " | rr:1",
                "maximum recursion depth exceeded",
                id="1200-nested-parentheses",
            ),
        ],
    )
    def test_registry_expression_error_names_its_line(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.registry"
        path.write_text(f"# comment\nA | 10 | rr:1 | rr:1\n{line}\n")
        code, out, err = run(capsys, "verify-all", "--registry", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line 3: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(" + ".join(["rr:1"] * 1500) + " | mono(1500,0) * rr:1", id="sum-of-1500-terms"),
            pytest.param(" + ".join(["rr:1"] * 10000) + " | mono(10000,0) * rr:1", id="sum-of-10000-terms"),
            pytest.param("mono(1,0) * " * 1499 + "rr:1 | rr:1", id="product-of-1500-factors"),
        ],
    )
    def test_flat_chain_passes(self, tmp_path, line):
        # chains of + and * are flat nodes, evaluated without recursion
        path = tmp_path / "flat.registry"
        path.write_text(f"X | 5 | {line}\n")
        assert run_alone("verify-all", "--registry", str(path)) == (0, "X PASS order=50/1\n", "")

    def test_inverse_with_no_term_below_its_request_is_not_called_zero(self, capsys, tmp_path):
        # inv asks mono(1,3) for q^2, below its only term; the series is not zero
        path = tmp_path / "inv.registry"
        path.write_text("X | 1 | inv(mono(1,3)) * mono(1,3) | mono(1,0)\n")
        code, out, err = run(capsys, "verify-all", "--registry", str(path), "--order", "2")
        assert (code, out, err) == (2, "", "error: X: cannot invert: no term found below q^2\n")
        assert run(capsys, "verify-all", "--registry", str(path), "--order", "10")[0] == 0

    def test_disjoint_windows_are_not_a_pass(self, capsys, tmp_path):
        # the two windows share no layer, so nothing could be compared
        path = tmp_path / "disjoint.registry"
        path.write_text("DISJOINT | 50 | qlhs(-3,-1) | qrhs(5,7)\n")
        code, out, err = run(capsys, "verify-all", "--registry", str(path))
        message = "bivariate comparison requires identical z-windows, got [-3, -1] and [5, 7]"
        assert (code, out, err) == (2, "", f"error: DISJOINT: {message}\n")

    def test_error_names_its_record_after_the_reports_before_it(self, tmp_path):
        # stdout and stderr share one pipe, so a report still buffered would follow the error
        path = tmp_path / "two.registry"
        path.write_text("A | 10 | rr:1 | rr:1\nB | 10 | inv(rr:1 - rr:1) | rr:1\nC | 10 | rr:2 | rr:2\n")
        env = dict(os.environ, PYTHONPATH=str(Path(qserieslab.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "qserieslab.cli", "verify-all", "--registry", str(path)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
        assert done.returncode == 2
        assert done.stdout == "A PASS order=50/1\nerror: B: cannot invert: no term found below q^50\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "a22:basic@-q^1", "--order", "5"],
            ["discover", "a22:basic@-q^1", "rr:1", "--order", "5"],
        ],
    )
    def test_signed_substitution_off_integer_steps_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        assert len(err.splitlines()) == 1

    def test_execute_rejects_nothing_silently(self, capsys):
        code, out, err = run(capsys)
        assert code == 2
        assert err


def run_alone(*argv):
    """The exit code, stdout and stderr of one command line in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(qserieslab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qserieslab.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def run_in_one_gib(*argv):
    """run_alone in a child that limits its own address space to 1 GiB."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from qserieslab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qserieslab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.skipif(resource is None, reason="no resource module")
def test_out_of_memory_exits_two():
    # rr:1 asked for order 5*10**9 lays out a dense list that long, so under
    # the child's limit the allocation fails at once
    assert run_in_one_gib("expand", "rr:1@q^1/100000000", "--order", "50") == (2, "", "error: out of memory\n")


@pytest.mark.skipif(resource is None, reason="no resource module")
def test_out_of_memory_in_verify_all_names_its_record(tmp_path):
    path = tmp_path / "big.registry"
    path.write_text("A | 10 | rr:1 | rr:1\nM | 50 | sub(rr:1, 1/100000000) | rr:1\n")
    code, out, err = run_in_one_gib("verify-all", "--registry", str(path))
    assert (code, out, err) == (2, "A PASS order=50/1\n", "error: M: out of memory\n")


class TestSharedParser:
    def test_sequence_matches_each_command_alone(self, capsys, tmp_path):
        path = tmp_path / "x.registry"
        path.write_text("X | 20 | rr:1 | rr:1 + mono(1,7)\n")
        sequence = [
            ("verify", "MIN-1", "--order", "abc"),
            ("verify", "X", "--registry", str(path)),
            ("verify", "X"),
            ("expand", "rr:1", "--order", "311/60", "--json"),
            ("expand", "rr:1", "--order", "311/60"),
        ]
        together = [run(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in together] == [2, 1, 2, 0, 0]
        assert together == [run_alone(*argv) for argv in sequence]


REGISTRY = "X | 20 | rr:1 | rr:1 + mono(1,7)\nY | 10 | chi:2,5,1,1 | rr:1\n"
_targets = st.sampled_from(
    ["rr:1", "rr:2", "chi:5,6,1,2@-q^1/2", "a22:basic@-q^1", "fkw@q^1/3", "nope:1",
     "MIN-1", "SPECIALIZE-R", "X", "Y", "NOPE"]
)
_orders = st.sampled_from(["-3", "0", "1/3", "3", "5/2", "12", "12", "1/0", "abc"])


@st.composite
def generated_argv(draw):
    """A verb with its targets, sometimes one too few or too many, and
    optional flags, in a drawn order; {registry}, {missing} and {directory}
    stand for file paths."""
    verb = draw(st.sampled_from(["expand", "verify", "verify-all", "discover"] * 3 + ["frobnicate"]))
    needed = {"expand": 1, "verify": 1, "discover": 2}.get(verb, 0)
    count = draw(st.sampled_from([needed] * 4 + [max(0, needed - 1), needed + 1]))
    groups = [[draw(_targets)] for _ in range(count)]
    if draw(st.booleans()):
        groups.append(["--order", draw(_orders)])
    if draw(st.booleans()):
        groups.append(["--json"])
    if draw(st.sampled_from([False] * 3 + [True])):
        groups.append(["--registry", draw(st.sampled_from(["{registry}", "{registry}", "{missing}", "{directory}"]))])
    return [verb] + [token for group in draw(st.permutations(groups)) for token in group]


@given(generated_argv())
def test_generated_argv_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        registry = os.path.join(tmp, "generated.registry")
        with open(registry, "w", encoding="utf-8") as fh:
            fh.write(REGISTRY)
        paths = {"registry": registry, "missing": os.path.join(tmp, "missing.registry"), "directory": tmp}
        with redirect_stdout(out), redirect_stderr(err):
            code = main([token.format(**paths) for token in argv])
    assert code in (0, 1, 2, 3)
    if "{missing}" in argv or "{directory}" in argv:
        assert code == 2
    if code == 1:
        assert " FAIL " in out.getvalue() or '"status":"FAIL"' in out.getvalue()
    assert "Traceback" not in err.getvalue()
