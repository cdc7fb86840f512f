import contextlib
import io
import json
import os
import subprocess
import sys

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltadyn import autonomous, cli, scalars, solver
from deltadyn.cli import cli_main
from deltadyn.deltaflow import connection_matrix
from deltadyn.scalars import format_scalar
from deltadyn.umbral import OPERATOR_NAMES, basic_sequence_from_delta, operator, stirling2
from deltadyn.verifysuite import GROUPS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_affine_csv(capsys):
    code, out = run_cli(
        capsys, "solve", "--map", "poly:1,1", "--x0", "0", "--steps", "4"
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,closed,iterated,equal"
    assert lines[1] == "0,0,0,True"
    assert lines[4] == "3,3,3,True"


def test_solve_corpus_name_and_exit_code(capsys):
    # nonlinear map: the closed form and the orbit disagree from n = 2 on,
    # and the command signals it through the exit code
    code, out = run_cli(
        capsys, "solve", "--map", "logistic-4", "--x0", "1/3", "--steps", "3"
    )
    lines = out.strip().splitlines()
    assert code == 1
    assert lines[2].endswith("True")
    assert lines[3] == "2,44/27,32/81,False"


def test_solve_modes(capsys):
    code, out = run_cli(
        capsys,
        "solve", "--map", "logistic:4", "--x0", "1/3", "--steps", "2",
        "--mode", "iterate", "--format", "json",
    )
    assert code == 0  # no comparison requested
    payload = json.loads(out)
    assert payload["rows"][2] == {"n": 2, "iterated": "32/81"}


def test_solve_gaussian_field(capsys):
    code, out = run_cli(
        capsys,
        "solve", "--map", "quadratic:1/2", "--x0", "0", "--steps", "3",
        "--field", "Qi", "--mode", "iterate",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "3,17/16"


def test_basis_touchard_json(capsys):
    code, out = run_cli(capsys, "basis", "--op", "touchard", "--depth", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "touchard"
    assert payload["order"] == 5
    coeffs = payload["coeffs"]
    for k in range(6):
        for n in range(6):
            expected = stirling2(n, k) if k <= n else 0
            assert coeffs[k][n] == str(expected)


def test_basis_abel_alpha(capsys):
    code, out = run_cli(
        capsys, "basis", "--op", "abel", "--alpha", "-1", "--depth", "3",
    )
    payload = json.loads(out)
    # q_2 = t(t + 2) for alpha = -1
    assert payload["coeffs"][1][2] == "2"
    assert payload["coeffs"][2][2] == "1"


def test_flow_json(capsys):
    code, out = run_cli(
        capsys, "flow", "--f", "0,1,-1", "--op", "forward", "--order", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basic"][1] == ["0", "1", "-1"]
    assert len(payload["monomial"]) == 5


def test_verify_json_and_determinism(capsys):
    code1, out1 = run_cli(capsys, "verify", "--order", "6", "--depth", "8")
    code2, out2 = run_cli(capsys, "verify", "--order", "6", "--depth", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["all_pass"] is True
    assert all(c["residual"] == "0" for c in payload["checks"])
    assert len(payload["checks"]) == 31


def test_verify_group_subset(capsys):
    code, out = run_cli(
        capsys, "verify", "--order", "6", "--depth", "8", "--ops", "umbral",
    )
    assert code == 0
    payload = json.loads(out)
    assert {c["group"] for c in payload["checks"]} == {"umbral"}


def test_verify_fails_a_flow_that_loses_its_top_coefficient(capsys, monkeypatch):
    from deltadyn import verifysuite
    from deltadyn.flows import Flow

    real = verifysuite.connection_flow

    def truncated(*args, **kwargs):
        flow = real(*args, **kwargs)
        return Flow(flow.coeffs[:-1], flow.basis, flow.has_base, flow.generator)

    monkeypatch.setattr(verifysuite, "connection_flow", truncated)
    with pytest.raises(ValueError):
        verifysuite.run_checks(6, 8, "deltaflow")
    code = cli_main(["verify", "--order", "6", "--depth", "8", "--ops", "deltaflow"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: residual sides differ in length")


def test_numcheck_reports_divergent_cell(capsys):
    code, out = run_cli(capsys, "numcheck")
    payload = json.loads(out)
    assert payload["lambert_pass"] is True
    by_key = {(c["kind"], c["a"], c["t"]): c for c in payload["cells"]}
    assert by_key[("abel", 0.5, 0.1)]["status"].startswith("diverged")
    assert by_key[("abel", 0.25, 0.5)]["status"] == "ok"
    assert by_key[("forward", 0.5, 0.1)]["status"] == "ok"
    # the divergent Abel cell keeps the overall status red
    assert payload["all_pass"] is False
    assert code == 1


def csv_and_json(capsys, *argv):
    """The exit code, CSV lines and JSON payload of one command."""
    code, out = run_cli(capsys, *argv, "--format", "csv")
    code_json, payload = run_cli(capsys, *argv, "--format", "json")
    assert code == code_json
    return code, out.splitlines(), json.loads(payload)


@pytest.mark.parametrize("broken", [False, True])
def test_verify_csv_is_its_json_row_by_row(capsys, monkeypatch, broken):
    from deltadyn import verifysuite
    from deltadyn.flows import Flow

    if broken:
        # one more unit on the top coefficient fails connection-flow
        real = verifysuite.connection_flow

        def bumped(*args, **kwargs):
            flow = real(*args, **kwargs)
            coeffs = flow.coeffs[:-1] + (flow.coeffs[-1] + 1,)
            return Flow(coeffs, flow.basis, flow.has_base, flow.generator)

        monkeypatch.setattr(verifysuite, "connection_flow", bumped)
    code, lines, payload = csv_and_json(capsys, "verify", "--order", "3", "--depth", "3")
    assert code == (1 if broken else 0)
    assert lines[0] == "group,name,pass,residual"
    assert len(lines) == 1 + len(payload["checks"]) == 32
    for line, check in zip(lines[1:], payload["checks"]):
        group, name, passed, residual = line.split(",")
        assert (group, name, residual) == (check["group"], check["name"], check["residual"])
        assert passed == ("True" if check["pass"] else "False")
    failed = [line for line in lines if ",False," in line]
    assert failed == (["deltaflow,connection-flow,False,1"] if broken else [])


def test_numcheck_csv_is_its_json_cell_by_cell(capsys):
    code, lines, payload = csv_and_json(capsys, "numcheck")
    assert code == 1  # the divergent Abel cell
    assert lines[0] == "kind,a,t,deviation,status"
    assert len(lines) == 2 + len(payload["cells"])
    for line, cell in zip(lines[1:-1], payload["cells"]):
        want = [cell[key] for key in ("kind", "a", "t", "deviation", "status")]
        assert line.split(",", 4) == [str(v) for v in want]
    assert lines[-1] == "lambert,max_residual=%s,pass=True" % payload["lambert_max_residual"]
    assert payload["lambert_pass"] is True


@pytest.mark.parametrize("mode", ["closed", "iterate", "both"])
def test_solve_csv_is_its_json_row_by_row(capsys, mode):
    keys = {"closed": ["n", "closed"], "iterate": ["n", "iterated"], "both": ["n", "closed", "iterated", "equal"]}[mode]
    code, lines, payload = csv_and_json(
        capsys, "solve", "--map", "logistic-4", "--x0", "1/3", "--steps", "5", "--mode", mode
    )
    assert code == (1 if mode == "both" else 0)
    assert lines[0] == ",".join(keys)
    assert len(lines) == 1 + len(payload["rows"]) == 7
    for line, row in zip(lines[1:], payload["rows"]):
        assert list(row) == keys
        assert line.split(",") == [str(row[key]) for key in keys]


def test_flow_csv_is_its_json_row_by_row(capsys):
    code, lines, payload = csv_and_json(
        capsys, "flow", "--f=1/2-i,0,3*i", "--op", "abel", "--alpha", "2/3", "--order", "5", "--field", "Qi"
    )
    assert code == 0
    want = [
        ",".join([label, str(n)] + coeffs)
        for label in ("basic", "monomial")
        for n, coeffs in enumerate(payload[label])
    ]
    assert lines == want and len(lines) == 12


def test_basis_csv_is_its_json_row_by_row(capsys):
    code, lines, payload = csv_and_json(capsys, "basis", "--op", "abel", "--alpha", "-3/2", "--depth", "6")
    assert code == 0
    assert lines == [",".join(row) for row in payload["coeffs"]] and len(lines) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--bogus", "1"],
        # a flow of order N reads only N operator coefficients: no --depth
        ["flow", "--f=0,1", "--depth", "16"],
    ],
    ids=["solve-bogus", "flow-depth"],
)
def test_unknown_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--map", "logistic:4", "--x0", "1/3", "--steps", "-1"],
        ["solve", "--map", "logistic:4", "--x0", "1/3", "--max-digits", "0"],
        ["flow", "--f", "0,1", "--order", "0"],
        ["basis", "--op", "forward", "--depth", "-1"],
        ["verify", "--order", "0"],
        ["verify", "--depth", "2"],
        ["numcheck", "--depth", "0"],
    ],
)
def test_integer_below_minimum_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: deltadyn " + argv[0])
    assert "must be >= " in err


def test_integer_minimums_are_accepted(capsys):
    code, out = run_cli(
        capsys, "solve", "--map", "logistic:4", "--x0", "1/3", "--steps", "0"
    )
    assert code == 0 and out.strip().splitlines()[1] == "0,1/3,1/3,True"
    code, out = run_cli(capsys, "basis", "--op", "forward", "--depth", "0")
    assert code == 0 and json.loads(out)["coeffs"] == [["1"]]
    code, out = run_cli(capsys, "verify", "--order", "1", "--depth", "3")
    assert code == 0 and json.loads(out)["all_pass"] is True


@pytest.mark.parametrize(
    "argv, dest, cap",
    [
        (["solve", "--map", "logistic:4", "--x0", "1/3", "--steps"], "steps", cli.MAX_STEPS),
        (["flow", "--f", "0,1", "--order"], "order", cli.MAX_FLOW_ORDER),
        (["basis", "--op", "forward", "--depth"], "depth", cli.MAX_BASIS_DEPTH),
        (["verify", "--order"], "order", cli.MAX_VERIFY_ORDER),
        (["verify", "--depth"], "depth", cli.MAX_VERIFY_DEPTH),
        (["numcheck", "--depth"], "depth", cli.MAX_NUMCHECK_DEPTH),
        (
            ["solve", "--map", "logistic:4", "--x0", "1/3", "--max-digits"],
            "max_digits",
            cli.MAX_DIGITS,
        ),
    ],
    ids=[
        "steps",
        "flow-order",
        "basis-depth",
        "verify-order",
        "verify-depth",
        "numcheck-depth",
        "max-digits",
    ],
)
def test_integer_above_cap_is_usage_error(capsys, argv, dest, cap):
    # the cap itself parses; one more is a usage error, before any work
    assert getattr(cli._build_parser().parse_args(argv + [str(cap)]), dest) == cap
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + [str(cap + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: deltadyn " + argv[0])
    assert "must be <= %d, got %d" % (cap, cap + 1) in err
    assert "Traceback" not in err


def test_unknown_check_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--ops", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: deltadyn verify")
    assert "invalid choice: 'bogus'" in err


def test_closed_pipe_exits_quietly():
    # the reader goes away before verify writes: no traceback, exit 141
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltadyn.cli", "verify", "--ops", "core"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "Exception ignored" not in err


def test_bad_map_returns_error(capsys):
    code, _ = run_cli(capsys, "solve", "--map", "nope:1", "--x0", "0")
    assert code == 1


def test_unknown_corpus_map_is_an_unquoted_error(capsys):
    code = cli_main(["solve", "--map", "nosuch", "--x0", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: no corpus map named 'nosuch'\n"


def test_input_past_cpython_digit_limit_is_a_clean_error(capsys):
    code = cli_main(["solve", "--map", "logistic:4", "--x0", "1/" + "7" * 5000, "--steps", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == "error: number has more than %d digits\n" % limit
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("steps", [14, 16, 17])
def test_solve_past_cpython_digit_limit_matches_iteration(capsys, steps):
    # orbit values of 4^n x (1 - x) at x0 = 1/3 pass 4300 digits at n = 14,
    # and their parts pass the switch-over of scalars._int_str at n = 15
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(
        capsys, "solve", "--map", "logistic:4", "--x0", "1/3",
        "--steps", str(steps), "--mode", "iterate",
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # restored after formatting
    lines = out.splitlines()
    assert lines[0] == "n,iterated" and len(lines) == steps + 2
    y = Fraction(1, 3)
    sys.set_int_max_str_digits(0)
    try:
        for n, line in enumerate(lines[1:]):
            assert line == "%d,%s" % (n, y)
            last = y
            y = 4 * y * (1 - y)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(lines[-1]) > 4300
    assert (last.denominator.bit_length() > scalars._DC_MIN_BITS) == (steps > 14)


def test_solve_over_the_digit_cap_is_usage_error(capsys):
    limit = sys.get_int_max_str_digits()
    code = cli_main(
        ["solve", "--map", "logistic:4", "--x0", "1/3", "--steps", "14", "--max-digits", "3000"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the value at n = 13 has more than 3000 decimal digits (see --max-digits)\n"
    )
    assert sys.get_int_max_str_digits() == limit


def test_solve_over_the_digit_cap_of_a_gaussian_cubic(capsys):
    # the Gaussian orbit kernel stops at the same n, with the same message
    code = cli_main([
        "solve", "--map", "poly:2/7+3/5*i,-22/7+1/3*i,13/11-5/3*i,-7/2+i",
        "--field", "Qi", "--x0", "1/3", "--steps", "48", "--max-digits", "2000",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the value at n = 7 has more than 2000 decimal digits (see --max-digits)\n"
    )


SEVENS = "7" * 3000


def test_flow_past_cpython_digit_limit_is_usage_error(capsys, monkeypatch):
    # basic row 2 holds f f'/2, whose numerators have about 6000 digits;
    # the flow is refused there, before its monomial form is computed
    from deltadyn.flows import Flow

    def unused(self):
        raise AssertionError("to_monomial ran before the refusal")

    monkeypatch.setattr(Flow, "to_monomial", unused)
    code = cli_main(["flow", "--f", "%s,%s" % (SEVENS, SEVENS), "--order", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == (
        "error: a coefficient to print has more than %d digits, the int-to-str limit\n" % limit
    )


def test_basis_past_cpython_digit_limit_is_usage_error(capsys):
    # beta(1, 3) = 9 alpha^2 has about 6000 digits
    code = cli_main(["basis", "--op", "abel", "--alpha", SEVENS, "--depth", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == (
        "error: a coefficient to print has more than %d digits, the int-to-str limit\n" % limit
    )


def _built(*args):
    raise AssertionError("built before the refusal")


TOO_LONG = "error: a coefficient to print has more than %d digits, the int-to-str limit\n"


@pytest.mark.parametrize(
    "argv",
    [
        # beta(1, 48) = (-48 alpha)^47 has about 141k digits
        ["basis", "--op", "abel", "--alpha", SEVENS, "--depth", "48"],
        # basic row 32 ends in S^32 prod_(n<32) (2n+1) / 32!
        ["flow", "--f", ",".join([SEVENS] * 4), "--order", "32"],
        # a Gaussian top coefficient 1/S - S*i, not integral
        ["flow", "--f", "1/3+%s*i,2,1/%s-%s*i" % (SEVENS, SEVENS, SEVENS), "--field", "Qi",
         "--order", "16"],
        # f(0) = 0: the x coefficient of basic row 96 is S^96 / 96!, under
        # a top coefficient 1
        ["flow", "--f", "0,%s,1" % SEVENS, "--order", "96"],
        ["flow", "--f", "0,%s*i,1" % SEVENS, "--field", "Qi", "--order", "96"],
    ],
    ids=["basis-abel", "flow-Q", "flow-Qi", "flow-x-Q", "flow-x-Qi"],
)
def test_too_long_output_is_refused_before_any_work(capsys, monkeypatch, argv):
    for name in ("operator", "basic_sequence_from_delta", "delta_flow"):
        monkeypatch.setattr(cli, name, _built)
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == TOO_LONG % sys.get_int_max_str_digits()


def _ten(k):
    return "1" + "0" * k


# Requests whose closed-form entry has just under or just over 640
# digits, the lowest limit CPython allows, and whether that refuses them.
NEAR_THE_LIMIT = [
    # (-8 alpha)^7: 637 digits at 10^90/3, 644 at 10^91/3, 645 at 3/10^93
    (["basis", "--op", "abel", "--alpha", _ten(90) + "/3", "--depth", "8"], False),
    (["basis", "--op", "abel", "--alpha", _ten(91) + "/3", "--depth", "8"], True),
    (["basis", "--op", "abel", "--alpha", "3/" + _ten(93), "--depth", "8"], True),
    # c^8 / 8! for f = 1 + c x: 638 digits at c = 10^80, 646 at 10^81,
    # 645 at 1/10^80, and the same at c = 10^80 i and 10^81 i
    (["flow", "--f", "1," + _ten(80), "--order", "8"], False),
    (["flow", "--f", "1," + _ten(81), "--order", "8"], True),
    (["flow", "--f", "1,1/" + _ten(80), "--order", "8"], True),
    (["flow", "--f", "0,%s*i" % _ten(80), "--field", "Qi", "--order", "8"], False),
    (["flow", "--f", "0,%s*i" % _ten(81), "--field", "Qi", "--order", "8"], True),
    # c^8 for f = c x^2: 633 digits at c = 10^79, 641 at 10^80; 636 and
    # 644 at c = 1/3 + (10^79/7) i and 1/3 + (10^80/7) i
    (["flow", "--f", "0,0," + _ten(79), "--order", "8"], False),
    (["flow", "--f", "0,0," + _ten(80), "--order", "8"], True),
    (["flow", "--f", "0,0,1/3+%s/7*i" % _ten(79), "--field", "Qi", "--order", "8"], False),
    (["flow", "--f", "0,0,1/3+%s/7*i" % _ten(80), "--field", "Qi", "--order", "8"], True),
    # c^8 / 8! at x for f = c x + x^2: 638 digits at c = 10^80, 646 at
    # 10^81, 645 at 1/10^80, and the same at c = 10^80 i and 10^81 i
    (["flow", "--f", "0,%s,1" % _ten(80), "--order", "8"], False),
    (["flow", "--f", "0,%s,1" % _ten(81), "--order", "8"], True),
    (["flow", "--f", "0,1/%s,1" % _ten(80), "--order", "8"], True),
    (["flow", "--f", "0,%s*i,1" % _ten(80), "--field", "Qi", "--order", "8"], False),
    (["flow", "--f", "0,%s*i,1" % _ten(81), "--field", "Qi", "--order", "8"], True),
]


@pytest.mark.parametrize("argv,early", NEAR_THE_LIMIT)
def test_early_refusal_decides_like_printing(capsys, monkeypatch, argv, early):
    # the same outcome as with the early check switched off, and the
    # operator built only when the entry is within the limit
    built = []
    real = cli.operator
    monkeypatch.setattr(cli, "operator", lambda *args: built.append(args) or real(*args))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = cli_main(argv), capsys.readouterr()
        assert bool(built) != early
        monkeypatch.setattr(cli, "_refuse_long", lambda bits, entry: None)
        assert (cli_main(argv), capsys.readouterr()) == got
    finally:
        sys.set_int_max_str_digits(limit)
    if early:
        assert got[0] == 2 and got[1].err == TOO_LONG % 640


def test_solve_refuses_a_gaussian_cubic_before_computing_past_the_cap(capsys, monkeypatch):
    # y_10 has about 94.5k digits, and the bound on the denominator of
    # y_11 refuses it at the default cap without computing it
    calls = []
    real = solver._powers

    def counting(b, d):
        calls.append(b)
        return real(b, d)

    monkeypatch.setattr(solver, "_powers", counting)
    code = cli_main([
        "solve", "--map", "poly:2/7+3/5*i,-22/7+1/3*i,13/11-5/3*i,-7/2+i",
        "--field", "Qi", "--x0", "1/3", "--steps", "48",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the value at n = 11 has more than 100000 decimal digits (see --max-digits)\n"
    )
    assert len(calls) == 10


def test_solve_closed_mode_is_refused_by_its_orbit_before_the_closed_column(capsys, monkeypatch):
    # the closed rows stay under the cap up to n = 166, and their
    # recursion takes more than a minute to reach n = 167; the orbit
    # passes the cap at n = 6
    computed = []
    real = solver._hurwitz_composite
    monkeypatch.setattr(solver, "_hurwitz_composite", lambda *args: computed.append(args) or real(*args))
    code = cli_main(["solve", "--map", "cubic", "--x0", "1/" + "7" * 300, "--steps", "256", "--mode", "closed"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: the value at n = 6 has more than 100000 decimal digits (see --max-digits)\n"
    assert computed == []


@pytest.mark.parametrize(
    "mode, calls",
    [("closed", ["orbit", "closed"]), ("iterate", ["orbit"]), ("both", ["orbit", "closed"])],
)
def test_solve_computes_no_closed_column_for_mode_iterate(capsys, monkeypatch, mode, calls):
    got = []
    real_iterate, real_values = solver.iterate, solver._hurwitz_composite

    def orbit(*args):
        got.append("orbit")
        return real_iterate(*args)

    monkeypatch.setattr(solver, "iterate", orbit)
    monkeypatch.setattr(cli, "iterate", orbit)
    monkeypatch.setattr(solver, "_hurwitz_composite", lambda *args: got.append("closed") or real_values(*args))
    code, out = run_cli(capsys, "solve", "--map", "logistic-4", "--x0", "1/3", "--steps", "4", "--mode", mode)
    assert got == calls
    assert (code, len(out.splitlines())) == (1 if mode == "both" else 0, 6)


DEGREE_8_QI = "poly:0,2/7+3/5*i,-22/7+1/3*i,13/11-5/3*i,-7/2+i,1/3-2/9*i,5/7+i,-3/11+1/2*i,2/13-3/7*i"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--map", "logistic:4", "--x0", "1/3", "--steps", "12"], 1),
        (["--map", "cubic", "--x0", "2/7", "--steps", "8"], 1),
        (["--map", "quadratic:1/2", "--x0", "1/3-2/5*i", "--steps", "8", "--field", "Qi"], 1),
        # from the fixed point 0 the orbit and the closed column stay
        # 0, but the autonomous polynomials of this map would reach
        # degree 7 * 255 + 1 with long Gaussian coefficients
        (["--map", DEGREE_8_QI, "--x0", "0", "--steps", "256", "--field", "Qi"], 0),
    ],
)
def test_solve_builds_no_autonomous_sequence(capsys, monkeypatch, argv, code):
    def unused(*args):
        raise AssertionError("solve built an autonomous sequence")

    monkeypatch.setattr(solver, "autonomous_sequence", unused)
    monkeypatch.setattr(autonomous, "autonomous_sequence", unused)
    monkeypatch.setattr(autonomous, "_numerators", unused)
    got, out = run_cli(capsys, "solve", *argv)
    assert got == code
    assert len(out.splitlines()) == int(argv[argv.index("--steps") + 1]) + 2


def test_a_cold_solve_loads_no_points():
    # the Taylor recursion solve runs lives in series, so a solve
    # request, over Q(i) too, never loads the point certification
    code = (
        "import sys; from deltadyn.cli import cli_main; "
        "cli_main(['solve', '--map', 'quadratic:1/2', '--x0', '1/3-2/5*i', '--steps', '6', '--field', 'Qi']); "
        "print('deltadyn.points' in sys.modules)"
    )
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "option, value, rest",
    [
        ("--x0", "-1/3", ["solve", "--map", "logistic:4", "--steps", "3"]),
        ("--x0", "-1/3-i", ["solve", "--map", "quadratic-1/2", "--field", "Qi", "--steps", "2"]),
        ("--x0", "-i", ["solve", "--map", "double", "--field", "Qi", "--steps", "2"]),
        ("--f", "-1,1", ["flow", "--order", "4"]),
        ("--alpha", "-2/3", ["flow", "--f=0,1", "--op", "abel", "--order", "4"]),
        ("--alpha", "-2/3", ["basis", "--op", "abel", "--depth", "4"]),
    ],
)
def test_negative_scalar_as_a_separate_argument(capsys, option, value, rest):
    # "--opt -1/3" gives the same output as "--opt=-1/3"
    code, out = run_cli(capsys, *rest, option, value)
    assert capsys.readouterr().err == ""
    assert (code, out) == run_cli(capsys, *rest, option + "=" + value)
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--map", "double", "--x0", "1", "--bogus", "-1/3"],
        ["solve", "--map", "double", "-1/3", "--x0", "1"],
        ["flow", "--f", "-1,1", "-i"],
    ],
    ids=["unknown-option", "stray-value", "stray-gaussian"],
)
def test_a_negative_scalar_does_not_make_an_unknown_option_valid(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--map", "logistic:4", "--x0", "1/0"],
        ["flow", "--f=1/0"],
        ["flow", "--f=0,1", "--op", "abel", "--alpha", "1/0"],
        ["solve", "--map", "logistic:1/0", "--x0", "1/3"],
        ["flow", "--f=1,1/0*i", "--field", "Qi"],
    ],
    ids=["x0", "f", "alpha", "logistic", "imaginary"],
)
def test_zero_denominator_is_a_clean_error(capsys, argv):
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: zero denominator in '1/0")
    assert "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "0", "-1e-9", "abc"])
def test_numcheck_tolerance_must_be_finite_and_positive(capsys, tolerance):
    with pytest.raises(SystemExit) as exc:
        cli_main(["numcheck", "--tolerance=" + tolerance])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: deltadyn numcheck")
    assert "must be a finite number > 0" in err


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser("basis") is cli._build_parser("basis")
    assert cli._build_parser("basis") is not cli._build_parser()


@pytest.mark.parametrize(
    "argv, built",
    [(["basis", "--op", "forward", "--depth", "3"], 2), ([], 6), (["-h"], 6), (["bogus"], 6)],
    ids=["basis", "no-command", "help", "unknown-command"],
)
def test_a_request_builds_only_the_parser_of_its_command(monkeypatch, capsys, argv, built):
    # the main parser and the subparser the request names; help, a
    # missing and an unknown command build all five subparsers
    init, calls = cli._Parser.__init__, []

    def spy(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli._build_parser.cache_clear()
    try:
        with contextlib.suppress(SystemExit):
            cli_main(argv)
    finally:
        cli._build_parser.cache_clear()
    assert len(calls) == built


def test_importing_the_cli_builds_no_parser():
    code = "from deltadyn import cli; print(cli._build_parser.cache_info().currsize)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("depth", [0, 1, 16, 96])
@pytest.mark.parametrize("op", OPERATOR_NAMES)
def test_basis_rows_print_the_connection_matrix(capsys, op, depth):
    # the matrix spelled from the integer rows of the basis, column by
    # column, against format_scalar of each of its scalars
    Q = operator(op, max(depth, 1), Fraction(-2, 3))
    want = [[format_scalar(b) for b in row] for row in connection_matrix(basic_sequence_from_delta(Q, depth))]
    argv = ["basis", "--op", op, "--alpha", "-2/3", "--depth", str(depth)]
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"basis": op, "order": depth, "coeffs": want}
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == "\n".join(",".join(row) for row in want) + "\n"


def test_basis_builds_and_prints_without_fraction_arithmetic(capsys, monkeypatch):
    # Abel at 2/3 and Touchard at depth 48, built and printed on integers
    # from the series of p' to the printed digits
    ops = {"abel": operator("abel", 48, Fraction(2, 3)), "touchard": operator("touchard", 48)}
    want = {}
    for name in ops:
        want[name] = run_cli(capsys, "basis", "--op", name, "--alpha", "2/3", "--depth", "48")
    basic_sequence_from_delta.cache_clear()

    def fails(*args):
        raise AssertionError("Fraction arithmetic in the basis route")

    for method in ("add", "mul", "truediv"):
        monkeypatch.setattr(Fraction, "__%s__" % method, fails)
        monkeypatch.setattr(Fraction, "__r%s__" % method, fails)
    monkeypatch.setattr(cli, "operator", lambda name, order, alpha: ops[name])
    for name in ops:
        got = run_cli(capsys, "basis", "--op", name, "--alpha", "2/3", "--depth", "48")
        assert got == want[name]
    assert basic_sequence_from_delta.cache_info().misses == 2


@pytest.mark.parametrize("alpha", ["1+i", "x"])
def test_basis_alpha_that_is_not_rational_is_an_input_error(capsys, alpha):
    code = cli_main(["basis", "--op", "abel", "--alpha", alpha, "--depth", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: not a rational: %r\n" % alpha


# --- process-level caches ----------------------------------------------------------

ALPHAS = {"Q": ["1", "2/3", "-3/2"], "Qi": ["1", "2/3", "-3/2", "1+0*i", "2/3+0*i", "-3/2+0*i"]}
SCALAR_TEXTS = {"Q": ["0", "1", "-1", "1/2", "-2/3"], "Qi": ["0", "1", "-1", "1/2", "i", "1/2-i"]}
# a few orders, so that requests of a session share operators and bases
ORDERS = (1, 2, 5, 12)
CORPUS_NAMES = ["double", "shift", "logistic-2", "logistic-5/2", "logistic-4", "quadratic-1/2", "cubic"]


@st.composite
def _requests(draw):
    field = draw(st.sampled_from(["Q", "Qi"]))
    command = draw(st.sampled_from(["flow", "solve", "basis"]))
    scalar = st.sampled_from(SCALAR_TEXTS[field])
    if command == "flow":
        f = ",".join(draw(st.lists(scalar, min_size=1, max_size=3)))
        return [
            "flow", "--f=" + f, "--op", draw(st.sampled_from(OPERATOR_NAMES)),
            "--alpha=" + draw(st.sampled_from(ALPHAS[field])), "--order", str(draw(st.sampled_from(ORDERS))),
            "--field", field, "--format", draw(st.sampled_from(["json", "csv"])),
        ]
    if command == "solve":
        spec = draw(st.one_of(st.sampled_from(CORPUS_NAMES), scalar.map("logistic:{}".format)))
        return [
            "solve", "--map", spec, "--x0=" + draw(scalar), "--steps", str(draw(st.integers(0, 6))),
            "--field", field, "--format", draw(st.sampled_from(["json", "csv"])),
        ]
    # basis reads alpha over Q whatever the field of the other requests
    return [
        "basis", "--op", draw(st.sampled_from(OPERATOR_NAMES)), "--alpha=" + draw(st.sampled_from(ALPHAS["Q"])),
        "--depth", str(draw(st.sampled_from((0,) + ORDERS))), "--format", draw(st.sampled_from(["json", "csv"])),
    ]


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _clear_process_caches():
    operator.cache_clear()
    basic_sequence_from_delta.cache_clear()
    solver._corpus.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.lists(_requests(), min_size=1, max_size=6))
def test_an_answer_does_not_depend_on_the_requests_before_it(session):
    # the operator memo, the basis cache and the corpus are kept for the
    # whole process; a request answers as it would in a fresh one
    in_session = [_answer(argv) for argv in session]
    alone = []
    for argv in session:
        _clear_process_caches()
        alone.append(_answer(argv))
    assert in_session == alone


# --- the CLI contract ----------------------------------------------------------------

# Scalars in both fields, with signs, long digit strings and i parts.
_DIGITS = st.one_of(st.integers(0, 40).map(str), st.just("7" * 300))
_NONZERO = st.one_of(st.integers(1, 40).map(str), st.just("7" * 300))
_UNSIGNED = st.builds("{}{}".format, _DIGITS, st.one_of(st.just(""), _NONZERO.map("/{}".format)))
_SIGNS = st.sampled_from(["", "-", "+"])
_RATIONALS = st.builds("{}{}".format, _SIGNS, _UNSIGNED)
_IMAGINARY = st.one_of(st.just("i"), _UNSIGNED.map("{}*i".format))
_SCALARS = {
    "Q": _RATIONALS,
    "Qi": st.one_of(
        _RATIONALS,
        st.builds("{}{}{}".format, _RATIONALS, st.sampled_from("+-"), _IMAGINARY),
        st.builds("{}{}".format, _SIGNS, _IMAGINARY),
    ),
}
# Zero denominators, an integer past CPython's 4300-digit limit on
# reading one, bad spellings, and an i part over Q.
_BAD_SCALARS = {
    "Qi": st.one_of(
        st.builds("{}/0".format, _RATIONALS),
        st.builds("1+{}/0*i".format, _DIGITS),
        st.sampled_from(["7" * 5000, "1/" + "7" * 5000, "", "x", "1/", "1.5", "i*i", "--1", "-x"]),
    ),
}
_BAD_SCALARS["Q"] = st.one_of(_BAD_SCALARS["Qi"], st.sampled_from(["i", "-1/2+3*i"]))


def _lists(scalars):
    return st.lists(scalars, min_size=1, max_size=5).map(",".join)


def _ints(low, high, small):
    """An integer option from its lowest value up to small, which keeps
    the work short, and its values just past either end, high the cap."""
    return st.integers(low, small).map(str), st.sampled_from([str(low - 1), str(high + 1), "x", "1.5", ""])


def _choices(*names):
    return st.sampled_from(names), st.just("bogus")


def _grammar(command, field):
    """Each option of command as (good values, bad values); a value None
    leaves the option out, which is good for an option whose default is
    cheap and bad for a required one."""
    good, bad = _SCALARS[field], _BAD_SCALARS[field]
    fmt = _choices("json", "csv")
    if command == "solve":
        return {
            "--map": (
                st.one_of(
                    st.sampled_from(CORPUS_NAMES),
                    st.builds("{}:{}".format, st.sampled_from(["logistic", "quadratic"]), good),
                    _lists(good).map("poly:{}".format),
                ),
                st.one_of(
                    st.sampled_from([None, "nosuch", "bogus:1"]),
                    st.builds("{}:{}".format, st.sampled_from(["logistic", "quadratic", "poly"]), bad),
                ),
            ),
            "--x0": (good, st.one_of(st.none(), bad)),
            "--steps": _ints(0, cli.MAX_STEPS, 8),
            # at and past both ends of the range
            "--max-digits": (
                st.sampled_from([None, "1", "2", "40", str(cli.MAX_DIGITS)]),
                st.sampled_from(["0", str(cli.MAX_DIGITS + 1)]),
            ),
            "--field": (st.just(field), st.just("R")),
            "--mode": _choices("closed", "iterate", "both"),
            "--format": fmt,
        }
    if command == "flow":
        return {
            "--f": (_lists(good), st.one_of(st.none(), bad, st.builds("{},{}".format, _lists(good), bad))),
            "--op": _choices(*OPERATOR_NAMES),
            "--alpha": (good, bad),
            "--order": _ints(1, cli.MAX_FLOW_ORDER, 8),
            "--field": (st.just(field), st.just("R")),
            "--format": fmt,
        }
    if command == "basis":
        return {
            "--op": (st.sampled_from(OPERATOR_NAMES), st.sampled_from([None, "bogus"])),
            "--alpha": (st.one_of(st.none(), _RATIONALS), _BAD_SCALARS["Q"]),
            "--depth": _ints(0, cli.MAX_BASIS_DEPTH, 12),
            "--format": fmt,
        }
    if command == "verify":
        # the suite runs only at its lowest order and depth, one group
        return {
            "--order": (st.just("1"), st.sampled_from(["0", str(cli.MAX_VERIFY_ORDER + 1)])),
            "--depth": (st.just("3"), st.sampled_from(["2", str(cli.MAX_VERIFY_DEPTH + 1)])),
            "--ops": _choices(*GROUPS),
            "--format": fmt,
        }
    return {
        "--tolerance": (
            st.sampled_from([None, "1e-9", "1e300", "5e-324"]),
            st.sampled_from(["1e-400", "0", "-1e-9", "inf", "nan", "x"]),
        ),
        "--depth": _ints(1, cli.MAX_NUMCHECK_DEPTH, 8),
        "--format": fmt,
    }


_DEFAULT_FORMAT = {"solve": "csv", "flow": "json", "basis": "json", "verify": "json", "numcheck": "json"}


@st.composite
def _argvs(draw):
    """argv of one command with its options in grammar, but for at most
    one option given a bad value; each value either after "=" or as a
    separate argument."""
    command = draw(st.sampled_from(sorted(_DEFAULT_FORMAT)))
    options = _grammar(command, draw(st.sampled_from(["Q", "Qi"])))
    broken = draw(st.one_of(st.none(), st.sampled_from(list(options))))
    argv = [command]
    for option, (good, bad) in options.items():
        value = draw(bad if option == broken else good)
        if value is not None:
            argv += [option + "=" + value] if draw(st.booleans()) else [option, value]
    return argv


def _format_of(argv):
    formats = [
        arg.split("=", 1)[1] if "=" in arg else argv[i + 1]
        for i, arg in enumerate(argv)
        if arg.startswith("--format")
    ]
    return formats[-1] if formats else _DEFAULT_FORMAT[argv[0]]


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_every_request_keeps_the_cli_contract(argv):
    # exit 0, 1 or 2; an error is one "error:" line, or argparse's usage
    # and error lines, with nothing on stdout; an answer parses as the
    # format asked for, and comes with an empty stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert out or err
    assert "Traceback" not in err
    if err:
        lines = err.splitlines()
        assert out == ""
        if lines[0].startswith("usage: deltadyn " + argv[0]):
            assert code == 2 and (": error: " in lines[-1])
        else:
            assert code in (1, 2) and len(lines) == 1 and lines[0].startswith("error: ")
        return
    assert out.endswith("\n")
    if _format_of(argv) == "json":
        json.loads(out)
    else:
        # no value holds a comma or a quote, so every row of a table
        # has the commas of its header
        lines = out.splitlines()
        assert all(lines) and '"' not in out
        if argv[0] in ("solve", "verify"):
            assert len({line.count(",") for line in lines}) == 1
