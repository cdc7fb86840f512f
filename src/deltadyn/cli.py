"""Command line front end.

Subcommands:

* solve    - run a difference map: closed form, brute-force iteration
             or both (CSV of exact rational strings by default; exit
             code 1 when the two columns differ anywhere).
* flow     - emit the monomial and basic coefficients of a delta flow.
* basis    - emit the coefficient matrix of a basic sequence.
* verify   - run the exact invariant suite; exit 0 iff all checks pass.
* numcheck - float validation of the exponential closed forms and the
             Lambert W grid; exit 0 iff every sample is within
             tolerance.

All output is deterministic: fixed orderings, no timestamps.  Each
command returns its exit code, JSON object and CSV lines, and cli_main
writes the one --format asks for, a line at a time; a CSV table is a
header of the JSON keys and a line per JSON row.  An integer option
outside its range, a numcheck tolerance that is not a finite number
> 0, a solve value with more digits than --max-digits, and a flow or
basis coefficient whose numerator or denominator has more digits than
CPython's limit on int-to-str conversion (4300 by default) are usage
errors (exit code 2).  The last is refused before any work when one printed entry with a closed form is too long:
beta(1, depth) = (-depth alpha)^(depth-1) of an Abel basis, and the
top coefficient c^N prod_(n<N) (n(m-1)+1) / N! of basic row N of a
flow whose generator has degree m >= 1 and top coefficient c.  Bit
lengths bound that entry first, so an ordinary request computes none.
Otherwise a request is refused at its first such row, and a flow
spells its basic rows before it computes its monomial form; the
alpha of `flow --op abel` is checked only there, after the basis is
built.  A reader closing stdout early gives a quiet exit with code
141.  The upper caps on --steps, --order, --depth and
--max-digits keep the slowest run measured at a cap under 20 s on a
2-CPU machine.  A solve refuses a value before computing it when a
lower bound on its denominator already passes --max-digits (see
solver.iterate).  --mode iterate computes no closed column.  --mode
closed and --mode both run the orbit first and compute no closed
column for a refused orbit: a cubic map over Q(i) at --steps 48
refuses at n = 11 in under 1 s, where computing that value took 4 s.
So --mode closed is refused for an orbit value it does not print
too.  Its closed column stops the Taylor recursion at x0 at the first
row past --max-digits (see solver._closed_column), but the rows of a
nonlinear map can stay under the cap for far more steps than the
recursion runs in the time the caps allow: a cubic from 1/S, S of 300
sevens, passes it at n = 167, after more than a minute, and its orbit
at n = 6.  Until the column has a work bound of its own, the orbit is
that bound.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .deltaflow import delta_flow
from .numeric import (
    CLOSED_FORM_KINDS,
    LAMBERT_TOLERANCE,
    SAMPLES,
    NumericConfig,
    SeriesDivergence,
    default_lambert_grid,
    lambert_w_residual,
    numeric_closed_form_check,
)
from .scalars import GaussianRational, digits_over, format_lanes, format_scalar, parse_scalar
from .series import XSeries
from .solver import (
    DigitLimitError,
    corpus_map,
    iterate,
    iterate_table,
    logistic_map,
    quadratic_map,
)
from .umbral import OPERATOR_NAMES, basic_sequence_from_delta, operator
from .verifysuite import GROUPS, all_pass, run_checks

__all__ = ["main", "cli_main"]


def _parse_map(spec, field):
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        if kind == "logistic":
            return logistic_map(parse_scalar(arg, field))
        if kind == "quadratic":
            return quadratic_map(parse_scalar(arg, field))
        if kind == "poly":
            return XSeries([parse_scalar(c, field) for c in arg.split(",")])
        raise ValueError("unknown map kind %r" % kind)
    try:
        entry = corpus_map(spec)
    except KeyError as exc:
        # str() of a KeyError would quote the message
        raise ValueError(exc.args[0]) from None
    return entry["g"]


# Upper caps on the integer options; see the module docstring.
MAX_STEPS = 256
MAX_FLOW_ORDER = 96
MAX_BASIS_DEPTH = 256
MAX_VERIFY_ORDER = 20
MAX_VERIFY_DEPTH = 32
MAX_NUMCHECK_DEPTH = 128
MAX_DIGITS = 100000


class _UsageError(Exception):
    """A request the CLI refuses with exit code 2."""


def _int_between(low, high):
    """argparse type: an int in [low, high], else a usage error (exit 2)."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        if value > high:
            raise argparse.ArgumentTypeError("must be <= %d, got %d" % (high, value))
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _positive_finite(text):
    """argparse type: a finite float > 0, else a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0, got %r" % text)
    return value


def _csv(rows):
    """The CSV lines of a list of dicts: a header of the keys of the
    first, then the values of each.  A generator, so that the lines of
    a long orbit are joined one at a time."""
    yield ",".join(rows[0])
    for row in rows:
        yield ",".join(str(v) for v in row.values())


def _cmd_solve(args):
    g = _parse_map(args.map, args.field)
    x0 = parse_scalar(args.x0, args.field)
    if args.mode == "iterate":
        # the orbit alone: no closed column is computed
        table = [(n, None, y, False) for n, y in enumerate(iterate(g, x0, args.steps, args.max_digits))]
        code = 0
    else:
        # the orbit first, also for --mode closed, where it bounds the
        # work of the closed column (see the module docstring)
        both = iterate_table(g, x0, args.steps, args.max_digits)
        table, code = both.rows, int(args.mode == "both" and not both.all_equal)
    # Every value is within --max-digits, so CPython's own limit on
    # int-to-str conversion is lifted for this formatting alone.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = []
        for n, closed, iterated, equal in table:
            row = {"n": n}
            if args.mode != "iterate":
                row["closed"] = format_scalar(closed)
            if args.mode != "closed":
                # an equal row prints one value twice, so format it once
                same = args.mode == "both" and equal
                row["iterated"] = row["closed"] if same else format_scalar(iterated)
            if args.mode == "both":
                row["equal"] = equal
            rows.append(row)
    finally:
        sys.set_int_max_str_digits(limit)
    return code, {"map": args.map, "x0": args.x0, "rows": rows}, _csv(rows)


def _cmd_flow(args):
    f = XSeries([parse_scalar(c, args.field) for c in args.f.split(",")])
    alpha = parse_scalar(args.alpha, args.field)
    N, m = args.order, f.degree
    if m >= 1:
        # basic row N, A_N / N!, ends in c^N prod_(n<N) (n(m-1)+1) / N!
        # x^(N(m-1)+1) for f of degree m and top coefficient c.  Every
        # integer it prints is under 2^bits: c is (re + im*i) / den with
        # |re| + |im| and den under 2^size, the product is under
        # (N m)^(N-1) and N! under N^N
        c = f.coefficient(m)
        bits = N * _size(c) + (N - 1) * (N * m).bit_length() + N * N.bit_length()
        _refuse_long(
            bits,
            lambda: c**N * Fraction(math.prod(n * (m - 1) + 1 for n in range(1, N)), math.factorial(N)),
        )
    if m >= 1 and f.coefficient(0) == 0:
        # with a_0 = 0, [x] A_(n+1) = a_0 2[x^2] A_n + a_1 [x] A_n, so the
        # x coefficient of basic row N is a_1^N / N!
        a = f.coefficient(1)
        _refuse_long(N * _size(a) + N * N.bit_length(), lambda: a**N * Fraction(1, math.factorial(N)))
    Q = operator(args.op, N, alpha)
    df = delta_flow(f, Q, N)
    basic = _flow_rows(df)
    mono = _flow_rows(df.to_monomial())
    payload = {
        "operator": args.op,
        "order": args.order,
        "basic": basic,
        "monomial": mono,
    }
    lines = (
        ",".join([label, str(n)] + coeffs)
        for label, block in (("basic", basic), ("monomial", mono))
        for n, coeffs in enumerate(block)
    )
    return 0, payload, lines


def _flow_rows(flow):
    """The printed rows of a flow, spelled from its integer form: ["0"]
    for the base, then the entries of each coefficient, ["0"] for a
    zero one."""
    return [["0"]] + _spelled(lambda row: format_lanes(*row) or ["0"], flow.numerators[1])


_TOO_LONG = "a coefficient to print has more than %d digits, the int-to-str limit"


def _size(c):
    """A bit count size with |re| + |im| < 2^size and den < 2^size for
    the scalar c = (re + im*i) / den."""
    parts = (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
    return 1 + sum(abs(p.numerator).bit_length() + p.denominator.bit_length() for p in parts)


def _refuse_long(bits, entry):
    """Refuse a request before any work when entry(), one of the
    entries it prints, has a numerator or denominator of more digits
    than CPython's limit on int-to-str conversion (0: no limit), which
    printing would refuse after all the work.  bits bounds the bit
    length of each of them, so that a request far under the limit
    computes no entry."""
    limit = sys.get_int_max_str_digits()
    if limit and bits * 0.30103 + 1 > limit and digits_over(entry(), limit):
        raise _UsageError(_TOO_LONG % limit)


def _spelled(spell, rows):
    """[spell(row) for row in rows], refused at the first row holding an
    integer of more digits than CPython's limit on int-to-str
    conversion, the one ValueError of spelling an exact scalar."""
    out = []
    for row in rows:
        try:
            out.append(spell(row))
        except ValueError:
            raise _UsageError(_TOO_LONG % sys.get_int_max_str_digits()) from None
    return out


def _cmd_basis(args):
    alpha, D = parse_scalar(args.alpha, "Q"), args.depth
    if args.op == "abel" and D:
        # beta(1, D) = (-D alpha)^(D-1), the t-coefficient of t (t - D alpha)^(D-1)
        bits = (D - 1) * max((D * alpha.numerator).bit_length(), alpha.denominator.bit_length())
        _refuse_long(bits, lambda: (-D * alpha) ** (D - 1))
    Q = operator(args.op, max(D, 1), alpha)
    # column n of the matrix is the integer row of q_n, spelled through
    # its last nonzero entry
    columns = _spelled(lambda row: format_lanes(*row), basic_sequence_from_delta(Q, D).numerators[1])
    matrix = [[col[k] if k < len(col) else "0" for col in columns] for k in range(D + 1)]
    payload = {"basis": args.op, "order": args.depth, "coeffs": matrix}
    return 0, payload, (",".join(row) for row in matrix)


def _cmd_verify(args):
    results = run_checks(order=args.order, depth=args.depth, ops=args.ops)
    ok = all_pass(results)
    payload = {"order": args.order, "depth": args.depth, "all_pass": ok, "checks": results}
    return 0 if ok else 1, payload, _csv(results)


def _cmd_numcheck(args):
    config = NumericConfig(tolerance=args.tolerance, depth=args.depth)
    rows = []
    ok = True
    for kind in CLOSED_FORM_KINDS:
        for a, t in SAMPLES:
            try:
                report = numeric_closed_form_check(kind, a, t, config=config)
                within = report.deviation < config.tolerance
                rows.append(
                    {
                        "kind": kind,
                        "a": a,
                        "t": t,
                        "deviation": "%.3e" % report.deviation,
                        "status": "ok" if within else "exceeds-tolerance",
                    }
                )
                ok = ok and within
            except SeriesDivergence as exc:
                rows.append(
                    {"kind": kind, "a": a, "t": t, "deviation": "", "status": "diverged: %s" % exc}
                )
                ok = False
    worst_w = max(lambert_w_residual(x) for x in default_lambert_grid())
    lambert_ok = worst_w < LAMBERT_TOLERANCE
    ok = ok and lambert_ok
    payload = {
        "tolerance": config.tolerance,
        "lambert_max_residual": "%.3e" % worst_w,
        "lambert_pass": lambert_ok,
        "cells": rows,
        "all_pass": ok,
    }
    lambert = "lambert,max_residual=%s,pass=%s" % (payload["lambert_max_residual"], lambert_ok)
    return 0 if ok else 1, payload, [*_csv(rows), lambert]


# A negative scalar or list of scalars: a minus sign, then a digit or i.
_NEGATIVE_VALUE = re.compile(r"-[0-9i]")


class _Parser(argparse.ArgumentParser):
    """argparse reads a token such as -1/3, -1,1 or -i as an unknown
    option; this parser reads it as a value, so --x0 -1/3 means
    --x0=-1/3.  No option name starts with a minus sign and a digit
    or i, and a stray value is still an unrecognized argument."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="deltadyn",
        description="Exact flows for derivative and difference type dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed form vs. iteration of a difference map")
    p.add_argument("--map", required=True, help="corpus name, logistic:MU, quadratic:C or poly:c0,c1,...")
    p.add_argument("--x0", required=True, help="initial value (exact rational string)")
    p.add_argument("--steps", type=_int_between(0, MAX_STEPS), default=8)
    p.add_argument(
        "--max-digits", type=_int_between(1, MAX_DIGITS), default=MAX_DIGITS,
        help="largest number of decimal digits of every numerator and denominator a column "
        "computes, the orbit's included in closed mode; a longer value is a usage error (exit 2)",
    )
    p.add_argument("--field", choices=("Q", "Qi"), default="Q")
    p.add_argument("--mode", choices=("closed", "iterate", "both"), default="both")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("flow", help="coefficients of a delta flow")
    p.add_argument("--f", required=True, help="generator coefficients c0,c1,...")
    p.add_argument("--op", choices=OPERATOR_NAMES, default="forward")
    p.add_argument("--alpha", default="1")
    p.add_argument("--order", type=_int_between(1, MAX_FLOW_ORDER), default=10)
    p.add_argument("--field", choices=("Q", "Qi"), default="Q")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("basis", help="beta matrix of a basic sequence")
    p.add_argument("--op", choices=OPERATOR_NAMES, required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--depth", type=_int_between(0, MAX_BASIS_DEPTH), default=16)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("verify", help="run the exact invariant suite")
    p.add_argument("--order", type=_int_between(1, MAX_VERIFY_ORDER), default=10)
    # the shift-invariance check applies Q to a cubic
    p.add_argument("--depth", type=_int_between(3, MAX_VERIFY_DEPTH), default=16)
    p.add_argument("--ops", choices=("all",) + GROUPS, default="all")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("numcheck", help="float checks of the closed forms")
    p.add_argument("--tolerance", type=_positive_finite, default=1e-9)
    p.add_argument("--depth", type=_int_between(1, MAX_NUMCHECK_DEPTH), default=64)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_numcheck)

    return parser


def cli_main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
    except DigitLimitError as exc:
        sys.stderr.write("error: %s (see --max-digits)\n" % exc)
        return 2
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    if args.format == "json":
        lines = [json.dumps(payload)]
    # one line at a time, since an orbit can print megabytes
    for line in lines:
        sys.stdout.write(line)
        sys.stdout.write("\n")
    return code


def main():
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`deltadyn verify | head`): point stdout at
        # devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as for a writer killed by the signal
    raise SystemExit(code)


if __name__ == "__main__":
    main()
