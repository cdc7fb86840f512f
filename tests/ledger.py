"""The identity ledger: what the CLI prints, and what verify reports under
each mutation of tests/test_mutations.py, kept in tests/ledger.json.

The ledger pairs each argv with the SHA-256 of the stdout, stderr and
exit code that cli_main gives for it in-process, and each mutated
kernel and check with the residual string of run_checks(8, 12) under
that mutation.  The argv are:

* every request of the three workloads of perfbench/workloads.py for
  seeds 1 and 2, as generated, with --format json and with --format
  csv, and each solve also in --mode closed, iterate and both under
  either format;
* verify --format json at the defaults, (8, 12), (10, 16) and (20, 32);
* USAGE, the help and usage errors of argparse, kept under a key of
  their own: argparse wraps its text to the terminal width, so every
  argv is digested with COLUMNS=80.

tests/test_ledger.py replays the stored argv and mutations against it.
A change that moves an output regenerates the ledger, from the root of
the repository, with

    PYTHONPATH=src python tests/ledger.py

and names every entry that moved, with the reason.  The ledger is
never regenerated only to make its test pass.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import pytest

from deltadyn.cli import cli_main
from deltadyn.umbral import basic_sequence_from_delta, operator
from deltadyn.verifysuite import run_checks
from test_mutations import MUTATIONS, _mutate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "tests", "ledger.json")

SEEDS = (1, 2)
FORMATS = ("json", "csv")
MODES = ("closed", "iterate", "both")
VERIFY_SIZES = ((), (8, 12), (10, 16), (20, 32))
COMMANDS = ("solve", "flow", "basis", "verify", "numcheck")
SOLVE = ["solve", "--map", "double", "--x0", "1"]
# Help, a missing or unknown command, and for each command a missing
# option, a bad choice, an int out of range or not an int, and an
# unrecognized argument.
USAGE = (
    [[], ["bogus"], ["-h"], ["-h", "basis"]]
    + [[cmd, "-h"] for cmd in COMMANDS]
    + [
        ["solve", "--x0", "1"],
        SOLVE + ["--mode", "bogus"],
        SOLVE + ["--steps", "257"],
        SOLVE + ["--bogus", "-1/3"],
        ["flow"],
        ["flow", "--f", "0,1", "--op", "bogus"],
        ["flow", "--f", "0,1", "--order", "0"],
        ["flow", "--f", "0,1", "extra"],
        ["basis"],
        ["basis", "--op", "bogus"],
        ["basis", "--op", "forward", "--depth", "257"],
        ["basis", "--op", "forward", "--depth", "abc"],
        ["basis", "--op", "forward", "extra"],
        ["verify", "--ops", "bogus"],
        ["verify", "--depth", "2"],
        ["verify", "--bogus"],
        ["numcheck", "--format", "xml"],
        ["numcheck", "--depth", "129"],
        ["numcheck", "--tolerance", "0"],
        ["numcheck", "extra"],
    ]
)


def digest(argv):
    """SHA-256 of the stdout, stderr and exit code of cli_main(argv), or
    of the code of the SystemExit argparse raises, at COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def residuals(kernel):
    """{"group/name": residual} of run_checks(8, 12) with kernel mutated
    as tests/test_mutations.py mutates it; no basis or operator built
    before or under the mutation outlives it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        basic_sequence_from_delta.cache_clear()
        operator.cache_clear()
        try:
            _mutate(monkeypatch, kernel)
            rows = run_checks(8, 12)
        finally:
            basic_sequence_from_delta.cache_clear()
            operator.cache_clear()
    return {"%s/%s" % (row["group"], row["name"]): row["residual"] for row in rows}


def requests():
    """The argv the ledger holds, each once, in a fixed order."""
    sys.path.insert(0, ROOT)
    try:
        from perfbench.workloads import WORKLOADS, generate
    finally:
        sys.path.remove(ROOT)
    argvs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for req in generate(workload, seed):
                argv = req["argv"]
                argvs.append(argv)
                argvs += [argv + ["--format", fmt] for fmt in FORMATS]
                if argv[0] == "solve":
                    argvs += [argv + ["--mode", mode, "--format", fmt] for mode in MODES for fmt in FORMATS]
    for size in VERIFY_SIZES:
        sizes = ["--order", str(size[0]), "--depth", str(size[1])] if size else []
        argvs.append(["verify", "--format", "json"] + sizes)
    return list({tuple(argv): list(argv) for argv in argvs}.values())


def build():
    return {
        "requests": [{"argv": argv, "sha256": digest(argv)} for argv in requests()],
        "residuals": [
            {"kernel": kernel, "check": check, "residual": residual}
            for kernel in MUTATIONS
            for check, residual in residuals(kernel).items()
        ],
        "usage": [{"argv": argv, "sha256": digest(argv)} for argv in USAGE],
    }


def load():
    with open(PATH) as fh:
        return json.load(fh)


def write(ledger):
    """One entry a line, so that a diff of the file names what moved."""
    with open(PATH, "w") as fh:
        fh.write("{\n")
        keys = ("requests", "residuals", "usage")
        for key in keys:
            fh.write('"%s": [\n' % key)
            fh.write(",\n".join(json.dumps(entry) for entry in ledger[key]))
            fh.write("\n]%s\n" % ("," if key != keys[-1] else ""))
        fh.write("}\n")


def main():
    start = time.perf_counter()
    ledger = build()
    write(ledger)
    print(
        "%d requests, %d residuals and %d usage argv in %.1f s -> %s"
        % (
            len(ledger["requests"]),
            len(ledger["residuals"]),
            len(ledger["usage"]),
            time.perf_counter() - start,
            PATH,
        )
    )


if __name__ == "__main__":
    main()
