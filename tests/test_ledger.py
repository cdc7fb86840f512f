"""The CLI's outputs and the residuals under each mutation of the kernels
are what the identity ledger, tests/ledger.json, holds (see
tests/ledger.py, which regenerates it)."""

import pytest

import ledger
from test_mutations import MUTATIONS

LEDGER = ledger.load()
COMMANDS = sorted({entry["argv"][0] for entry in LEDGER["requests"]})


@pytest.mark.parametrize("command", COMMANDS)
def test_every_request_prints_what_the_ledger_holds(command):
    moved = [
        " ".join(entry["argv"])
        for entry in LEDGER["requests"]
        if entry["argv"][0] == command and ledger.digest(entry["argv"]) != entry["sha256"]
    ]
    assert moved == []


@pytest.mark.parametrize("kernel", list(MUTATIONS))
def test_every_residual_under_a_mutation_is_what_the_ledger_holds(kernel):
    want = {e["check"]: e["residual"] for e in LEDGER["residuals"] if e["kernel"] == kernel}
    assert ledger.residuals(kernel) == want


def test_the_ledger_holds_every_command_and_the_verify_sizes():
    argvs = [entry["argv"] for entry in LEDGER["requests"]]
    assert COMMANDS == ["basis", "flow", "numcheck", "solve", "verify"]
    for size in ledger.VERIFY_SIZES:
        sizes = ["--order", str(size[0]), "--depth", str(size[1])] if size else []
        assert ["verify", "--format", "json"] + sizes in argvs
    for mode in ledger.MODES:
        assert any(argv[0] == "solve" and mode in argv for argv in argvs)
