"""Guards on the public surface: the names that modules, the package and
the benchmark tracer refer to must exist, so that removing a function
fails here rather than at a later run of the benchmark."""

import functools
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import deltadyn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(deltadyn.__path__))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("deltadyn." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_only_public_names():
    exported = {}
    for name in MODULES:
        module = importlib.import_module("deltadyn." + name)
        for attr in module.__all__:
            exported.setdefault(attr, getattr(module, attr))
    public = {
        attr: value
        for attr, value in vars(deltadyn).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public
    stray = [attr for attr, value in public.items() if exported.get(attr) is not value]
    assert stray == []


def test_tracer_targets_exist():
    tracer = load_tracer()
    for modname, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    from deltadyn.flows import Flow
    from deltadyn.umbral import basic_sequence_from_delta

    assert callable(Flow.to_monomial)
    assert callable(basic_sequence_from_delta.cache_info)


@functools.cache
def worker_modules():
    """The modules that the benchmark worker's import line loads in a
    fresh interpreter."""
    code = (
        "import sys; import deltadyn; from deltadyn import cli, solver, umbral; "
        "print(' '.join(sorted(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return frozenset(proc.stdout.split())


def test_worker_import_line_loads_every_tracer_module():
    # Tracer.install reads each target's module from sys.modules, so a
    # module the worker's import line no longer loads would crash a
    # traced benchmark run
    tracer = load_tracer()
    assert {modname for modname, _, _ in tracer.TARGETS} - worker_modules() == set()


def test_worker_import_line_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, several ms of
    # every cold request; the records are plain classes instead
    assert worker_modules() & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_worker_import_line_loads_no_points():
    # the integer-point certification is imported inside the checks
    # that run it, so a cold basis, flow or solve request never loads it
    assert "deltadyn.points" not in worker_modules()


# The report order of `verify`: checks register themselves in definition
# order, so moving a function moves its row.
VERIFY_ROWS = [
    ("core", "ring-axioms"),
    ("core", "hurwitz-isomorphism"),
    ("core", "compositional-inverse-roundtrip"),
    ("core", "taylor-chain-rule"),
    ("autonomous", "sum-cross-terms"),
    ("autonomous", "generator-scaling"),
    ("autonomous", "flow-pde"),
    ("autonomous", "flow-group-law"),
    ("autonomous", "flow-factorization"),
    ("umbral", "basic-set-axioms"),
    ("umbral", "recurrence-oracle"),
    ("umbral", "binomial-type"),
    ("umbral", "stirling-bases"),
    ("umbral", "abel-closed-form"),
    ("umbral", "composition-group"),
    ("umbral", "shift-invariance"),
    ("umbral", "first-expansion"),
    ("deltaflow", "delta-ode"),
    ("deltaflow", "basis-roundtrip"),
    ("deltaflow", "connection-flow"),
    ("deltaflow", "anti-isomorphism"),
    ("deltaflow", "semiflow-ring"),
    ("deltaflow", "poly-flow-routes"),
    ("deltaflow", "power-identity"),
    ("deltaflow", "flow-composition-group"),
    ("deltaflow", "delta-representation"),
    ("solver", "backward-relation"),
    ("solver", "abel-scaling"),
    ("solver", "logistic-fixed-points"),
    ("solver", "affine-oracle"),
    ("solver", "factored-vs-direct"),
]


def test_verify_rows_keep_their_order():
    from deltadyn.verifysuite import GROUPS, run_checks

    rows = [(r["group"], r["name"]) for r in run_checks(3, 3)]
    assert rows == VERIFY_ROWS
    names = [name for _, name in rows]
    assert len(set(names)) == len(names)
    assert {group for group, _ in rows} == set(GROUPS)
