"""Which checks of the verify suite catch a fault in which integer kernel.

Each case breaks one integer kernel wherever a module of the package
holds it: 1 is added to entry 3 of its integer output, that is, to the
fourth integer of a lane, or to the first integer of the fourth row of
a list of rows.  The degree passes of points._certify, which run on
points._Degree, are left alone, so that the point checks still bound
their residuals and report a wrong value rather than crash.

run_checks(8, 12), restricted to the groups of the named checks, must
then report every named check as failing, and at least one of them
from a group other than the kernel's own layer: a fault is seen by a
check that compares the kernel against a route that does not share it,
not only by the checks of the layer that builds with it.
"""

import importlib
import pkgutil

import pytest

import deltadyn
from deltadyn.deltaflow import delta_pde_identity_residuals
from deltadyn.points import _Degree
from deltadyn.umbral import basic_sequence_from_delta, operator
from deltadyn.verifysuite import _corpus_generators, run_checks

MODULES = [importlib.import_module("deltadyn." + m.name) for m in pkgutil.iter_modules(deltadyn.__path__)]


def _has_degree(value):
    if type(value) is _Degree:
        return True
    return isinstance(value, (list, tuple)) and any(_has_degree(v) for v in value)


def _plus_one(values):
    """Add 1 to entry 3 of a list of ints, or to the first int of the
    real lane of row 3 of a list of lane pairs (re, im)."""
    if len(values) <= 3:
        return
    if isinstance(values[3], tuple):
        re = values[3][0]
        if re:
            re[0] += 1
    else:
        values[3] += 1


def _returned(pick):
    """A mutation of a kernel that returns its output: _plus_one on the
    integers that pick reads off it."""

    def mutation(real):
        def mutated(*args, **kwargs):
            out = real(*args, **kwargs)
            if not _has_degree(args) and not _has_degree(out):
                _plus_one(pick(out))
            return out

        return mutated

    return mutation


def _yielded(real):
    """The mutation of a kernel that yields rows: row 3 gets 1 added to
    its first entry."""

    def mutated(F, psi, widths):
        degrees = _has_degree((F, psi))
        for i, row in enumerate(real(F, psi, widths)):
            yield [row[0] + 1] + row[1:] if i == 3 and not degrees else row

    return mutated


MUTATIONS = {
    "series._mul_lanes": _returned(lambda lanes: lanes[0]),
    "umbral._int_apply": _returned(lambda lanes: lanes[0]),
    "series._hurwitz_reciprocal": _returned(lambda out: out[0][0]),
    "series._hurwitz_composite": _yielded,
    "autonomous._numerators": _returned(lambda out: out[2]),
    "scalars.to_lanes": _returned(lambda lanes: lanes[1]),
}


def _mutate(monkeypatch, kernel):
    """Install the mutation of kernel ("module.name") in every module of
    the package that holds it; returns how many do."""
    module, name = kernel.split(".")
    real = getattr(importlib.import_module("deltadyn." + module), name)
    mutated = MUTATIONS[kernel](real)
    holders = [m for m in MODULES if vars(m).get(name) is real]
    for m in holders:
        monkeypatch.setattr(m, name, mutated)
    return len(holders)


@pytest.fixture
def fresh_bases():
    # a basis or a memoised operator (its _int_steps) built under a
    # mutation must not outlive it, nor one built before it hide the
    # mutation
    basic_sequence_from_delta.cache_clear()
    operator.cache_clear()
    yield
    basic_sequence_from_delta.cache_clear()
    operator.cache_clear()


# kernel -> (its own layer's group, the checks that catch it)
CASES = {
    # the autonomous recursion and the power products of series; the
    # point checks run the Taylor recursion by _hurwitz_composite and
    # read the rows by Horner, neither of which multiplies lanes
    "series._mul_lanes": (
        "core",
        [
            ("core", "compositional-inverse-roundtrip"),
            ("autonomous", "sum-cross-terms"),
            ("autonomous", "generator-scaling"),
            ("autonomous", "flow-pde"),
            ("autonomous", "flow-group-law"),
            ("deltaflow", "delta-ode"),
            ("deltaflow", "semiflow-ring"),
            ("deltaflow", "power-identity"),
        ],
    ),
    # every linear map of umbral; the Stirling triangles and the Abel
    # closed form share none of it, flow-pde, outside the layer, runs it
    # on point values against the rows of the autonomous recursion, and
    # the inverse round trip composes the series read off a basis
    "umbral._int_apply": (
        "umbral",
        [
            ("core", "compositional-inverse-roundtrip"),
            ("autonomous", "flow-pde"),
            ("umbral", "basic-set-axioms"),
            ("umbral", "recurrence-oracle"),
            ("umbral", "binomial-type"),
            ("umbral", "stirling-bases"),
            ("umbral", "abel-closed-form"),
            ("umbral", "composition-group"),
            ("umbral", "shift-invariance"),
            ("umbral", "first-expansion"),
        ],
    ),
    # Rota's recurrence, and so the inverse series read off its basis;
    # the Stirling and Abel closed forms and the recurrence oracle never
    # take a reciprocal
    "series._hurwitz_reciprocal": (
        "core",
        [
            ("core", "compositional-inverse-roundtrip"),
            ("umbral", "basic-set-axioms"),
            ("umbral", "recurrence-oracle"),
            ("umbral", "stirling-bases"),
            ("umbral", "abel-closed-form"),
            ("umbral", "composition-group"),
            ("umbral", "first-expansion"),
        ],
    ),
    # the right sides of the point checks, against the rows of the
    # autonomous recursion, and the A_k(x0) of the solver's closed
    # form, against iteration and the factored logistic flow
    "series._hurwitz_composite": (
        "autonomous",
        [
            ("autonomous", "flow-pde"),
            ("autonomous", "flow-group-law"),
            ("deltaflow", "delta-ode"),
            ("solver", "affine-oracle"),
            ("solver", "factored-vs-direct"),
        ],
    ),
    # the rows of A_n; the factored logistic flow is built from them,
    # the direct closed form it is compared with is not
    "autonomous._numerators": (
        "autonomous",
        [
            ("autonomous", "sum-cross-terms"),
            ("autonomous", "generator-scaling"),
            ("autonomous", "flow-pde"),
            ("autonomous", "flow-group-law"),
            ("solver", "logistic-fixed-points"),
            ("solver", "factored-vs-direct"),
        ],
    ),
    # the integer form of every list of scalars
    "scalars.to_lanes": (
        "core",
        [
            ("core", "compositional-inverse-roundtrip"),
            ("solver", "backward-relation"),
            ("solver", "abel-scaling"),
            ("solver", "factored-vs-direct"),
        ],
    ),
}


def _failing(groups):
    return {
        (row["group"], row["name"])
        for group in sorted(groups)
        for row in run_checks(8, 12, group)
        if not row["pass"]
    }


def test_no_check_fails_unmutated(fresh_bases):
    assert [row["name"] for row in run_checks(8, 12) if not row["pass"]] == []


@pytest.mark.parametrize("kernel", list(CASES))
def test_named_checks_catch_a_mutated_kernel(kernel, monkeypatch, fresh_bases):
    layer, named = CASES[kernel]
    assert _mutate(monkeypatch, kernel) > 0
    failing = _failing({group for group, _ in named})
    assert set(named) - failing == set()
    assert any(group != layer for group, _ in failing)


NONLINEAR = ["logistic-2", "logistic-5/2", "logistic-4", "quadratic-1/2", "cubic"]


@pytest.mark.parametrize("name", NONLINEAR)
def test_the_delta_pde_identity_sees_a_wrong_lane_product(name, monkeypatch, fresh_bases):
    # the identity reads f * A_m' at points, by Horner, so the rows of
    # the A_n that a broken product built no longer satisfy it
    f = dict(_corpus_generators())[name]
    _mutate(monkeypatch, "series._mul_lanes")
    assert any(not r.is_zero for r in delta_pde_identity_residuals(f, 8))
