"""The contract of the five frozen records: DeltaOp, UmbralOperator,
IterateTable, NumericConfig and ClosedFormReport.

Each record is built positionally and by keyword, with its defaults;
equals, and hashes like, only a record of its own class with the same
compared fields; prints a fixed repr; refuses assignment and deletion
with AttributeError; and survives copy.copy and a pickle round trip."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from deltadyn.numeric import ClosedFormReport, NumericConfig
from deltadyn.scalars import GaussianRational
from deltadyn.solver import IterateTable
from deltadyn.umbral import DeltaOp, UmbralOperator, abel, basic_sequence_from_delta, backward, forward

COEFFS = (0, Fraction(1), Fraction(-1, 2), Fraction(1, 3))
REPORT = ("abel", 0.5, 0.1, 1.25, 1.5, 0.25, 64)
REPORT_FIELDS = ("kind", "a", "t", "partial_sum", "closed_form", "deviation", "terms")


def _records():
    """(record, an equal record built another way, a different record of
    the same class, the parent's repr of the record)."""
    return [
        (
            DeltaOp(COEFFS, "forward"),
            DeltaOp(coeffs=COEFFS),
            DeltaOp(COEFFS[:3], "forward"),
            "DeltaOp(forward, order=3)",
        ),
        (
            UmbralOperator(basic_sequence_from_delta(forward(3), 3)),
            UmbralOperator(basis=basic_sequence_from_delta(forward(3), 3)),
            UmbralOperator(basic_sequence_from_delta(backward(3), 3)),
            "UmbralOperator(basis=BasicSequence(forward, depth=3))",
        ),
        (
            IterateTable(((0, Fraction(1, 3), Fraction(1, 3), True),)),
            IterateTable(rows=((0, Fraction(1, 3), Fraction(1, 3), True),)),
            IterateTable(((0, 1, 2, False),)),
            "IterateTable(rows=((0, Fraction(1, 3), Fraction(1, 3), True),))",
        ),
        (
            NumericConfig(1e-9, 64),
            NumericConfig(),
            NumericConfig(depth=32),
            "NumericConfig(tolerance=1e-09, depth=64)",
        ),
        (
            ClosedFormReport(*REPORT),
            ClosedFormReport(**dict(zip(REPORT_FIELDS, REPORT))),
            ClosedFormReport(*REPORT[:-1], 32),
            "ClosedFormReport(kind='abel', a=0.5, t=0.1, partial_sum=1.25, "
            "closed_form=1.5, deviation=0.25, terms=64)",
        ),
    ]


RECORDS = _records()
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_equality_and_hashing(record, twin, other, text):
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != other and not record == other
    assert len({record, twin, other}) == 2


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_equal_only_to_its_own_class(record, twin, other, text):
    # a record is not the tuple of its fields, nor a record of another class
    assert record != ()
    assert record != (record,)
    for stranger, _, _, _ in RECORDS:
        if type(stranger) is not type(record):
            assert record != stranger


def test_field_tuples_are_not_records():
    assert NumericConfig() != (1e-9, 64)
    assert IterateTable(()) != ((),)
    assert ClosedFormReport(*REPORT) != REPORT
    assert DeltaOp(COEFFS) != COEFFS


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_repr(record, twin, other, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, twin, other, text):
    for name in ("coeffs", "tag", "kinds", "basis", "rows", "tolerance", "depth") + REPORT_FIELDS:
        if hasattr(record, name):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(record, twin, other, text):
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == text


def test_delta_op_construction_and_defaults():
    op = DeltaOp(COEFFS)
    assert op.coeffs == COEFFS and op.tag == "custom" and op.order == 3
    assert DeltaOp(COEFFS, tag="x").tag == "x"
    assert op.kinds == (0b1110, 0)
    with pytest.raises(TypeError):
        DeltaOp(COEFFS, "x", (0, 0))
    with pytest.raises(TypeError):
        DeltaOp()


def test_delta_op_ignores_tag_and_tells_fields_apart():
    assert DeltaOp(COEFFS, "a") == DeltaOp(COEFFS, "b")
    assert hash(DeltaOp(COEFFS, "a")) == hash(DeltaOp(COEFFS, "b"))
    gaussian = DeltaOp(tuple(GaussianRational(c) for c in COEFFS))
    assert gaussian.coeffs == COEFFS
    assert gaussian.kinds == (0b1110, 0b1110)
    assert gaussian != DeltaOp(COEFFS) and not gaussian == DeltaOp(COEFFS)
    assert len({gaussian, DeltaOp(COEFFS)}) == 2


def test_delta_op_keeps_its_validation():
    for coeffs, message in (
        ((0,), "at least order 1"),
        ((1, 1), "annihilate constants"),
        ((0, 0, 1), "p1 != 0"),
    ):
        with pytest.raises(ValueError, match=message):
            DeltaOp(coeffs)


def test_delta_op_caches_its_steps_on_a_copy_too():
    op = DeltaOp(COEFFS)
    steps = op._int_steps
    assert op._int_steps is steps
    assert copy.copy(op)._int_steps == steps
    assert pickle.loads(pickle.dumps(DeltaOp(COEFFS)))._int_steps == steps


@pytest.mark.parametrize(
    "coeffs", [COEFFS, tuple(GaussianRational(c, c) for c in COEFFS)], ids=["Q", "Qi"]
)
def test_delta_op_hash_survives_pickle_and_deepcopy(coeffs):
    # DeltaOp keeps the hash it computed when it was built
    op = DeltaOp(coeffs)
    for clone in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
        assert clone == op and hash(clone) == hash(op) == hash((op.coeffs, op.kinds))


def test_delta_op_hash_holds_in_another_process():
    # pickled under another hash seed, it still hashes as its fields do here
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import pickle, sys\n"
        "from deltadyn.scalars import GaussianRational\n"
        "from deltadyn.umbral import abel\n"
        "sys.stdout.write(pickle.dumps(abel(GaussianRational(2, -3), 8)).hex())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    op = pickle.loads(bytes.fromhex(proc.stdout))
    built = DeltaOp(abel(GaussianRational(2, -3), 8).coeffs)
    assert op == built and hash(op) == hash(built) == hash((op.coeffs, op.kinds))


def test_numeric_records_construction():
    assert (NumericConfig().tolerance, NumericConfig().depth) == (1e-9, 64)
    config = NumericConfig(tolerance=1e-3)
    assert (config.tolerance, config.depth) == (1e-3, 64)
    report = ClosedFormReport(*REPORT)
    assert tuple(getattr(report, name) for name in REPORT_FIELDS) == REPORT
    with pytest.raises(TypeError):
        ClosedFormReport(*REPORT[:-1])
    with pytest.raises(TypeError):
        NumericConfig(1e-9, 64, 3)


def test_iterate_table_and_umbral_operator_construction():
    rows = ((0, 1, 1, True), (1, 2, 3, False))
    table = IterateTable(rows)
    assert table.rows is rows and not table.all_equal
    assert IterateTable(rows[:1]).all_equal
    basis = basic_sequence_from_delta(forward(3), 3)
    assert UmbralOperator(basis).basis is basis
    with pytest.raises(TypeError):
        IterateTable()
    with pytest.raises(TypeError):
        UmbralOperator()
