"""SuiteConfig, CheckResult and KernelReport share one record base, scalar.Record.

A record equals a record of its own class with equal fields, and nothing
else; it cannot be hashed, as its fields may change; and its repr names
its class and each field in the order __init__ sets them.
"""

from types import SimpleNamespace

import pytest

from jordan_voa.fock import Weight
from jordan_voa.scalar import Record
from jordan_voa.singular import KernelReport
from jordan_voa.suite import CheckResult, SuiteConfig

RECORDS = {  # class -> (its fields, one field changed, its repr)
    SuiteConfig: (
        dict(d=2, max_degree=4, seed=7, samples=30), dict(seed=8),
        "SuiteConfig(d=2, max_degree=4, seed=7, samples=30)"),
    CheckResult: (
        dict(name="c", checked=3, details="3 pairs", failures=["f"], seconds=0.5, peak_mb=1.0),
        dict(failures=[]),
        "CheckResult(name='c', checked=3, details='3 pairs', failures=['f'], seconds=0.5, "
        "peak_mb=1.0)"),
    KernelReport: (
        dict(weight=Weight({(1, -1): 2}), r0=1, basis_dim=1, kernel_dim=0, kernel_vectors=[]),
        dict(r0=2),
        "KernelReport(weight=Weight('2*Lam[1,-1]'), r0=1, basis_dim=1, kernel_dim=0, "
        "kernel_vectors=[])"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_equal_exactly_when_their_fields_are(cls):
    fields, changed, _ = RECORDS[cls]
    assert issubclass(cls, Record)
    assert cls(**fields) == cls(**fields)
    assert not cls(**fields) != cls(**fields)
    assert cls(**fields) != cls(**{**fields, **changed})


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_a_record_is_unequal_to_another_class_with_the_same_fields(cls):
    record = cls(**RECORDS[cls][0])
    others = [SimpleNamespace(**vars(record))]
    for other_cls in RECORDS:
        if other_cls is not cls:
            other = object.__new__(other_cls)
            vars(other).update(vars(record))
            others.append(other)
    for other in others:
        assert vars(other) == vars(record)
        assert record != other and other != record
        assert not record == other


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(cls(**RECORDS[cls][0]))


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_a_records_repr_names_its_class_and_fields(cls):
    fields, _, text = RECORDS[cls]
    assert repr(cls(**fields)) == text
