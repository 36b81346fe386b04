"""The package's value records: what named tuples and slot classes keep of
the frozen dataclasses they replace.

Records compare and hash by value (compiled schemes are memoised by their
matrices' and demand set's values), refuse assignment, and copy with
_replace or through their validating constructor.  Only SchemeInstance
remains a dataclass.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from collections import Counter
from fractions import Fraction

import pytest

import cachepriv
from cachepriv.core import (
    DemandSubset,
    DemandVector,
    FileStore,
    cyclic_demand_set,
    full_demand_set,
)
from cachepriv.region import RatePoint
from cachepriv.schemes import high_memory_2x4_matrices
from cachepriv.search import compile_linear_scheme
from cachepriv.session import (
    DecodeReport,
    DeliveryFrame,
    PlacementFrame,
    SessionTranscript,
)
from cachepriv.verifier import (
    DecodeCounterexample,
    IndependenceCounterexample,
    JointDistribution,
    Verdict,
)


def transcript() -> SessionTranscript:
    return SessionTranscript(
        "demo",
        (PlacementFrame(0, 1, 3, 0b101), PlacementFrame(1, 0, 3, 0b011)),
        DeliveryFrame(2, 0b10, 4, 0b0110),
        (DecodeReport(0, 1, True, 3, 0b011),),
    )


# two calls of each build equal values that are distinct objects
BUILDERS = {
    "LinearSchemeMatrices": high_memory_2x4_matrices,
    "DemandSubset": lambda: cyclic_demand_set(2, 2),
    "DemandVector": lambda: DemandVector(2, (0, 1, 1)),
    "FileStore": lambda: FileStore(2, 1, 2, (3, 1)),
    "Verdict": lambda: Verdict(False, 7, "user 0 cannot recover", 0.5),
    "PlacementFrame": lambda: transcript().placements[0],
    "DeliveryFrame": lambda: transcript().delivery,
    "DecodeReport": lambda: transcript().reports[0],
    "SessionTranscript": transcript,
    "DecodeCounterexample": lambda: DecodeCounterexample(
        3, (0, 1), (1, 0), 2, 1, (1,), (0,)
    ),
    "IndependenceCounterexample": lambda: IndependenceCounterexample((0,), 1, 2, 3, 4),
    "RatePoint": lambda: RatePoint(Fraction(1, 3), Fraction(4, 3), "low"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_records_are_equal_and_hash_by_value(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_records_differing_in_one_field_are_unequal():
    m = high_memory_2x4_matrices()
    assert m != m._replace(deliveries=m.deliveries[:3])
    assert DemandSubset(2, 1, ((0,),), "a") != DemandSubset(2, 1, ((0,),), "b")
    assert DemandVector(2, (0, 1)) != DemandVector(3, (0, 1))
    assert Verdict(True, 3) != Verdict(True, 4)
    assert transcript() != transcript()._replace(scheme_name="other")


def test_equal_matrices_and_demand_sets_reach_one_compiled_scheme():
    # compile_linear_scheme is an LRU keyed by these values, not identities
    m = high_memory_2x4_matrices()
    fresh = m._replace(deliveries=tuple(list(m.deliveries)))
    first = compile_linear_scheme(m, cyclic_demand_set(2, 2), "value-key")
    assert compile_linear_scheme(fresh, cyclic_demand_set(2, 2), "value-key") is first


@pytest.mark.parametrize("name", BUILDERS)
def test_records_refuse_assignment(name):
    record = BUILDERS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert getattr(record, field) == getattr(BUILDERS[name](), field)


@pytest.mark.parametrize(
    "record",
    [
        FileStore(1, 1, 1, (0,)),
        DemandVector(2, (0,)),
        DemandSubset(2, 1, ((0,),), "a"),
        high_memory_2x4_matrices(),
        Verdict(True, 3),
        transcript(),
        RatePoint(Fraction(0), Fraction(2), "origin"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_refuse_a_new_attribute(record):
    with pytest.raises(AttributeError):
        record.extra = 1


def test_named_tuple_records_copy_with_replace_and_equal_plain_tuples():
    report = transcript().reports[0]
    missed = report._replace(matched=False)
    assert missed == (0, 1, False, 3, 0b011)
    assert report.matched and not missed.matched
    assert Verdict(True, 3) == (True, 3, None, None)


def test_a_replaced_file_store_is_validated():
    store = FileStore(2, 1, 2, (3, 1))
    assert store._replace(values=(0, 2)).values == (0, 2)
    with pytest.raises(ValueError, match="out of range for width 2"):
        store._replace(values=(4, 0))
    with pytest.raises(ValueError, match="symbol count"):
        store._replace(n_files=3)


@pytest.mark.parametrize(
    "record",
    [
        FileStore(2, 1, 2, (3, 1)),
        DemandVector(2, (0, 1)),
        full_demand_set(2, 2),
        high_memory_2x4_matrices(),
    ],
    ids=lambda record: type(record).__name__,
)
def test_validated_records_copy_and_pickle_by_value(record):
    twins = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
    for twin in twins:
        assert twin == record and type(twin) is type(record)


def test_a_demand_set_looks_up_members_after_a_copy():
    served = cyclic_demand_set(2, 2)
    assert (0, 1, 0, 1) in served and DemandVector(2, (1, 0, 1, 0)) in served
    twin = pickle.loads(pickle.dumps(served))
    assert (0, 1, 1, 0) in twin and (0, 0, 0, 0) not in twin


def test_a_joint_distribution_builds_positionally_and_is_mutable():
    d = JointDistribution(3, Counter({(0, 1): 3}), Counter({0: 3}), Counter({1: 3}))
    assert (d.total, d.joint[(0, 1)], d.left[0], d.right[1]) == (3, 3, 3, 3)
    assert d == JointDistribution.from_pairs([(0, 1)] * 3)
    empty = JointDistribution()
    assert (empty.total, empty.joint, empty.left, empty.right) == (0, {}, {}, {})
    assert empty.joint is not JointDistribution().joint
    empty.total = 5
    assert empty.total == 5
    with pytest.raises(TypeError):
        hash(empty)


def test_a_joint_distribution_repr_names_its_fields_and_other_types_are_unequal():
    d = JointDistribution(1, Counter({(0, 1): 1}), Counter({0: 1}), Counter({1: 1}))
    assert repr(d) == (
        "JointDistribution(total=1, joint=Counter({(0, 1): 1}), "
        "left=Counter({0: 1}), right=Counter({1: 1}))"
    )
    assert d.__eq__((1, d.joint, d.left, d.right)) is NotImplemented
    assert d != (1, d.joint, d.left, d.right)


def test_slot_records_repr_their_fields_and_refuse_deletion():
    demand = DemandVector(2, (0, 1))
    assert repr(demand) == "DemandVector(n_files=2, entries=(0, 1))"
    assert repr(DemandSubset(2, 1, ((0,),), "a")) == (
        "DemandSubset(n_files=2, n_users=1, members=((0,),), label='a')"
    )
    with pytest.raises(AttributeError, match="^cannot delete field 'entries'$"):
        del demand.entries
    assert demand.entries == (0, 1)


def test_the_package_defines_only_one_dataclass():
    found = []
    for info in pkgutil.iter_modules(cachepriv.__path__):
        module = importlib.import_module(f"cachepriv.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
            ):
                found.append(f"{info.name}.{value.__name__}")
    assert found == ["core.SchemeInstance"]
