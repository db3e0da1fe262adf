"""The contract of the package's immutable records: equality and hashing by
field, no assignment, and a package import that leaves ``dataclasses`` out."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import greedymax
from greedymax.covering import CoveringParams, apply_bound
from greedymax.graphs import Multigraph
from greedymax.multiset import DegreeSequence, make_degree_sequence
from greedymax.omega import b, decrement_sequence
from greedymax.orderlab import ElementaryStep

D = [1, 2, 2, 4, 4, 5, 6]

# each factory builds a fresh record from scratch, with one of its fields
RECORDS = [
    (lambda: make_degree_sequence([2, 1, 2]), "items"),
    (lambda: decrement_sequence(make_degree_sequence(D), 3), "a"),
    (lambda: b(make_degree_sequence(D), 3), "chain"),
    (lambda: Multigraph.from_edges(3, [(1, 2, 2), (0, 1, 1)]), "edges"),
    (lambda: ElementaryStep("transfer", 4, 2), "kind"),
    (lambda: CoveringParams(50, 14, 1), "lam"),
    (lambda: apply_bound(CoveringParams(50, 14, 1), 16), "D"),
]


@pytest.mark.parametrize("make, field", RECORDS)
def test_equal_fields_make_equal_records(make, field):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert copy.copy(first) == first
    assert pickle.loads(pickle.dumps(first)) == first


@pytest.mark.parametrize("make, field", RECORDS)
def test_records_refuse_assignment(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before
    assert not hasattr(record, "extra")


def test_degree_sequence_repr_lists_the_values():
    assert repr(make_degree_sequence([2, 1, 2])) == "{1,2,2}"
    assert repr(make_degree_sequence([])) == "{}"


def test_degree_sequence_copies_whatever_its_order():
    # the order of a covering excess sequence can pass 2^63; copying and
    # pickling must not size anything by it
    huge = DegreeSequence(((5, 2**63),))
    assert copy.copy(huge) == huge
    assert copy.deepcopy(huge) == huge
    assert pickle.loads(pickle.dumps(huge)) == huge


def test_package_import_leaves_out_dataclasses():
    src = os.path.dirname(os.path.dirname(greedymax.__file__))
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import greedymax.cli, greedymax.covering, greedymax.graphs\n"
        "import greedymax.orderlab, greedymax.loops\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "False\n"
