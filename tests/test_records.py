"""The validated records check their fields on every path that builds one.

Each record is a ``NamedTuple``.  A validated type is a subclass of its
fields whose ``__new__`` runs the checks.  namedtuple's own ``_make``, which
``_replace`` calls, would build the tuple directly and skip them, so each
type takes a ``_make`` that goes through ``__new__`` from one private base;
``copy.copy`` and pickle rebuild through ``__new__`` from the fields alone.
"""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from diracver import sampling, symmat
from diracver.algebra import ComplexRational
from diracver.clifford import catalog
from diracver.sampling import ExactUnitary, random_hermitian_set
from diracver.solver import DegeneracyRequirement, solve_forced_coefficients
from diracver.spectrum import MomentumSample
from diracver.symmat import HermiticityError, MatrixSet, _cleared, char_poly


ROTATION = ExactUnitary(((Fraction(3, 5), ComplexRational(0, Fraction(4, 5))), (ComplexRational(0, Fraction(4, 5)), Fraction(3, 5))))


def _cases():
    """(valid record, field, rejected value, expected error type, expected message)."""
    dirac_pauli = catalog("dirac-pauli")
    beta = [list(row) for row in dirac_pauli.beta]
    beta[0][1] = ComplexRational(1)
    certificate = solve_forced_coefficients(DegeneracyRequirement(3, 2))
    (first, _), second = certificate.multipliers
    return [
        (dirac_pauli, "beta", tuple(map(tuple, beta)), HermiticityError,
         "beta is not Hermitian at entries (0,1)/(1,0)"),
        (char_poly(dirac_pauli), "n", 3, ValueError,
         "characteristic polynomial must be monic of degree n"),
        (ROTATION, "matrix", ((1, 1), (0, 1)), ValueError, "matrix is not exactly unitary"),
        (DegeneracyRequirement(4, 2), "r", 5, ValueError,
         "multiplicity 5 exceeds the polynomial degree 4"),
        (certificate, "witness", Fraction(0), ValueError, "certificate witness must be nonzero"),
        (certificate, "multipliers", ((first, 0), second), ValueError, "certificate multipliers must be nonempty and nonzero"),
        (certificate, "multipliers", (), ValueError, "certificate multipliers must be nonempty and nonzero"),
        (MomentumSample((0.1, 0.2, 0.3), 1.0), "m", -1.0, ValueError, "mass must be nonnegative"),
    ]


CASES = _cases()
RECORDS = list({id(case[0]): case[0] for case in CASES}.values())
IDS = [type(record).__name__ for record in RECORDS]
# a record's first case is named by its type, each later one by its type, field and place
CASE_IDS = []
for record, field, *_ in CASES:
    name = type(record).__name__
    CASE_IDS.append(f"{name}-{field}-{len(CASE_IDS)}" if name in CASE_IDS else name)


def _raised(build):
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("record, field, bad, error, message", CASES, ids=CASE_IDS)
def test_every_way_of_building_a_record_validates(record, field, bad, error, message):
    cls = type(record)
    values = tuple(bad if name == field else value for name, value in zip(cls._fields, record))
    unchecked = tuple.__new__(cls, values)  # built past __new__, as namedtuple's own _make would
    builds = {
        "constructor": lambda: cls(*values),
        "keywords": lambda: cls(**dict(zip(cls._fields, values))),
        "_replace": lambda: record._replace(**{field: bad}),
        "_make": lambda: cls._make(values),
        "copy.copy": lambda: copy.copy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }
    for path, build in builds.items():
        assert _raised(build) == (error, message), path


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_valid_record_survives_every_way_of_rebuilding_it(record):
    cls = type(record)
    for rebuilt in (
        record._replace(),
        cls._make(record),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(rebuilt) is cls
        assert rebuilt == record and hash(rebuilt) == hash(record) and repr(rebuilt) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_read_only(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_list_rows_are_copied_out_of_the_callers_reach():
    dirac_pauli = catalog("dirac-pauli")
    alphas = tuple([list(row) for row in alpha] for alpha in dirac_pauli.alphas)
    beta = [list(row) for row in dirac_pauli.beta]
    rotation = [list(row) for row in ROTATION.matrix]
    mset, u = MatrixSet(4, alphas, beta), ExactUnitary(rotation)
    for value, from_tuples, stored in (
        (mset, MatrixSet(4, dirac_pauli.alphas, dirac_pauli.beta), (*mset.alphas, mset.beta)),
        (u, ROTATION, (u.matrix,)),
    ):
        assert all(type(m) is tuple and all(type(row) is tuple for row in m) for m in stored)
        assert value == from_tuples and hash(value) == hash(from_tuples)
    alphas[0][0][0] = beta[0][1] = ComplexRational(0, 1)
    rotation[0][0] = ComplexRational(0)
    assert (*mset.alphas, mset.beta) == (*dirac_pauli.alphas, dirac_pauli.beta)
    assert u.matrix == ROTATION.matrix


def test_a_rebuilt_set_recomputes_its_cleared_form():
    mset = catalog("weyl-chiral")
    for rebuilt in (mset._replace(), copy.copy(mset), pickle.loads(pickle.dumps(mset))):
        assert rebuilt._gi == _cleared(*mset.alphas, mset.beta)
    moved = mset._replace(beta=catalog("dirac-pauli").beta)
    assert moved._gi == _cleared(*mset.alphas, catalog("dirac-pauli").beta)


def test_a_rebuilt_unitary_recomputes_its_cleared_form(pauli):
    u = ROTATION
    for rebuilt in (u._replace(), copy.copy(u), pickle.loads(pickle.dumps(u))):
        assert rebuilt._gi == u._gi
        assert rebuilt.conjugate_set(pauli) == u.conjugate_set(pauli)


@pytest.mark.parametrize("value", [catalog("weyl-chiral"), ROTATION], ids=["MatrixSet", "ExactUnitary"])
def test_a_copy_or_a_pickle_clears_once_and_keeps_what_it_cleared(value, monkeypatch):
    calls = []

    def counting(*matrices):
        calls.append(matrices)
        return _cleared(*matrices)

    monkeypatch.setattr(symmat, "_cleared", counting)
    monkeypatch.setattr(sampling, "_cleared", counting)
    for rebuild in (copy.copy, lambda v: pickle.loads(pickle.dumps(v))):
        calls.clear()
        rebuilt = rebuild(value)
        assert len(calls) == 1
        # the fresh cleared form is kept, not overwritten by the original's
        assert rebuilt == value and rebuilt._gi == value._gi and rebuilt._gi is not value._gi


def test_a_pickle_carries_neither_the_cleared_rows_nor_the_float_stack():
    mset = random_hermitian_set(Random(31))
    mset._complex_stack
    data = pickle.dumps(mset)
    assert b"_gi" not in data and b"_complex_stack" not in data and b"numpy" not in data
    for rebuilt in (pickle.loads(data), copy.copy(mset)):
        assert rebuilt == mset and "_complex_stack" not in vars(rebuilt)
