"""The validated records check their fields on every path that builds one.

Each record is a ``NamedTuple``.  A validated type is a subclass of its
fields whose ``__new__`` runs the checks.  namedtuple's own ``_make``, which
``_replace`` calls, would build the tuple directly and skip them, so each
type takes a ``_make`` that goes through ``__new__`` from one private base;
``copy.copy`` and pickle rebuild through ``__new__``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from diracver.algebra import ComplexRational
from diracver.clifford import catalog
from diracver.sampling import ExactUnitary
from diracver.solver import DegeneracyRequirement, solve_forced_coefficients
from diracver.spectrum import MomentumSample
from diracver.symmat import HermiticityError, MatrixSet, char_poly, hermiticity_defect


ROTATION = ExactUnitary(((Fraction(3, 5), ComplexRational(0, Fraction(4, 5))), (ComplexRational(0, Fraction(4, 5)), Fraction(3, 5))))


def _cases():
    """(valid record, field, rejected value, expected error type, expected message)."""
    dirac_pauli = catalog("dirac-pauli")
    beta = [list(row) for row in dirac_pauli.beta]
    beta[0][1] = ComplexRational(1)
    return [
        (dirac_pauli, "beta", tuple(map(tuple, beta)), HermiticityError,
         "beta is not Hermitian at entries (0,1)/(1,0)"),
        (char_poly(dirac_pauli), "n", 3, ValueError,
         "characteristic polynomial must be monic of degree n"),
        (ROTATION, "matrix", ((1, 1), (0, 1)), ValueError, "matrix is not exactly unitary"),
        (DegeneracyRequirement(4, 2), "r", 5, ValueError,
         "multiplicity 5 exceeds the polynomial degree 4"),
        (solve_forced_coefficients(DegeneracyRequirement(3, 2)), "witness", Fraction(0), ValueError,
         "certificate witness must be nonzero"),
        (MomentumSample((0.1, 0.2, 0.3), 1.0), "m", -1.0, ValueError, "mass must be nonnegative"),
    ]


CASES = _cases()
RECORDS = [case[0] for case in CASES]
IDS = [type(record).__name__ for record in RECORDS]


def _raised(build):
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("record, field, bad, error, message", CASES, ids=IDS)
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
    assert hermiticity_defect(mset.beta) is None and hermiticity_defect(mset.alphas[0]) is None
    assert (*mset.alphas, mset.beta) == (*dirac_pauli.alphas, dirac_pauli.beta)
    assert u.matrix == ROTATION.matrix


def test_a_rebuilt_unitary_recomputes_its_cleared_form(pauli):
    u = ROTATION
    for rebuilt in (u._replace(), copy.copy(u), pickle.loads(pickle.dumps(u))):
        assert rebuilt._gi == u._gi
        assert rebuilt.conjugate_set(pauli) == u.conjugate_set(pauli)
