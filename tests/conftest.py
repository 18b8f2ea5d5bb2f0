import random
from pathlib import Path

import pytest

from diracver.cli import parse_matrix_file
from diracver.clifford import CATALOG_NAMES, catalog

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.fixture
def dirac_pauli():
    return catalog("dirac-pauli")


@pytest.fixture
def weyl_chiral():
    return catalog("weyl-chiral")


@pytest.fixture
def majorana():
    return catalog("majorana")


@pytest.fixture
def pauli():
    """The two-dimensional set (sigma1, sigma2, sigma3) with beta = 0, read from its golden input."""
    return parse_matrix_file(GOLDEN_INPUTS / "pauli.json")


@pytest.fixture
def all_catalog_sets():
    return [catalog(name) for name in CATALOG_NAMES]


@pytest.fixture
def rng():
    return random.Random(20240811)
