import ast
import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracver.sampling as sampling_module
from diracver.algebra import ComplexRational
from diracver.cli import parse_matrix_file
from diracver.clifford import (
    CATALOG_NAMES,
    CanonicalizationResult,
    StructuralViolationError,
    _gram_schmidt_columns,
    beta_spectrum,
    canonicalize_beta,
    catalog,
    check_alpha_structure,
    check_anticommutation,
    check_trace_det,
    equivalence_audit,
)
from diracver.dispersion import check_dispersion
from diracver.sampling import ExactUnitary, perturbed_set, random_exact_unitary, random_hermitian_set
from diracver.symmat import (
    MatrixSet,
    _cleared,
    _gram_is_identity,
    as_matrix,
    char_poly,
    mat_identity,
    mat_is_zero,
    mat_trace,
)
from oracles import (
    abs2,
    alpha_structure_reference,
    anticommutator_reference,
    block_reader,
    canonical_form_reference,
    conjugate_reference,
    dagger_reference,
    gram_schmidt_reference,
    mat_mul_reference,
    random_exact_unitary_reference,
    unit_eigenbasis,
    unitary_reference,
)

# the Pauli triple, for strategies, which take no fixtures
_PAULI = parse_matrix_file(Path(__file__).resolve().parent / "golden" / "inputs" / "pauli.json")
_CANONICAL = as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


def _with_alpha1(mset, alpha1):
    return MatrixSet(4, (alpha1, mset.alphas[1], mset.alphas[2]), mset.beta)


# ---------------------------------------------------------------------------
# anticommutation
# ---------------------------------------------------------------------------


def test_catalog_sets_satisfy_the_relations(all_catalog_sets):
    for mset in all_catalog_sets:
        report = check_anticommutation(mset)
        assert report.passed, mset.label
        assert len(report.pairwise) == 6
        assert len(report.squares) == 4


def test_pauli_triple_in_squares_only_mode(pauli):
    report = check_anticommutation(pauli)
    alphas = ("alpha1", "alpha2", "alpha3")
    alpha_pairs = [pair for pair in report.pairwise if "beta" not in pair]
    assert alpha_pairs == [("alpha1", "alpha2"), ("alpha1", "alpha3"), ("alpha2", "alpha3")]
    assert all(mat_is_zero(report.pairwise[pair]) for pair in alpha_pairs)
    assert all(mat_is_zero(report.squares[name]) for name in alphas)
    # the zero beta: beta^2 - 1 = -1 != 0
    assert not report.passed
    assert not mat_is_zero(report.squares["beta"])


def test_perturbed_entry_breaks_alpha_square(dirac_pauli):
    rows = [list(row) for row in dirac_pauli.alphas[0]]
    delta = ComplexRational(Fraction(1, 10))
    rows[0][2] = rows[0][2] + delta
    rows[2][0] = rows[2][0] + delta
    broken = _with_alpha1(dirac_pauli, as_matrix(rows))
    report = check_anticommutation(broken)
    assert not report.passed
    assert not mat_is_zero(report.squares["alpha1"])


def test_anticommutation_preserved_under_exact_conjugation(all_catalog_sets, rng):
    for mset in all_catalog_sets:
        u = random_exact_unitary(rng)
        assert check_anticommutation(u.conjugate_set(mset)).passed


# ---------------------------------------------------------------------------
# traces, determinants, beta spectrum
# ---------------------------------------------------------------------------


def _halved(matrix):
    return tuple(tuple(x * Fraction(1, 2) for x in row) for row in matrix)


def _trace_det(mset):
    return check_trace_det(char_poly(mset))


def test_trace_det_on_catalog(all_catalog_sets):
    for mset in all_catalog_sets:
        assert _trace_det(mset).passed


def test_trace_det_flags_bad_beta(dirac_pauli):
    bad = MatrixSet(4, dirac_pauli.alphas, as_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    ))
    report = _trace_det(bad)
    assert not report.passed
    assert not report.traces_vanish and not report.dets_unit
    assert report.values["beta"] == (Fraction(2), Fraction(-1))


def test_diagonal_alpha_passes_trace_det_but_not_anticommutation(dirac_pauli):
    diag_alpha = as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    variant = _with_alpha1(dirac_pauli, diag_alpha)
    report = _trace_det(variant)
    assert report.passed
    assert report.values["alpha1"] == (Fraction(0), Fraction(1))
    assert not check_anticommutation(variant).passed


def test_trace_det_requires_dimension_four(pauli):
    with pytest.raises(ValueError, match="n = 4"):
        _trace_det(pauli)


def test_beta_spectrum(all_catalog_sets, dirac_pauli):
    for mset in all_catalog_sets:
        assert beta_spectrum(mset) == (1, 1, -1, -1)
    skewed = MatrixSet(4, dirac_pauli.alphas, as_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    ))
    assert beta_spectrum(skewed) == (1, 1, 1, -1)
    not_involutive = MatrixSet(4, dirac_pauli.alphas, _halved(dirac_pauli.beta))
    with pytest.raises(StructuralViolationError):
        beta_spectrum(not_involutive)


def test_gram_check_sees_an_imaginary_defect():
    # beta = diag(B, -B) with B = [[3/5, 4i/5], [-4i/5, 3/5]]: beta^2 has real part I
    # and off-diagonal entries +-24i/25, so only the imaginary parts show the defect
    mset = parse_matrix_file(Path(__file__).resolve().parent / "golden" / "inputs" / "beta-imaginary-square.json")
    (g,), d = _cleared(mset.beta)
    assert d == 5 and g[0][:2] == [(3, 0), (0, 4)]
    assert not _gram_is_identity(g, d)
    (g,), d = _cleared(_CANONICAL)
    assert _gram_is_identity(g, d)
    with pytest.raises(StructuralViolationError, match="^beta does not square to the identity$"):
        beta_spectrum(mset)


# ---------------------------------------------------------------------------
# canonicalization and alpha structure
# ---------------------------------------------------------------------------


def test_canonicalize_identity_transform(dirac_pauli):
    result = canonicalize_beta(dirac_pauli)
    assert result.exact
    assert result.description == "identity (beta already canonical)"
    assert result.transform_exact == mat_identity(4)
    assert result.matrix_set is dirac_pauli
    report = check_alpha_structure(result)
    assert report.passed
    assert report.norm_values == (Fraction(2), Fraction(2), Fraction(2))


def test_canonicalize_permuted_beta_is_exact(dirac_pauli):
    shuffled = MatrixSet(4, dirac_pauli.alphas, as_matrix(
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    ))
    result = canonicalize_beta(shuffled)
    assert result.exact
    assert result.description == "exact rational unitary"
    # every transform entry is 0 or a unit: a permutation of the basis
    u = result.transform_exact
    entries = {x for row in u for x in row}
    assert entries <= {ComplexRational(0), ComplexRational(1), ComplexRational(-1)}
    assert mat_mul_reference(dagger_reference(u), mat_mul_reference(shuffled.beta, u)) == _CANONICAL


def test_canonicalize_chiral_beta_is_decided_exactly(weyl_chiral):
    result = canonicalize_beta(weyl_chiral)
    # the eigenbasis needs 1/sqrt(2): no unit-normalised basis over Q
    assert not result.exact
    assert result.transform_exact is None
    assert result.description == (
        "orthogonal basis with squared column norms 1/2, 1/2, 1/2, 1/2 (not unit-normalisable over Q)"
    )
    report = check_alpha_structure(result)
    assert report.passed
    assert report.alpha_blocks == (True, True, True)
    assert report.norm_values == (Fraction(2), Fraction(2), Fraction(2))
    assert all(type(v) is Fraction for v in report.norm_values)

    # independent eigensolver route agrees on the block verdict
    def to_array(matrix):
        return np.array([[complex(x.re, x.im) for x in row] for row in matrix])

    _, vectors = np.linalg.eigh(to_array(weyl_chiral.beta))
    basis = np.column_stack([vectors[:, 2], vectors[:, 3], vectors[:, 0], vectors[:, 1]])
    for alpha in weyl_chiral.alphas:
        a_f = basis.conj().T @ to_array(alpha) @ basis
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
            assert abs(a_f[i, j]) < 1e-10
        assert abs(np.sum(np.abs(a_f[:2, 2:]) ** 2) - 2) < 1e-10


def test_canonicalize_rejects_non_involutive_beta(dirac_pauli):
    bad = MatrixSet(4, dirac_pauli.alphas, _halved(dirac_pauli.beta))
    with pytest.raises(ValueError, match="beta\\^2"):
        canonicalize_beta(bad)


def test_canonicalize_rejects_lopsided_eigenspaces(dirac_pauli):
    lopsided = MatrixSet(4, dirac_pauli.alphas, mat_identity(4))
    with pytest.raises(StructuralViolationError, match="eigenspace"):
        canonicalize_beta(lopsided)


def test_structure_flags_nonzero_diagonal_entry(dirac_pauli):
    rows = [list(row) for row in dirac_pauli.alphas[0]]
    rows[0][0] = ComplexRational(Fraction(1, 10))
    tampered = _with_alpha1(dirac_pauli, as_matrix(rows))
    report = check_alpha_structure(canonicalize_beta(tampered))
    assert not report.passed
    assert report.alpha_blocks[0] is False
    assert report.alpha_blocks[1] is True


_UNIT_BASES = {name: unit_eigenbasis(catalog(name).beta) for name in CATALOG_NAMES}


@given(
    st.sampled_from(CATALOG_NAMES),
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.integers(0, 20),
)
@settings(max_examples=60, deadline=None)
def test_projector_structure_matches_the_block_reader(name, seed, entries, steps):
    # a catalog set with perturbed alphas, conjugated by an exact unitary V, has the
    # exact eigenbasis V U of its beta, where U is the catalog beta's unit eigenbasis
    rng = random.Random(seed)
    base = catalog(name)
    perturbed = perturbed_set(rng, base, entries=entries)
    v = random_exact_unitary(rng, steps=steps)
    mset = v.conjugate_set(MatrixSet(4, perturbed.alphas, base.beta))
    basis = mat_mul_reference(v.matrix, _UNIT_BASES[name])
    assert mat_mul_reference(dagger_reference(basis), mat_mul_reference(mset.beta, basis)) == _CANONICAL

    report = check_alpha_structure(canonicalize_beta(mset))
    blocks, norms = block_reader(mset.alphas, basis)
    assert report.alpha_blocks == blocks
    assert report.norm_values == norms
    assert all(type(value) is Fraction for value in report.norm_values)
    assert report.passed == (all(blocks) and all(value == 2 for value in norms))


_EXACT_MODULES = ("algebra.py", "dispersion.py", "solver.py", "clifford.py", "sampling.py")


def test_exact_modules_use_no_floats():
    package = Path(__file__).parents[1] / "src" / "diracver"
    for module in _EXACT_MODULES:
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "numpy" for alias in node.names), where
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy", where
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("float", "complex"), where
            elif isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where


# ---------------------------------------------------------------------------
# the Gaussian-integer kernels against the ComplexRational references
# ---------------------------------------------------------------------------

_mixed_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7, 12, 35, 1001)))
_mixed_scalars = st.builds(ComplexRational, _mixed_fractions, _mixed_fractions)


@st.composite
def _mixed_hermitian(draw, n):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ComplexRational(draw(_mixed_fractions))
        for j in range(i + 1, n):
            rows[i][j] = draw(_mixed_scalars)
            rows[j][i] = rows[i][j].conj()
    return tuple(tuple(row) for row in rows)


@st.composite
def _audited_sets(draw, dims=(2, 3, 4)):
    """A set of mixed denominators, its 10-60-step conjugate, or a perturbation of either.

    The base is a catalog set (n = 4), the Pauli triple (n = 2) or a set of
    mixed-denominator Hermitian matrices.
    """
    n = draw(st.sampled_from(dims))
    rng = draw(st.randoms(use_true_random=False))
    named = {4: [catalog(name) for name in CATALOG_NAMES], 2: [_PAULI], 3: []}[n]
    if named and draw(st.booleans()):
        mset = draw(st.sampled_from(named))
    else:
        mset = MatrixSet(n, tuple(draw(_mixed_hermitian(n)) for _ in range(3)), draw(_mixed_hermitian(n)))
    if draw(st.booleans()):
        mset = random_exact_unitary(rng, n, steps=draw(st.integers(10, 60))).conjugate_set(mset)
    if draw(st.booleans()):
        magnitude = draw(_mixed_fractions.filter(bool))
        mset = perturbed_set(rng, mset, entries=draw(st.integers(1, 3)), magnitude=magnitude)
    return mset


def _is_matrix_of_scalars(matrix, n):
    return (
        type(matrix) is tuple
        and len(matrix) == n
        and all(type(row) is tuple and len(row) == n for row in matrix)
        and all(type(x) is ComplexRational for row in matrix for x in row)
    )


@given(_audited_sets())
@settings(max_examples=80, deadline=None)
def test_anticommutators_match_the_reference_products(mset):
    report = check_anticommutation(mset)
    items = list(mset.matrices())
    identity = mat_identity(mset.n)
    pairwise = {
        (name_a, name_b): anticommutator_reference(a, b)
        for k, (name_a, a) in enumerate(items)
        for name_b, b in items[k + 1:]
    }
    squares = {
        name: tuple(tuple(x - y for x, y in zip(row, unit)) for row, unit in zip(mat_mul_reference(m, m), identity))
        for name, m in items
    }
    assert list(report.pairwise) == list(pairwise)
    assert list(report.squares) == list(squares)
    assert report.pairwise == pairwise
    assert report.squares == squares
    assert all(_is_matrix_of_scalars(d, mset.n) for d in (*report.pairwise.values(), *report.squares.values()))
    assert report.passed == all(mat_is_zero(d) for d in (*pairwise.values(), *squares.values()))


@given(_audited_sets(), _mixed_scalars)
@settings(max_examples=60, deadline=None)
def test_gram_schmidt_matches_the_reference_basis(mset, factor):
    # the four matrices, and the first with its last column made a multiple of its first
    first = mset.alphas[0]
    deficient = tuple(row[:-1] + (row[0] * factor,) for row in first)
    for _, matrix in (*mset.matrices(), ("deficient", deficient)):
        (g,), d = _cleared(matrix)
        basis = _gram_schmidt_columns(g)
        expected = gram_schmidt_reference(matrix)
        assert [tuple(ComplexRational._from_ints(re, im, s * d) for re, im in w) for w, s, _ in basis] == expected
        assert [Fraction(norm, (s * d) ** 2) for _, s, norm in basis] == [
            sum((abs2(x) for x in v), Fraction(0)) for v in expected
        ]


_SIGNATURES = [
    as_matrix([[1 if i == j else 0 for j in range(4)] for i in range(4)]),
    as_matrix([[(1 if i < 3 else -1) if i == j else 0 for j in range(4)] for i in range(4)]),
    as_matrix([[(1 if i < 1 else -1) if i == j else 0 for j in range(4)] for i in range(4)]),
]


@st.composite
def _involutive_sets(draw):
    """A catalog set, with a beta of signature (4, 0), (3, 1) or (1, 3) one time in four,
    perturbed now and then and conjugated by an exact unitary of 0-60 steps."""
    rng = draw(st.randoms(use_true_random=False))
    base = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    beta = draw(st.sampled_from(_SIGNATURES)) if draw(st.integers(0, 3)) == 0 else base.beta
    mset = MatrixSet(4, base.alphas, beta)
    if draw(st.integers(0, 3)) == 0:
        mset = perturbed_set(rng, mset, entries=draw(st.integers(1, 3)))
    return random_exact_unitary(rng, steps=draw(st.integers(0, 60))).conjugate_set(mset)


@given(_involutive_sets())
@settings(max_examples=60, deadline=None)
def test_canonicalize_beta_matches_the_reference_basis(mset):
    beta = mset.beta
    if mat_mul_reference(beta, beta) != mat_identity(4):
        with pytest.raises(ValueError, match="beta\\^2 differs"):
            canonicalize_beta(mset)
        return
    dims, description, transform = canonical_form_reference(beta)
    if dims != (2, 2):
        with pytest.raises(StructuralViolationError, match=re.escape(f"dimensions {dims}")):
            canonicalize_beta(mset)
        return
    result = canonicalize_beta(mset)
    assert result.description == description
    assert result.transform_exact == transform
    assert result.exact == (transform is not None)
    assert result.matrix_set is mset
    if transform is not None:
        assert _is_matrix_of_scalars(result.transform_exact, 4)


@given(st.one_of(_audited_sets(), _involutive_sets()))
@settings(max_examples=60, deadline=None)
def test_beta_square_check_matches_the_reference(mset):
    if mat_mul_reference(mset.beta, mset.beta) == mat_identity(mset.n):
        plus = beta_spectrum(mset).count(1)
        assert 2 * plus - mset.n == mat_trace(mset.beta)
    else:
        with pytest.raises(StructuralViolationError, match="^beta does not square to the identity$"):
            beta_spectrum(mset)


def test_canonicalize_beta_matches_the_reference_on_seeded_conjugates():
    # every branch, on fixed seeds: exact and not, lopsided, not involutive
    outcomes = set()
    rng = random.Random(8)
    for name in CATALOG_NAMES:
        for beta in (catalog(name).beta, *_SIGNATURES):
            for steps in (0, 10, 60):
                mset = random_exact_unitary(rng, steps=steps).conjugate_set(MatrixSet(4, catalog(name).alphas, beta))
                dims, description, transform = canonical_form_reference(mset.beta)
                if dims != (2, 2):
                    outcomes.add("lopsided")
                    with pytest.raises(StructuralViolationError):
                        canonicalize_beta(mset)
                    continue
                result = canonicalize_beta(mset)
                assert (result.description, result.transform_exact) == (description, transform)
                outcomes.add(description if result.exact else "not exact")
    # e1 <-> e3 with -1 on e4 keeps a rational unit eigenbasis for dirac-pauli's diagonal beta
    swap = ExactUnitary(((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1)))
    for name in CATALOG_NAMES:
        mset = swap.conjugate_set(catalog(name))
        dims, description, transform = canonical_form_reference(mset.beta)
        result = canonicalize_beta(mset)
        assert (result.description, result.transform_exact) == (description, transform)
        outcomes.add(description if result.exact else "not exact")
    halved = MatrixSet(4, catalog("majorana").alphas, _halved(catalog("majorana").beta))
    with pytest.raises(ValueError, match="beta\\^2 differs"):
        canonicalize_beta(halved)
    assert outcomes == {"identity (beta already canonical)", "exact rational unitary", "not exact", "lopsided"}


@given(_audited_sets(dims=(4,)))
@settings(max_examples=60, deadline=None)
def test_alpha_structure_matches_the_reference_traces(mset):
    # the structure formulas hold for any beta; wrapping the set skips the canonical-form check
    report = check_alpha_structure(CanonicalizationResult(True, mset, None, ""))
    expected = [alpha_structure_reference(mset.beta, alpha) for alpha in mset.alphas]
    assert report.alpha_blocks == tuple(blocks for blocks, _ in expected)
    assert report.norm_values == tuple(norm for _, norm in expected)
    assert all(type(value) is Fraction for value in report.norm_values)
    assert all(type(value) is bool for value in report.alpha_blocks)


# ---------------------------------------------------------------------------
# the equivalence of the two audits
# ---------------------------------------------------------------------------


def test_equivalence_on_standard_and_conjugates(all_catalog_sets, rng):
    for mset in all_catalog_sets:
        verdict = equivalence_audit(mset)
        assert verdict.passed and verdict.consistent
        conjugated = random_exact_unitary(rng).conjugate_set(mset)
        verdict = equivalence_audit(conjugated)
        assert verdict.passed and verdict.consistent


def test_equivalence_on_generic_and_perturbed_sets(dirac_pauli, rng):
    failures = 0
    for _ in range(20):
        verdict = equivalence_audit(random_hermitian_set(rng))
        assert verdict.consistent
        failures += not verdict.passed
    assert failures == 20  # generic sets violate both sides
    for _ in range(12):
        verdict = equivalence_audit(perturbed_set(rng, catalog(rng.choice(CATALOG_NAMES))))
        assert verdict.consistent


@given(st.sampled_from(CATALOG_NAMES), st.integers(0, 2**32 - 1), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_equivalence_theorem_under_exact_unitaries(name, seed, steps):
    rng = random.Random(seed)
    conjugate = random_exact_unitary(rng, steps=steps).conjugate_set(catalog(name))
    verdict = equivalence_audit(conjugate)
    assert verdict.consistent and verdict.passed
    assert equivalence_audit(perturbed_set(rng, conjugate)).consistent


def test_dispersion_pass_forces_even_char_poly(all_catalog_sets, rng):
    for mset in all_catalog_sets + [random_exact_unitary(rng).conjugate_set(catalog("majorana"))]:
        assert check_dispersion(mset, 2).passed
        cp = char_poly(mset)
        assert cp.c(3).is_zero
        assert cp.c(1).is_zero


def test_consequence_chain(all_catalog_sets, rng):
    targets = list(all_catalog_sets)
    targets += [random_exact_unitary(rng).conjugate_set(m) for m in all_catalog_sets]
    for mset in targets:
        assert check_anticommutation(mset).passed
        assert _trace_det(mset).passed
        assert beta_spectrum(mset) == (1, 1, -1, -1)
        assert check_alpha_structure(canonicalize_beta(mset)).passed


# ---------------------------------------------------------------------------
# exact unitaries and the catalog
# ---------------------------------------------------------------------------


# exact literals of the unitaries the sampler composes: a real and an
# imaginary Pythagorean rotation, and the four phases on a diagonal
_I = ComplexRational(0, 1)
REAL_ROTATION = ((Fraction(3, 5), 0, Fraction(4, 5), 0), (0, 1, 0, 0), (Fraction(-4, 5), 0, Fraction(3, 5), 0), (0, 0, 0, 1))
IMAGINARY_ROTATION = ((Fraction(3, 5), _I * Fraction(4, 5)), (_I * Fraction(4, 5), Fraction(3, 5)))
PHASES = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, _I, 0), (0, 0, 0, -_I))


def test_exact_unitary_validation():
    with pytest.raises(ValueError):
        ExactUnitary(as_matrix([[1, 1], [0, 1]]))
    # the constructor validates U U^dagger = 1 exactly, so these must not raise
    for rows in (REAL_ROTATION, IMAGINARY_ROTATION, PHASES):
        assert ExactUnitary(rows).matrix == as_matrix(rows)
    with pytest.raises(ValueError, match="^matrix is not exactly unitary$"):
        ExactUnitary(((Fraction(1, 2), 0), (0, 1)))


def test_random_exact_unitaries_are_unitary(rng):
    for _ in range(10):
        u = random_exact_unitary(rng)
        assert mat_mul_reference(u.matrix, dagger_reference(u.matrix)) == mat_identity(4)


def test_random_exact_unitary_is_checked_once(monkeypatch):
    checks = []

    def counted(g, d):
        checks.append(d)
        return _gram_is_identity(g, d)

    monkeypatch.setattr(sampling_module, "_gram_is_identity", counted)
    random_exact_unitary(random.Random(0), steps=60)
    assert len(checks) == 1


def test_malformed_unitaries_fail_with_their_own_message(monkeypatch):
    with pytest.raises(ValueError, match="^unitary must be square and nonempty$"):
        ExactUnitary(())

    def no_product(*args):
        raise AssertionError("a product was started")

    # the dimensions are compared before any product (zip would truncate)
    monkeypatch.setattr(sampling_module, "_gi_mat_mul", no_product)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        ExactUnitary(IMAGINARY_ROTATION).conjugate_set(catalog("dirac-pauli"))


def test_unitaries_accept_plain_exact_entries():
    assert ExactUnitary(((1, 0), (0, 1))) == ExactUnitary(mat_identity(2))
    rotation = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
    assert ExactUnitary(rotation).matrix == as_matrix(rotation)
    mixed = ((ComplexRational(0, 1), 0), (0, 1))
    assert ExactUnitary(mixed).matrix == as_matrix(mixed)
    exact = mat_identity(3)
    assert ExactUnitary(exact).matrix is exact  # nothing to coerce, nothing rebuilt
    with pytest.raises(ValueError, match="^matrix is not exactly unitary$"):
        ExactUnitary(((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="^unitary must be square and nonempty$"):
        ExactUnitary(((1, 0), (0,)))
    for bad, shown in ((1.0, "1.0"), ("1", "'1'")):
        with pytest.raises(TypeError, match=f"^cannot interpret {re.escape(shown)} as an exact scalar$"):
            ExactUnitary(((bad, 0), (0, 1)))


def test_cleared_form_is_not_a_field():
    u = ExactUnitary(IMAGINARY_ROTATION)
    v = ExactUnitary(u.matrix)
    assert ExactUnitary._fields == ("matrix",)
    assert u == v and hash(u) == hash(v)
    assert repr(u) == f"ExactUnitary(matrix={u.matrix!r})"


_RAGGED = ("empty", "short row", "long row", "extra row", "missing row")


@st.composite
def _unitary_candidates(draw):
    """The rows of a 1-60-step exact unitary (n = 2, 3, 4), intact or damaged:
    one entry nudged by +-1/10^k or +-i/10^k (k <= 40), one entry times i,
    one entry conjugated, two rows swapped, or a ragged shape."""
    n = draw(st.sampled_from((2, 3, 4)))
    rng = draw(st.randoms(use_true_random=False))
    rows = [list(row) for row in random_exact_unitary(rng, n, steps=draw(st.integers(1, 60))).matrix]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    damage = draw(st.sampled_from(("none", "nudge", "times i", "conjugate", "swap", *_RAGGED)))
    if damage == "nudge":
        step = Fraction(draw(st.sampled_from((1, -1))), 10 ** draw(st.integers(1, 40)))
        rows[i][j] = rows[i][j] + (ComplexRational(0, step) if draw(st.booleans()) else step)
    elif damage == "times i":
        rows[i][j] = rows[i][j] * ComplexRational(0, 1)
    elif damage == "conjugate":
        rows[i][j] = rows[i][j].conj()
    elif damage == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif damage == "empty":
        rows = []
    elif damage == "short row":
        rows[i].pop()
    elif damage == "long row":
        rows[i].append(ComplexRational(0))
    elif damage == "extra row":
        rows.append(list(rows[i]))
    elif damage == "missing row":
        rows.pop(i)
    return tuple(tuple(row) for row in rows)


@given(_unitary_candidates())
@settings(max_examples=150, deadline=None)
def test_unitary_validation_matches_the_reference(rows):
    n = len(rows)
    if unitary_reference(rows):
        assert ExactUnitary(rows).matrix == rows
    elif n == 0 or any(len(row) != n for row in rows):
        with pytest.raises(ValueError, match="^unitary must be square and nonempty$"):
            ExactUnitary(rows)
    else:
        with pytest.raises(ValueError, match="^matrix is not exactly unitary$"):
            ExactUnitary(rows)


@given(st.sampled_from(CATALOG_NAMES), st.randoms(use_true_random=False), st.integers(10, 60), st.none() | st.text(max_size=6))
@settings(max_examples=40, deadline=None)
def test_conjugate_set_matches_the_reference(name, rng, steps, label):
    base = catalog(name)
    u = random_exact_unitary(rng, steps=steps)
    expected_label = f"{name} (conjugated)" if label is None else label
    got = u.conjugate_set(base, label)
    assert got.label == expected_label
    assert got.alphas == tuple(conjugate_reference(u.matrix, alpha) for alpha in base.alphas)
    assert got.beta == conjugate_reference(u.matrix, base.beta)
    assert all(_is_matrix_of_scalars(m, 4) for _, m in got.matrices())


@given(_audited_sets(), st.randoms(use_true_random=False), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_conjugate_set_matches_the_reference_on_mixed_denominators(mset, rng, steps):
    u = random_exact_unitary(rng, mset.n, steps=steps)
    got = u.conjugate_set(mset)
    assert got.alphas == tuple(conjugate_reference(u.matrix, alpha) for alpha in mset.alphas)
    assert got.beta == conjugate_reference(u.matrix, mset.beta)


@given(st.sampled_from((2, 3, 4)), st.integers(0, 2**32), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_random_exact_unitary_matches_the_reference_sampler(n, seed, steps):
    rng, twin = random.Random(seed), random.Random(seed)
    assert random_exact_unitary(rng, n, steps=steps).matrix == random_exact_unitary_reference(twin, n, steps)
    assert rng.getstate() == twin.getstate()


# sha256 (first 16 hex digits) of repr(matrix) and repr(rng.random()) after the
# draw, for seeds 0-7: pins every matrix the samplers, the benchmark pools and
# scripts/equivalence_experiment.py build, and the rng stream that follows.
@pytest.mark.parametrize("n, steps, digest", [
    (2, 5, "8b60739902bdcf8b"),
    (3, 20, "f763857e930d6168"),
    (4, 1, "0d678468b02d5dfe"),
    (4, 3, "dd851664b4e723fd"),
    (4, 10, "2f7229c78b1ecf76"),
    (4, 30, "17e5e98d6b47ebd4"),
    (4, 60, "4ed1f87dae0ac793"),
])
def test_random_exact_unitary_values_are_pinned(n, steps, digest):
    h = hashlib.sha256()
    for seed in range(8):
        rng = random.Random(seed)
        h.update(repr(random_exact_unitary(rng, n, steps=steps).matrix).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest()[:16] == digest


def test_catalog_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog name"):
        catalog("standard")


def test_catalog_majorana_is_real_alpha_imaginary_beta(majorana):
    for alpha in majorana.alphas:
        assert all(x.im == 0 for row in alpha for x in row)
    assert all(x.re == 0 for row in majorana.beta for x in row)
