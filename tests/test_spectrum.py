import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from diracver import spectrum
from diracver.algebra import ComplexRational
from diracver.clifford import perturbed_set, random_exact_unitary
from diracver.spectrum import (
    DEGENERACY_FLAG,
    MomentumSample,
    eigensolve,
    hamiltonian_at,
    positive_energy_spinors,
    sweep,
    write_csv,
)
from diracver.symmat import MatrixSet, build_hamiltonian, char_poly


def grid_samples(lo, hi, count, mass):
    axis = [lo + (hi - lo) * k / (count - 1) for k in range(count)]
    return [MomentumSample((x, y, z), mass) for x in axis for y in axis for z in axis]


def test_eigensolve_at_rest(dirac_pauli):
    row = eigensolve(dirac_pauli, MomentumSample((0.0, 0.0, 0.0), 1.0))
    assert row.eigenvalues == pytest.approx((-1.0, -1.0, 1.0, 1.0), abs=1e-12)


def test_eigensolve_massless_345(dirac_pauli):
    row = eigensolve(dirac_pauli, MomentumSample((3.0, 4.0, 0.0), 0.0))
    assert row.eigenvalues == pytest.approx((-5.0, -5.0, 5.0, 5.0), abs=1e-9)
    row = eigensolve(dirac_pauli, MomentumSample((1.0, 2.0, 2.0), 0.0))
    assert row.eigenvalues == pytest.approx((-3.0, -3.0, 3.0, 3.0), abs=1e-9)


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        MomentumSample((0.0, 0.0, 0.0), -1.0)


def test_spinors_at_rest_span_upper_components(dirac_pauli):
    basis = positive_energy_spinors(dirac_pauli, MomentumSample((0.0, 0.0, 0.0), 1.0))
    u1, u2 = basis.vectors
    assert basis.energy == 1.0
    for u in (u1, u2):
        assert abs(u[2]) < 1e-12 and abs(u[3]) < 1e-12
    assert abs(np.vdot(u1, u2)) < 1e-12


def test_spinor_residuals_and_orthonormality(all_catalog_sets):
    rng = random.Random(5)
    for mset in all_catalog_sets:
        for _ in range(20):
            sample = MomentumSample(
                tuple(rng.uniform(-3, 3) for _ in range(3)), rng.uniform(0.0, 2.0)
            )
            if sample.energy == 0.0:
                continue
            basis = positive_energy_spinors(mset, sample)
            u1, u2 = basis.vectors
            h = hamiltonian_at(mset, sample)
            bound = 1e-10 * sample.scale
            assert np.linalg.norm(h @ u1 - basis.energy * u1) <= bound
            assert np.linalg.norm(h @ u2 - basis.energy * u2) <= bound
            assert abs(np.vdot(u1, u2)) <= 1e-10
            assert abs(np.linalg.norm(u1) - 1) <= 1e-10
            assert abs(np.linalg.norm(u2) - 1) <= 1e-10


def test_spinors_massless_unit_momentum(dirac_pauli):
    sample = MomentumSample((0.0, 0.0, 1.0), 0.0)
    basis = positive_energy_spinors(dirac_pauli, sample)
    h = hamiltonian_at(dirac_pauli, sample)
    for u in basis.vectors:
        assert np.linalg.norm(h @ u - u) <= 1e-10 * sample.scale  # E_p = 1


def test_spinors_undefined_at_zero_energy(dirac_pauli):
    with pytest.raises(ValueError, match="E_p = 0"):
        positive_energy_spinors(dirac_pauli, MomentumSample((0.0, 0.0, 0.0), 0.0))


def test_spinors_report_wrong_eigenspace_dimension(dirac_pauli, rng):
    broken = perturbed_set(rng, dirac_pauli, entries=2)
    with pytest.raises((ValueError, RuntimeError)):
        # a broken set generically splits the doublet at some momentum
        for x in (0.3, 0.7, 1.3):
            positive_energy_spinors(broken, MomentumSample((x, 0.1, -0.4), 1.0))


def test_sweep_standard_grid(dirac_pauli):
    grid = grid_samples(-2.0, 2.0, 5, 1.0)
    result = sweep(dirac_pauli, grid)
    assert len(result.rows) == 125
    assert result.flagged == ()
    for row in result.rows:
        e = row.sample.energy
        expected = (-e, -e, e, e)
        assert max(abs(a - b) for a, b in zip(row.eigenvalues, expected)) <= 1e-9


def test_sweep_flags_perturbed_set(dirac_pauli, rng):
    broken = perturbed_set(rng, dirac_pauli)
    result = sweep(broken, grid_samples(-2.0, 2.0, 5, 1.0))
    assert len(result.flagged) >= 1
    defect_row = result.rows[result.flagged[0]]
    values = defect_row.eigenvalues
    defects = [
        abs(values[0] - values[1]),
        abs(values[2] - values[3]),
        abs(values[0] + values[3]),
        abs(values[1] + values[2]),
    ]
    assert max(defects) > DEGENERACY_FLAG


def test_sweep_empty_grid(dirac_pauli):
    result = sweep(dirac_pauli, [])
    assert result.rows == ()
    assert result.flagged == ()


def test_spectrum_symmetry_for_valid_sets(all_catalog_sets, rng):
    targets = all_catalog_sets + [
        random_exact_unitary(rng).conjugate_set(all_catalog_sets[0])
    ]
    for mset in targets:
        for _ in range(10):
            sample = MomentumSample(
                tuple(rng.uniform(-2, 2) for _ in range(3)), rng.choice((0.0, 0.5, 1.0))
            )
            values = eigensolve(mset, sample).eigenvalues
            assert all(
                abs(values[k] + values[len(values) - 1 - k]) <= 1e-9 for k in range(len(values))
            )


def test_eigenvalues_match_exact_char_poly_coefficients(all_catalog_sets, rng):
    # elementary symmetric polynomials of the float eigenvalues must agree
    # with the exact coefficients: e_k(lambda) = (-1)^k c_{n-k}
    for mset in all_catalog_sets:
        cp = char_poly(build_hamiltonian(mset))
        for _ in range(10):
            point = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(3)) + (
                Fraction(rng.randint(0, 4), 2),
            )
            sample = MomentumSample(tuple(float(x) for x in point[:3]), float(point[3]))
            values = eigensolve(mset, sample).eigenvalues
            esp = [1.0]
            for v in values:
                esp = [esp[0]] + [esp[k] + v * esp[k - 1] for k in range(1, len(esp))] + [v * esp[-1]]
            for k in range(1, 5):
                exact = cp.c(4 - k).evaluate(point)
                assert exact.is_real
                expected = (-1) ** k * float(exact.re)
                scale = max(1.0, abs(expected))
                assert abs(esp[k] - expected) <= 1e-8 * scale


def test_csv_format(dirac_pauli, tmp_path):
    grid = [MomentumSample((0.0, 0.0, 0.0), 1.0), MomentumSample((3.0, 4.0, 0.0), 0.0)]
    result = sweep(dirac_pauli, grid)
    out = tmp_path / "rows.csv"
    with out.open("w") as stream:
        write_csv(result.rows, stream)
    lines = out.read_text().splitlines()
    assert lines[0] == "px,py,pz,m,e1,e2,e3,e4"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "1"]
    assert float(first[4]) == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the batched lane: one conversion per set, chunked eigh
# ---------------------------------------------------------------------------


def fresh_copy(mset):
    """An equal set with no complex stack built yet."""
    return dataclasses.replace(mset)


def test_each_matrix_is_converted_once_per_set(dirac_pauli, monkeypatch):
    calls = []
    convert = spectrum.matrix_to_array

    def counting(matrix):
        calls.append(matrix)
        return convert(matrix)

    monkeypatch.setattr(spectrum, "matrix_to_array", counting)
    mset = fresh_copy(dirac_pauli)
    grid = grid_samples(-2.0, 2.0, 5, 1.0)
    sweep(mset, grid)
    for sample in grid[:20]:
        positive_energy_spinors(mset, sample)
    assert len(calls) == 4


def test_complex_stack_is_read_only(dirac_pauli):
    stack = fresh_copy(dirac_pauli)._complex_stack
    assert stack.shape == (4, 4, 4)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0


def test_complex_stack_leaves_equality_hash_and_repr_alone(dirac_pauli):
    mset = fresh_copy(dirac_pauli)
    before = (hash(mset), repr(mset))
    mset._complex_stack
    assert (hash(mset), repr(mset)) == before
    assert mset == dirac_pauli and dirac_pauli == mset
    assert "_complex_stack" not in {field.name for field in dataclasses.fields(MatrixSet)}


def test_sweep_rows_equal_single_point_solves(dirac_pauli, rng):
    grid = grid_samples(-2.0, 2.0, 5, 1.0)
    for mset in (dirac_pauli, perturbed_set(rng, dirac_pauli)):
        result = sweep(mset, grid)
        for k, sample in enumerate(grid):
            assert result.rows[k].eigenvalues == eigensolve(mset, sample).eigenvalues


def test_eigh_calls_are_chunked(dirac_pauli, monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def recording(h):
        sizes.append(1 if h.ndim == 2 else h.shape[0])
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    chunk = spectrum._CHUNK
    grid = [MomentumSample((0.001 * k, 0.5, -0.25), 1.0) for k in range(chunk + 1)]
    result = sweep(dirac_pauli, grid)
    assert sizes == [chunk, 1]
    assert len(result.rows) == chunk + 1 and result.flagged == ()


def single_point_residual(mset, sample):
    """The per-point residual max |h v - v lambda| of one eigh call."""
    h = hamiltonian_at(mset, sample)
    values, vectors = np.linalg.eigh(h)
    return float(np.max(np.abs(h @ vectors - vectors * values)))


def test_first_failing_point_in_grid_order_raises(dirac_pauli, monkeypatch):
    # with tolerance 0, h = 0 at the massless origin passes and points with a
    # rounding residual fail; the error must name the first of those in order
    origin = MomentumSample((0.0, 0.0, 0.0), 0.0)
    residuals = {}
    for sample in grid_samples(-2.0, 2.0, 5, 0.7):
        residuals.setdefault(f"{single_point_residual(dirac_pauli, sample):.3e}", sample)
    residuals.pop("0.000e+00", None)
    (text_a, a), (text_b, b) = list(residuals.items())[:2]
    monkeypatch.setattr(spectrum, "EIGENVALUE_TOLERANCE", 0.0)
    for grid, text in (([origin, a, b], text_a), ([origin, b, a], text_b)):
        with pytest.raises(RuntimeError) as info:
            sweep(dirac_pauli, grid)
        assert str(info.value) == f"eigensolver residual {text} out of tolerance"
    assert eigensolve(dirac_pauli, origin).eigenvalues == (0.0, 0.0, 0.0, 0.0)


def test_each_point_keeps_its_own_residual_bound(dirac_pauli, monkeypatch):
    # a tolerance that point b meets only at its own, larger scale
    origin = MomentumSample((0.0, 0.0, 0.0), 0.0)
    b = next(s for s in grid_samples(-2.0, 2.0, 5, 0.7) if single_point_residual(dirac_pauli, s) > 0)
    assert b.scale > 3 * origin.scale
    monkeypatch.setattr(spectrum, "EIGENVALUE_TOLERANCE", 1.5 * single_point_residual(dirac_pauli, b) / b.scale)
    rows = sweep(dirac_pauli, [origin, b, origin]).rows
    assert [row.sample for row in rows] == [origin, b, origin]


def test_eigensolve_rejects_a_non_finite_residual(dirac_pauli):
    beta = [list(row) for row in dirac_pauli.beta]
    beta[0][0] = ComplexRational(10**300)
    huge = MatrixSet(4, dirac_pauli.alphas, tuple(tuple(row) for row in beta))
    with pytest.raises(RuntimeError, match="eigensolver residual nan"):
        eigensolve(huge, MomentumSample((1.0, 1.0, 1.0), 1e10))
