import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from diracver import spectrum
from diracver.algebra import ComplexRational
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set
from diracver.spectrum import (
    DEGENERACY_FLAG,
    MomentumSample,
    SpectrumRow,
    eigensolve,
    hamiltonian_at,
    positive_energy_spinors,
    sweep,
    write_csv,
)
from diracver.symmat import MatrixSet, char_poly
from oracles import evaluate, poly_of


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
    for mass in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^mass must be nonnegative$"):
            MomentumSample((0.0, 0.0, 0.0), mass)


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


def test_each_spinor_residual_is_checked(dirac_pauli, monkeypatch):
    sample = MomentumSample((0.3, 0.7, -1.1), 1.0)
    positive_energy_spinors(dirac_pauli, sample)
    eigh = np.linalg.eigh
    for column in (2, 3):  # the two positive-energy eigenvectors, one at a time

        def spoiled(h, column=column):
            # tilt one eigenvector towards a negative-energy one: a residual of about 2e-6 * E_p
            values, vectors = eigh(h)
            vectors = vectors.copy()
            vectors[:, column] = (vectors[:, column] + 1e-6 * vectors[:, 0]) / math.sqrt(1 + 1e-12)
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", spoiled)
        with pytest.raises(RuntimeError, match="spinor residual"):
            positive_energy_spinors(dirac_pauli, sample)


def test_spinors_undefined_at_zero_energy(dirac_pauli):
    with pytest.raises(ValueError, match="^E_p = 0: the positive-energy eigenspace is undefined$"):
        positive_energy_spinors(dirac_pauli, MomentumSample((0.0, 0.0, 0.0), 0.0))
    # E_p must be a positive finite float: a square beyond the float range, a sum that
    # overflows, and a NaN or infinite component are each a ValueError, not an OverflowError
    for p, shown in (
        ((1e200, 1e200, 0.0), "inf"),
        ((1e154, 1e154, 1e154), "inf"),
        ((math.nan, 0.0, 0.0), "nan"),
        ((math.inf, 0.0, 0.0), "inf"),
    ):
        with pytest.raises(ValueError, match=f"^E_p = {shown}: the positive-energy eigenspace is undefined$"):
            positive_energy_spinors(dirac_pauli, MomentumSample(p, 1.0))


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
        cp = char_poly(mset)
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
                exact = evaluate(poly_of(cp.c(4 - k)), point)
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


def reference_csv(rows):
    """The row-by-row formatting: one f-string per value, joined with commas."""
    n = len(rows[0].eigenvalues) if rows else 4
    lines = [",".join(["px", "py", "pz", "m"] + [f"e{k}" for k in range(1, n + 1)])]
    for row in rows:
        values = list(row.sample.p) + [row.sample.m] + list(row.eigenvalues)
        lines.append(",".join(f"{v:.17g}" for v in values))
    return "".join(line + "\n" for line in lines)


def test_csv_bytes_equal_the_f_string_formatting_on_edge_values():
    tiny, huge = 5e-324, 1.7976931348623157e308
    full = (0.1 + 0.2, 1 / 3, -2 / 3, math.pi, 2.0**-1074 * 3, np.float64(0.1) * 3)  # 17 digits each
    four = [
        SpectrumRow(MomentumSample((1, -2, 0), 3), (-4, -4, 4, 4)),
        SpectrumRow(MomentumSample((-0.0, 0.0, tiny), 0.0), (-huge, -tiny, -0.0, huge)),
        SpectrumRow(MomentumSample(full[:3], 0.5), full[3:] + (1e16 + 2,)),
        SpectrumRow(MomentumSample((1e-300, -1e300, 123456789012345678.0), 1e22), (0.0,) * 4),
    ]
    two = [
        SpectrumRow(MomentumSample((0.0, 0.0, 0.0), 1.0), (-1.0, 1.0)),
        SpectrumRow(MomentumSample((-0.0, 2, tiny), huge), (full[0], -full[1])),
    ]
    for rows in (four, two, []):
        stream = io.StringIO()
        write_csv(rows, stream)
        assert stream.getvalue() == reference_csv(rows)
    assert reference_csv([]) == "px,py,pz,m,e1,e2,e3,e4\n"  # no rows: still the n = 4 header
    assert reference_csv(two).splitlines()[0] == "px,py,pz,m,e1,e2"
    assert "\n-0,2,4.9406564584124654e-324,1.7976931348623157e+308," in reference_csv(two)


# ---------------------------------------------------------------------------
# the spinor contract against the column-by-column algorithm
# ---------------------------------------------------------------------------


def reference_spinors(mset, sample):
    """Selected eigenvalues and spinors, one column at a time, residuals by `np.linalg.norm`."""
    energy, scale = sample.energy, sample.scale
    h = hamiltonian_at(mset, sample)
    values, vectors = np.linalg.eigh(h)
    select = [k for k in range(len(values)) if abs(values[k] - energy) <= 1e-7 * scale]
    assert len(select) == 2
    spinors = []
    for k in select:
        vector = vectors[:, k]
        for component in vector:
            if abs(component) > 1e-12:
                vector = vector * (component.conjugate() / abs(component))
                break
        assert np.linalg.norm(h @ vector - energy * vector) <= spectrum.RESIDUAL_TOLERANCE * scale
        spinors.append(vector)
    return [float(values[k]) for k in select], spinors


def test_spinors_equal_the_column_by_column_reference(all_catalog_sets, dirac_pauli):
    rng = random.Random(60607)
    conjugates = [random_exact_unitary(rng, steps=30).conjugate_set(dirac_pauli) for _ in range(3)]
    for mset in all_catalog_sets + conjugates:
        for _ in range(200):
            sample = MomentumSample(tuple(rng.uniform(-3, 3) for _ in range(3)), rng.uniform(0.0, 2.0))
            selected, expected = reference_spinors(mset, sample)
            basis = positive_energy_spinors(mset, sample)
            h = hamiltonian_at(mset, sample)
            assert len(basis.vectors) == 2 and basis.energy == sample.energy
            for u, value, v in zip(basis.vectors, selected, expected):
                # the same eigenvalue: the Rayleigh quotient of u is the one the reference selected
                assert abs(np.vdot(u, h @ u).real - value) <= 1e-12 * sample.scale
                assert np.max(np.abs(u - v)) <= 1e-12
                first = next(c for c in u.tolist() if abs(c) > 1e-12)
                assert first.imag == 0.0 and first.real > 0.0
                assert type(u) is np.ndarray and u.dtype == np.complex128
                assert u.shape == (mset.n,) and u.flags.c_contiguous


# ---------------------------------------------------------------------------
# the batched lane: one conversion per set, chunked eigh
# ---------------------------------------------------------------------------


def fresh_copy(mset):
    """An equal set with no complex stack built yet."""
    return mset._replace()


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
    assert "_complex_stack" not in MatrixSet._fields


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


# ---------------------------------------------------------------------------
# flags per chunk, the norm-aware residual bound
# ---------------------------------------------------------------------------


def reference_defect(values):
    """The per-row formula: largest |e_k + e_(n-1-k)| and, for n = 4, |e1 - e2|, |e3 - e4|."""
    n = len(values)
    defect = max(abs(values[k] + values[n - 1 - k]) for k in range(n))
    if n == 4:
        defect = max(defect, abs(values[0] - values[1]), abs(values[2] - values[3]))
    return defect


def test_chunk_defects_flag_the_rows_of_the_per_row_formula():
    rng = random.Random(41)
    above = np.nextafter(DEGENERACY_FLAG, 1.0)
    on_threshold = {
        2: [[0.0, DEGENERACY_FLAG], [-DEGENERACY_FLAG, 0.0], [0.0, above]],
        3: [[-1.0, 0.0, 1.0], [0.0, 0.0, DEGENERACY_FLAG], [-above, 0.0, 0.0]],
        4: [
            [-DEGENERACY_FLAG, 0.0, 0.0, DEGENERACY_FLAG],  # pair gaps on the threshold
            [-DEGENERACY_FLAG, -DEGENERACY_FLAG, 0.0, 0.0],  # symmetry defects on the threshold
            [-above, 0.0, 0.0, above],
            [-1.0, -1.0, 1.0, 1.0],
        ],
    }
    for n in (2, 3, 4):
        rows = [list(row) for row in on_threshold[n]]
        for _ in range(300):
            # near-Dirac rows around the threshold, and arbitrary ones
            e = rng.uniform(0.0, 10.0)
            row = sorted([-e, e] * (n // 2) + [0.0] * (n % 2))
            row = sorted(v + rng.choice((0.0, 1e-7, 1e-6, 2e-6)) * rng.uniform(-1, 1) for v in row)
            rows.append(row if rng.random() < 0.8 else sorted(rng.uniform(-1e3, 1e3) for _ in range(n)))
        defects = spectrum._defects(np.array(rows))
        assert defects.tolist() == [reference_defect(row) for row in rows]
        flagged = np.flatnonzero(defects > DEGENERACY_FLAG).tolist()
        expected = [k for k, row in enumerate(rows) if reference_defect(row) > DEGENERACY_FLAG]
        assert flagged == expected
        assert 0 < len(expected) < len(rows)
    four = spectrum._defects(np.array(on_threshold[4])).tolist()
    assert four == [DEGENERACY_FLAG, DEGENERACY_FLAG, above, 0.0]


def flag_scale(mset, sample):
    """1 + |p|*a + m*b, with a and b the largest entry moduli of the alphas and of beta, each at least 1."""
    a, b = (
        max(1.0, *(abs(complex(x.re, x.im)) for m in matrices for row in m for x in row))
        for matrices in (mset.alphas, (mset.beta,))
    )
    p1, p2, p3 = sample.p
    return 1.0 + math.sqrt(p1**2 + p2**2 + p3**2) * a + sample.m * b


def test_sweep_flags_equal_the_per_row_formula(dirac_pauli, rng, monkeypatch):
    grid = grid_samples(-2.0, 2.0, 4, 0.5)
    sets = [perturbed_set(rng, dirac_pauli) for _ in range(3)]
    sets += [random_hermitian_set(rng, n=n) for n in (2, 3, 4)]
    sets += [scaled(perturbed_set(rng, dirac_pauli), 3, 5)]  # a and b above 1
    for mset in sets:
        result = sweep(mset, grid)
        assert result.flagged == tuple(
            k
            for k, row in enumerate(result.rows)
            if reference_defect(row.eigenvalues) > DEGENERACY_FLAG * flag_scale(mset, row.sample)
        )
        monkeypatch.setattr(spectrum, "_CHUNK", 7)  # flags of later chunks keep their grid indices
        assert sweep(mset, grid) == result
        monkeypatch.undo()
    # h = beta = diag(0, 0, 0, d) at m = 1: the eigenvalues are the entries, the defect is d itself,
    # and the scale is 1 + m*b = 2, so the threshold is 2e-6
    zero = ((ComplexRational(0),) * 4,) * 4
    threshold = DEGENERACY_FLAG * 2.0
    for d, flagged in ((Fraction(threshold), ()), (Fraction(np.nextafter(threshold, 1.0)), (0,))):
        beta = tuple(tuple(ComplexRational(d if i == j == 3 else 0) for j in range(4)) for i in range(4))
        result = sweep(MatrixSet(4, (zero, zero, zero), beta), [MomentumSample((0.0, 0.0, 0.0), 1.0)])
        assert result.rows[0].eigenvalues == (0.0, 0.0, 0.0, float(d))
        assert result.flagged == flagged


def test_sweep_flags_scale_with_the_momentum(all_catalog_sets, dirac_pauli):
    # rounding grows with |p|: valid sets stay unflagged far out, where an absolute 1e-6 would flag them
    for scale in (1e3, 1e6, 1e9, 1e11):
        grid = grid_samples(-scale, scale, 5, 1.0)
        for mset in all_catalog_sets:
            assert sweep(mset, grid).flagged == ()
    # a broken alpha splits the doublets by about |p|/10, far above 1e-6 * (1 + |p|*a + m*b)
    alpha1 = [list(row) for row in dirac_pauli.alphas[0]]
    alpha1[0][0] += ComplexRational(Fraction(1, 10))
    broken = MatrixSet(4, (tuple(map(tuple, alpha1)), *dirac_pauli.alphas[1:]), dirac_pauli.beta)
    grid = grid_samples(-1e9, 1e9, 5, 1.0)
    result = sweep(broken, grid)
    assert len(result.flagged) > len(grid) // 2
    row = result.rows[result.flagged[0]]
    assert reference_defect(row.eigenvalues) > 1e3 * DEGENERACY_FLAG * flag_scale(broken, row.sample)


def with_beta_entry(mset, value):
    """`mset` with beta[0][0] replaced by `value`."""
    beta = [list(row) for row in mset.beta]
    beta[0][0] = ComplexRational(value)
    return MatrixSet(mset.n, mset.alphas, tuple(tuple(row) for row in beta))


def scaled(mset, alpha_factor, beta_factor):
    """`mset` with its alphas and its beta multiplied by the given factors."""
    alphas = tuple(tuple(tuple(x * alpha_factor for x in row) for row in a) for a in mset.alphas)
    beta = tuple(tuple(x * beta_factor for x in row) for row in mset.beta)
    return MatrixSet(mset.n, alphas, beta)


def test_entry_norms_keep_the_unit_bound_and_grow_linearly(all_catalog_sets, dirac_pauli, rng):
    # exactly 1.0 on the catalog sets, so the bound there is 1e-9 * (1 + |p| + m) to the bit
    for mset in all_catalog_sets:
        assert spectrum._entry_norms(fresh_copy(mset)._complex_stack) == (1.0, 1.0)
    for mset in [random_hermitian_set(rng) for _ in range(5)] + [perturbed_set(rng, dirac_pauli)]:
        assert min(spectrum._entry_norms(mset._complex_stack)) >= 1.0
    halved = scaled(dirac_pauli, Fraction(1, 2), Fraction(1, 2))
    assert spectrum._entry_norms(halved._complex_stack) == (1.0, 1.0)
    for t in (10, 10**4, 10**8, 10**12):
        assert spectrum._entry_norms(with_beta_entry(dirac_pauli, t)._complex_stack) == (1.0, float(t))
        assert spectrum._entry_norms(scaled(dirac_pauli, t, 1)._complex_stack) == (float(t), 1.0)


def test_large_entries_pass_the_residual_check(dirac_pauli):
    sample = MomentumSample((0.3, 0.7, -1.1), 1.0)
    # beta = diag(10^8, 1, -1, -1) had a residual of 1.5e-8 against a bound of 3.3e-9 here
    values = eigensolve(with_beta_entry(dirac_pauli, 10**8), sample).eigenvalues
    assert values[-1] == pytest.approx(1e8, rel=1e-12)
    # alphas scaled by 10^8: the |p| term of the bound grows with them
    values = eigensolve(scaled(dirac_pauli, 10**8, 1), sample).eigenvalues
    assert values[-1] == pytest.approx(1e8 * math.sqrt(0.3**2 + 0.7**2 + 1.1**2), rel=1e-12)


def test_an_eigenpair_off_by_a_millionth_of_the_norm_is_rejected(dirac_pauli, monkeypatch):
    eigh = np.linalg.eigh

    def shifted(h):
        values, vectors = eigh(h)
        values = values.copy()
        values[..., 0] += 1e-6 * np.linalg.norm(h, ord=2, axis=(-2, -1))
        return values, vectors

    cases = [
        (dirac_pauli, MomentumSample((0.3, 0.7, -1.1), 1.0)),
        (dirac_pauli, MomentumSample((1e4, -3e3, 0.0), 0.0)),
        (with_beta_entry(dirac_pauli, 10**8), MomentumSample((0.3, 0.7, -1.1), 1.0)),
        (with_beta_entry(dirac_pauli, 10**12), MomentumSample((1e3, 0.0, 2.0), 5.0)),
        # m = 0: beta's large entry is not in h, so it must not loosen the |p| term
        (with_beta_entry(dirac_pauli, 10**8), MomentumSample((0.3, 0.7, -1.1), 0.0)),
        (scaled(dirac_pauli, 10**8, 1), MomentumSample((0.0, 0.0, 0.0), 1.0)),
    ]
    for mset, sample in cases:
        eigensolve(mset, sample)  # the true eigenpairs pass
    monkeypatch.setattr(np.linalg, "eigh", shifted)
    for mset, sample in cases:
        with pytest.raises(RuntimeError, match="eigensolver residual"):
            eigensolve(mset, sample)
        with pytest.raises(RuntimeError, match="eigensolver residual"):
            sweep(mset, [MomentumSample((0.0, 0.0, 0.0), 1.0), sample])


def test_an_infinite_residual_is_rejected_under_an_infinite_bound(dirac_pauli, monkeypatch):
    # the bound is infinite when m * b (or |p| * a) overflows; an infinite residual must still fail
    eigh = np.linalg.eigh

    def overflowing(h):
        values, vectors = eigh(h)
        values = values.copy()
        values[..., -1] = 1e308
        return values, 10 * vectors  # 10 * 1e308 overflows: an infinite residual, no NaN

    monkeypatch.setattr(spectrum, "EIGENVALUE_TOLERANCE", math.inf)
    eigensolve(dirac_pauli, MomentumSample((0.3, 0.7, -1.1), 1.0))  # passes under the infinite bound
    monkeypatch.setattr(np.linalg, "eigh", overflowing)
    with pytest.raises(RuntimeError, match="eigensolver residual inf out of tolerance"):
        eigensolve(dirac_pauli, MomentumSample((0.3, 0.7, -1.1), 1.0))
