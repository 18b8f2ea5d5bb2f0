import contextlib
import importlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import diracver
from diracver import cli, clifford, sampling, spectrum, symmat
from diracver.algebra import ComplexRational
from diracver.cli import (
    MatrixFileError,
    UsageError,
    main,
    parse_grid_spec,
    parse_matrix_file,
    serialize_matrix_set,
)
from diracver.clifford import CATALOG_NAMES, catalog
from diracver.sampling import perturbed_set
from diracver.symmat import HermiticityError, MatrixSet

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diracver", *args], capture_output=True, text=True
    )


def assert_usage_error(result):
    """Exit code 3 with one `error:` line on stderr and no traceback."""
    assert result.returncode == 3
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


@pytest.fixture
def dirac_pauli_file(tmp_path):
    path = tmp_path / "dirac-pauli.json"
    path.write_text(serialize_matrix_set(catalog("dirac-pauli")))
    return path


@pytest.fixture
def perturbed_file(tmp_path):
    mset = perturbed_set(random.Random(3), catalog("dirac-pauli"))
    path = tmp_path / "perturbed.json"
    path.write_text(serialize_matrix_set(mset))
    return path


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_forced_coefficients_golden():
    result = run_cli("solve", "--n", "4", "--multiplicity", "2")
    assert result.returncode == 0
    assert result.stdout == "c3 = 0\nc2 = -2*s\nc1 = 0\nc0 = s^2\n"
    assert result.stderr == ""


def test_solve_certificates():
    result = run_cli("solve", "--n", "3", "--multiplicity", "2")
    assert result.returncode == 2
    assert "forced: 2*s = 0 for all momenta" in result.stdout
    assert "E_p = 0 for all momenta" in result.stdout

    result = run_cli("solve", "--n", "2", "--multiplicity", "2")
    assert result.returncode == 2
    assert "forced: 2 = 0 for all momenta" in result.stdout


def test_solve_usage_errors():
    assert run_cli("solve", "--n", "4").returncode == 3
    assert run_cli("solve", "--n", "9", "--multiplicity", "1").returncode == 3
    assert run_cli("solve", "--n", "3", "--multiplicity", "4").returncode == 3


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------


def test_catalog_file_round_trip(tmp_path):
    for name in CATALOG_NAMES:
        path = tmp_path / f"{name}.json"
        result = run_cli("catalog", name, "--out", str(path))
        assert result.returncode == 0
        assert parse_matrix_file(path) == catalog(name)


def test_catalog_stdout_is_json():
    result = run_cli("catalog", "weyl-chiral")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["n"] == 4
    assert payload["label"] == "weyl-chiral"
    assert payload["beta"][0][2] == ["1", "0"]


def test_parse_accepts_hermitian_pair(tmp_path):
    # off-diagonal entries 1/2 - 1/3 i and 1/2 + 1/3 i form a Hermitian pair
    matrix = [
        [["0", "0"], ["1/2", "-1/3"]],
        [["1/2", "1/3"], ["0", "0"]],
    ]
    payload = {
        "n": 2,
        "alpha": [matrix, matrix, matrix],
        "beta": [[["1", "0"], ["0", "0"]], [["0", "0"], ["-1", "0"]]],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    mset = parse_matrix_file(path)
    assert mset.alphas[0][0][1].im == -mset.alphas[0][1][0].im


def test_parse_rejects_float_literal(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "alpha": [[[["1.5", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]] * 3,
                "beta": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            }
        )
    )
    with pytest.raises(MatrixFileError, match="not a rational literal") as err:
        parse_matrix_file(path)
    assert "alpha[0][0][0].re" in str(err.value)
    assert run_cli("verify", str(path)).returncode == 3


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 4,')
    with pytest.raises(MatrixFileError, match="line"):
        parse_matrix_file(path)
    result = run_cli("verify", str(path))
    assert result.returncode == 3
    assert "error:" in result.stderr


def test_parse_rejects_overlong_literal(tmp_path):
    zero2 = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    beta = [[["1" * 5000, "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "alpha": [zero2] * 3, "beta": beta}))
    with pytest.raises(MatrixFileError, match="exceeds") as err:
        parse_matrix_file(path)
    assert "beta[0][0].re" in str(err.value)
    assert_usage_error(run_cli("verify", str(path)))
    # one character over the cap of 1000
    beta[0][0][0] = "0"
    for literal in ("9" * 1001, "1/" + "7" * 999, "-" + "9" * 1000):
        beta[1][1][1] = literal
        path.write_text(json.dumps({"n": 2, "alpha": [zero2] * 3, "beta": beta}))
        with pytest.raises(MatrixFileError, match="^rational literal of 1001 characters exceeds 1000 ") as err:
            parse_matrix_file(path)
        assert err.value.location == "beta[1][1].im"


def test_parse_caps_a_json_integer_at_the_literal_length(tmp_path):
    path = tmp_path / "n.json"
    path.write_text('{"n": 1' + "0" * 1000 + "}")
    with pytest.raises(MatrixFileError, match="^integer literal of 1001 characters exceeds 1000$"):
        parse_matrix_file(path)
    path.write_text('{"n": 1' + "0" * 999 + "}")
    with pytest.raises(MatrixFileError, match="^n must be 2, 3, or 4"):
        parse_matrix_file(path)
    # 5001 digits: past Python's limit of 4300 digits for converting text to an int
    path.write_text('{"n": 1' + "0" * 5000 + "}")
    assert_usage_error(run_cli("verify", str(path)))


@pytest.mark.parametrize("label", ["\ud800", "two\nlines"], ids=["lone-surrogate", "newline"])
def test_a_label_that_cannot_be_printed_is_a_parse_error(label, tmp_path):
    payload = json.loads(serialize_matrix_set(catalog("dirac-pauli")))
    path = tmp_path / "label.json"
    path.write_text(json.dumps({**payload, "label": "Dirac\u2013Pauli \u03c8"}))
    assert parse_matrix_file(path).label == "Dirac\u2013Pauli \u03c8"
    path.write_text(json.dumps({**payload, "label": label}))
    with pytest.raises(MatrixFileError, match="label must be printable") as err:
        parse_matrix_file(path)
    assert err.value.location == "label"
    # fresh processes, each with a real stdout that a lone surrogate cannot be encoded to
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    for argv in (["verify"], ["derive"], ["spectrum", "--mass", "1", "--grid", "lin:0:0:1", "--out", str(out)]):
        assert_usage_error(run_cli(argv[0], str(path), *argv[1:]))
    assert out.read_text() == "kept\n"


def test_parse_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 4, "label": "caf\xe9"}')
    with pytest.raises(MatrixFileError, match="not UTF-8") as err:
        parse_matrix_file(path)
    assert err.value.location == "byte 22"
    assert_usage_error(run_cli("verify", str(path)))


def test_parse_caps_the_file_size_before_reading_it_all(tmp_path):
    cap = 1 << 20  # the 1 MiB of README "Matrix-set files"
    text = serialize_matrix_set(catalog("dirac-pauli")).encode()
    padded = tmp_path / "padded.json"
    padded.write_bytes(text + b" " * (cap - len(text)))
    assert padded.stat().st_size == cap
    assert parse_matrix_file(padded) == catalog("dirac-pauli")
    assert run_cli("verify", str(padded)).returncode == 0

    over = tmp_path / "over.json"
    over.write_bytes(text + b" " * (cap + 1 - len(text)))
    out = tmp_path / "s.csv"
    for path in (str(over), "/dev/zero"):  # /dev/zero never ends
        with pytest.raises(MatrixFileError, match=f"^{path} is larger than {cap} bytes$"):
            parse_matrix_file(path)
        assert_usage_error(run_cli("verify", path))
        assert_usage_error(run_cli("derive", path))
        assert_usage_error(run_cli("spectrum", path, "--mass", "1", "--grid", "lin:-1:1:2", "--out", str(out)))
    assert not out.exists()


def test_parse_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(MatrixFileError, match="nested too deeply"):
        parse_matrix_file(path)
    assert_usage_error(run_cli("verify", str(path)))


def _odd(k, digits):
    """The k-th odd integer with `digits` digits."""
    return 10 ** (digits - 1) + 2 * k + 1


def _diagonal(values, n=4):
    return [[[values[i] if i == j else "0", "0"] for j in range(n)] for i in range(n)]


def _hermitian_of_reciprocals(start, digits):
    """A 4x4 Hermitian matrix whose 16 real parameters are 1/q for distinct odd q."""
    qs = iter(_odd(k, digits) for k in range(start, start + 16))
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        rows[i][i] = [f"1/{next(qs)}", "0"]
        for j in range(i + 1, 4):
            re_part, im_part = f"1/{next(qs)}", next(qs)
            rows[i][j] = [re_part, f"1/{im_part}"]
            rows[j][i] = [re_part, f"-1/{im_part}"]
    return rows


def test_verify_and_derive_reject_sets_whose_reports_would_overflow_int_printing(tmp_path):
    # each literal is under the length limit, but the reports would print
    # integers beyond Python's default limit of 4300 digits
    zero = _diagonal(["0"] * 4)
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps({
        "n": 4,
        "alpha": [_diagonal([f"1/{_odd(k, 998)}" for k in range(4, 8)]), zero, zero],
        "beta": _diagonal([f"1/{_odd(k, 998)}" for k in range(4)]),
    }))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({
        "n": 4,
        "alpha": [_hermitian_of_reciprocals(16 * k, 690) for k in range(3)],
        "beta": _hermitian_of_reciprocals(48, 690),
    }))
    for path in (diagonal, full):
        with pytest.raises(MatrixFileError, match="more than 1000 digits"):
            parse_matrix_file(path)
        for command in ("verify", "derive"):
            result = run_cli(command, str(path))
            assert_usage_error(result)
            assert "entries too large" in result.stderr and "Traceback" not in result.stderr


def test_parse_accepts_a_scale_of_1000_digits_and_rejects_1001(tmp_path):
    def parsed(beta_entries):
        path = tmp_path / "scale.json"
        zero = _diagonal(["0"] * 2, n=2)
        path.write_text(json.dumps({"n": 2, "alpha": [zero] * 3, "beta": _diagonal(beta_entries, n=2)}))
        return parse_matrix_file(path)

    q = _odd(0, 500)
    # the scale is D * max(1, x): D = lcm of the denominators, x the largest part;
    # 10^500 * q = 10^999 + 10^500 has 1000 digits, 10^501 * q has 1001
    assert parsed(["9" * 1000, "0"]).beta[0][0].re == 10**1000 - 1
    assert parsed([f"1/{q}", f"1/{q + 2}"]).beta[1][1].re.denominator == q + 2
    assert parsed([str(10**500), f"1/{q}"]).beta[0][0].re == 10**500
    wider = _odd(0, 501)
    # the last: D = 10^500 and x = 10^500, a scale of exactly 10^1000
    for entries in ([str(10**501), f"1/{q}"], [f"1/{wider}", f"1/{wider + 2}"], [str(10**500), f"1/{10**500}"]):
        with pytest.raises(MatrixFileError, match="entries too large"):
            parsed(entries)


def test_scale_counts_imaginary_parts(tmp_path):
    def parsed(im):
        path = tmp_path / "scale.json"
        zero = _diagonal(["0"] * 2, n=2)
        beta = [[["0", "0"], [f"1/{q}", im]], [[f"1/{q}", f"-{im}"], ["0", "0"]]]
        path.write_text(json.dumps({"n": 2, "alpha": [zero] * 3, "beta": beta}))
        return parse_matrix_file(path)

    q = _odd(0, 500)
    # D = q and x = the imaginary part: 10^500 * q has 1000 digits, 10^501 * q has 1001
    assert parsed(str(10**500)).beta[0][1].im == 10**500
    with pytest.raises(MatrixFileError, match="entries too large"):
        parsed(str(10**501))


def _fraction_built(data):
    """The set of a parsed JSON payload, every entry built as ComplexRational(Fraction, Fraction)."""

    def matrix(rows):
        return tuple(tuple(ComplexRational(Fraction(re), Fraction(im)) for re, im in row) for row in rows)

    return MatrixSet(data["n"], [matrix(a) for a in data["alpha"]], matrix(data["beta"]), data.get("label", ""))


def _raw_entries(mset):
    return [(x._a, x._b, x._d) for _, matrix in mset.matrices() for row in matrix for x in row]


@pytest.mark.parametrize("path", sorted(GOLDEN_INPUTS.glob("*.json")), ids=lambda path: path.stem)
def test_parsed_golden_inputs_equal_fraction_built_sets(path):
    if path.stem == "not-hermitian":  # both ways of building it reject the same pair
        with pytest.raises(HermiticityError) as err:
            _fraction_built(json.loads(path.read_text()))
        with pytest.raises(MatrixFileError) as parsed:
            parse_matrix_file(path)
        assert str(parsed.value) == f"{err.value} (at {err.value.matrix_name})" == (
            "alpha2 is not Hermitian at entries (0,3)/(3,0) (at alpha2)"
        )
        return
    mset = parse_matrix_file(path)
    reference = _fraction_built(json.loads(path.read_text()))
    assert mset == reference
    assert _raw_entries(mset) == _raw_entries(reference)


@pytest.mark.parametrize("literal", ["-0", "007/3", "0/5", "-007/42", "9" * 1000, "-" + "9" * 999, "1/" + "7" * 998])
def test_parsed_edge_literals_equal_fraction_built_sets(tmp_path, literal):
    zero = _diagonal(["0"] * 2, n=2)
    # the literal as a diagonal entry and as the real part of an off-diagonal
    # pair; the pair's imaginary parts are the literal negated and the literal
    # where that stays within the length limit, else zero
    im = "-" + literal if len(literal) < 1000 and not literal.startswith("-") else "0"
    mirror = im[1:] if im.startswith("-") else "-" + im
    beta = [[[literal, "-0"], [literal, im]], [[literal, mirror], ["0/5", "0"]]]
    payload = {"n": 2, "alpha": [zero] * 3, "beta": beta}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(payload))
    mset = parse_matrix_file(path)
    reference = _fraction_built(payload)
    assert mset == reference
    assert _raw_entries(mset) == _raw_entries(reference)


def test_parse_rejects_structural_problems(tmp_path):
    zero2 = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]

    path = tmp_path / "wrong-count.json"
    path.write_text(json.dumps({"n": 2, "alpha": [zero2, zero2], "beta": zero2}))
    with pytest.raises(MatrixFileError, match="3 alpha"):
        parse_matrix_file(path)

    path = tmp_path / "not-square.json"
    payload = {"n": 2, "alpha": [zero2, zero2, [[["0", "0"]]]], "beta": zero2}
    path.write_text(json.dumps(payload))
    with pytest.raises(MatrixFileError, match="rows"):
        parse_matrix_file(path)

    path = tmp_path / "not-hermitian.json"
    skew = [[["0", "0"], ["1", "0"]], [["2", "0"], ["0", "0"]]]
    path.write_text(json.dumps({"n": 2, "alpha": [skew, zero2, zero2], "beta": zero2}))
    with pytest.raises(MatrixFileError, match="not Hermitian"):
        parse_matrix_file(path)
    assert run_cli("verify", str(path)).returncode == 3

    assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 3


# ---------------------------------------------------------------------------
# verify and derive
# ---------------------------------------------------------------------------


def test_verify_valid_and_perturbed(dirac_pauli_file, perturbed_file):
    good = run_cli("verify", str(dirac_pauli_file))
    assert good.returncode == 0
    assert "verdict: PASS" in good.stdout

    bad = run_cli("verify", str(perturbed_file))
    assert bad.returncode == 1
    assert "verdict: FAIL" in bad.stdout


def test_verify_multiplicity_bounds(dirac_pauli_file):
    assert run_cli("verify", str(dirac_pauli_file), "--multiplicity", "1").returncode == 0
    assert run_cli("verify", str(dirac_pauli_file), "--multiplicity", "5").returncode == 3


@pytest.mark.parametrize(
    "fixture, verdicts",
    [
        ("dirac_pauli_file", "passed but the anticommutation check failed"),
        ("perturbed_file", "failed but the anticommutation check passed"),
    ],
    ids=["dirac-pauli", "perturbed"],
)
def test_verify_fails_loudly_when_the_two_verdicts_disagree(fixture, verdicts, request, monkeypatch, capsys):
    honest = clifford.check_anticommutation

    def flipped(mset):
        report = honest(mset)
        return report._replace(passed=not report.passed)

    # `audit` looks the check up on `clifford`
    monkeypatch.setattr(clifford, "check_anticommutation", flipped)
    path = str(request.getfixturevalue(fixture))
    runs = (
        lambda: main(["verify", path]),
        lambda: main(["derive", path]),
        lambda: clifford.audit(parse_matrix_file(path), 2),
    )
    for run in runs:
        with pytest.raises(RuntimeError) as err:
            run()
        assert str(err.value) == f"internal error: the multiplicity-2 dispersion check {verdicts}"
        assert capsys.readouterr().out == ""
    # other multiplicities have no anticommutation counterpart to agree with
    assert main(["verify", path, "--multiplicity", "1"]) in (0, 1)


def test_verify_and_derive_run_each_check_once_and_no_equivalence_audit(dirac_pauli_file, monkeypatch, capsys):
    calls = []

    def counted(name, check):
        def run(*args):
            calls.append(name)
            return check(*args)

        return run

    def no_audit(mset):
        raise AssertionError("equivalence_audit was called")

    monkeypatch.setattr(clifford, "check_dispersion", counted("dispersion", clifford.check_dispersion))
    monkeypatch.setattr(clifford, "check_anticommutation", counted("anticommutation", clifford.check_anticommutation))
    monkeypatch.setattr(clifford, "equivalence_audit", no_audit)
    for command in ("verify", "derive"):
        assert main([command, str(dirac_pauli_file)]) == 0
        assert calls == ["dispersion", "anticommutation"]
        calls.clear()
    # the equivalence experiment audits its 203 sets the same way
    assert runpy.run_path(str(SCRIPTS / "equivalence_experiment.py"))["main"]() == 0
    assert calls == ["dispersion", "anticommutation"] * 203
    capsys.readouterr()


def test_a_set_is_cleared_once_from_parsing_to_the_last_audit_stage(dirac_pauli_file, monkeypatch):
    calls = []
    cleared = symmat._cleared

    def counted(*matrices):
        calls.append(len(matrices))
        return cleared(*matrices)

    for module in (symmat, clifford, sampling):
        monkeypatch.setattr(module, "_cleared", counted, raising=False)
    record = clifford.audit(parse_matrix_file(dirac_pauli_file), 2)
    assert record.structure.passed
    assert calls == [4]


@pytest.mark.parametrize("name", ["dirac-pauli", "weyl-chiral", "conjugate", "perturbed"])
def test_an_audit_leaves_the_kept_rows_as_they_were(name):
    if name == "perturbed":
        mset = perturbed_set(random.Random(5), catalog("weyl-chiral"), entries=3)
    elif name in CATALOG_NAMES:
        mset = catalog(name)
    else:
        mset = parse_matrix_file(GOLDEN_INPUTS / f"{name}.json")
    rows, denom = mset._gi
    clifford.audit(mset, 2)
    assert mset._gi == symmat._cleared(*mset.alphas, mset.beta)
    assert mset._gi[0] is rows and mset._gi[1] == denom


def test_a_skipped_section_neither_passes_nor_fails_a_report(capsys):
    # no n = 2 or 3 set passes the anticommutation section, so no command shows this rule on its own
    assert cli._print_report("header", [("[a]", ["x"], True), ("[b]", ["skipped"], None)]) == 0
    assert capsys.readouterr().out == "header\n\n[a]\n  x\n  result: PASS\n\n[b]\n  skipped\n\nverdict: PASS\n"
    assert cli._print_report("header", [("[a]", [], False), ("[b]", [], None)]) == 1
    assert capsys.readouterr().out.endswith("  result: FAIL\n\n[b]\n\nverdict: FAIL\n")


# commands that write their result to stdout, one per kind of output
_WRITING_STDOUT = pytest.mark.parametrize(
    "argv",
    [["verify", "DIRAC_PAULI"], ["solve", "--n", "4", "--multiplicity", "2"], ["catalog", "majorana"]],
    ids=["verify", "solve", "catalog"],
)


@_WRITING_STDOUT
def test_a_closed_stdout_is_a_failed_write(argv, dirac_pauli_file):
    argv = [str(dirac_pauli_file) if arg == "DIRAC_PAULI" else arg for arg in argv]
    read, write = os.pipe()
    os.close(read)  # closed before the child starts, so its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diracver", *argv], stdout=write, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write)
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


@_WRITING_STDOUT
def test_a_stdout_closed_at_start_is_a_failed_write(argv, dirac_pauli_file):
    argv = [str(dirac_pauli_file) if arg == "DIRAC_PAULI" else arg for arg in argv]
    # fd 1 closed in the child before exec, as `>&-` does: Python starts with sys.stdout None
    proc = subprocess.run(
        [sys.executable, "-m", "diracver", *argv], stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1)
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write stdout: Bad file descriptor\n"


def test_a_label_the_output_encoding_cannot_show_is_escaped(tmp_path):
    path = tmp_path / "cafe.json"
    data = json.loads(serialize_matrix_set(catalog("dirac-pauli")))
    path.write_text(json.dumps({**data, "label": "caf\u00e9"}, ensure_ascii=False), encoding="utf-8")
    spectrum = ["spectrum", str(path), "--mass", "1", "--grid", "lin:0:0:1", "--out", str(tmp_path / "s.csv")]
    for argv, header in (
        (["verify", str(path)], "matrix set: caf{} (n = 4)"),
        (spectrum, "spectrum sweep: caf{} (n = 4), mass = 1, samples = 1"),
    ):
        for encoding, shown in (("ascii", "\\xe9"), ("utf-8", "\u00e9")):
            env = {**os.environ, "PYTHONIOENCODING": encoding}
            proc = subprocess.run(
                [sys.executable, "-m", "diracver", *argv], capture_output=True, env=env, text=True, encoding="utf-8"
            )
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout.splitlines()[0] == header.format(shown)


def test_derive_walkthrough_order(dirac_pauli_file):
    result = run_cli("derive", str(dirac_pauli_file))
    assert result.returncode == 0
    positions = [
        result.stdout.index(tag)
        for tag in (
            "[trace]",
            "[det]",
            "[beta-spectrum]",
            "[canonical-form]",
            "[alpha-structure]",
            "[anticommutators]",
        )
    ]
    assert positions == sorted(positions)
    assert "verdict: PASS" in result.stdout


def test_derive_requires_dimension_four(tmp_path, pauli):
    path = tmp_path / "pauli.json"
    path.write_text(serialize_matrix_set(pauli))
    assert run_cli("derive", str(path)).returncode == 3


def test_derive_reports_failures(perturbed_file):
    result = run_cli("derive", str(perturbed_file))
    assert result.returncode == 1
    assert "verdict: FAIL" in result.stdout


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_cli(dirac_pauli_file, perturbed_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:-2:2:3", "--out", str(out)
    )
    assert result.returncode == 0
    assert "flagged rows: 0" in result.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "px,py,pz,m,e1,e2,e3,e4"
    assert len(lines) == 28

    out_bad = tmp_path / "sweep-bad.csv"
    result = run_cli(
        "spectrum", str(perturbed_file), "--mass", "1", "--grid", "lin:-2:2:3", "--out", str(out_bad)
    )
    assert result.returncode == 1
    assert "flagged rows: 0" not in result.stdout


def test_spectrum_rejects_non_finite_mass(dirac_pauli_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "spectrum", str(dirac_pauli_file), "--mass", "nan", "--grid", "lin:-2:2:3", "--out", str(out)
    )
    assert_usage_error(result)
    assert not out.exists()


def test_spectrum_rejects_non_finite_grid_bound(dirac_pauli_file, tmp_path):
    for axis in ("lin:-inf:2:3", "lin:-1e308:1e308:3"):
        with pytest.raises(UsageError, match="finite"):
            parse_grid_spec(axis, 1.0)
    result = run_cli(
        "spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:0:inf:3", "--out", str(tmp_path / "o.csv")
    )
    assert_usage_error(result)


def test_spectrum_unwritable_out(dirac_pauli_file, tmp_path):
    out = tmp_path / "missing" / "sweep.csv"
    result = run_cli("spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:-2:2:3", "--out", str(out))
    assert_usage_error(result)
    assert "cannot write" in result.stderr


def test_spectrum_opens_out_before_the_sweep(dirac_pauli_file, tmp_path, monkeypatch, capsys):
    def no_sweep(*args):
        raise AssertionError("sweep ran before --out was opened")

    monkeypatch.setattr(spectrum, "sweep", no_sweep)
    out = tmp_path / "missing" / "x.csv"
    code = main(["spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:-2:2:3", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_grid_rejects_overflowing_energy(dirac_pauli_file, tmp_path):
    # a huge coordinate, a huge mass, and three squares that overflow only when summed
    for spec, mass in (("lin:1e300:1e300:1", 1.0), ("lin:0:0:1", 1e200), ("lin:1e154:1e154:1", 0.0)):
        with pytest.raises(UsageError, match="overflows"):
            parse_grid_spec(spec, mass)
    assert parse_grid_spec("lin:1e150:1e150:1", 1e150)[0].energy > 0
    out = tmp_path / "o.csv"
    result = run_cli(
        "spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:1e300:1e300:1", "--out", str(out)
    )
    assert_usage_error(result)
    assert not out.exists()


def test_grid_point_cap_is_checked_before_any_allocation(dirac_pauli_file, tmp_path):
    specs = ("lin:0:1:101", "lin:0:1:10000000000000", "lin:0:1:2,lin:0:1:1000001,lin:0:0:1")
    tracemalloc.start()
    try:
        for spec in specs:
            with pytest.raises(UsageError, match="more than 1000000 points"):
                parse_grid_spec(spec, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    out = tmp_path / "o.csv"
    result = run_cli(
        "spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:0:1:10000000000000", "--out", str(out)
    )
    assert_usage_error(result)
    assert not out.exists()


def test_grid_point_cap_is_inclusive(monkeypatch):
    # a small cap, so that no grid of a million points is built
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 8)
    assert len(parse_grid_spec("lin:0:1:2", 1.0)) == 8
    for spec in ("lin:0:1:3,lin:0:1:3,lin:0:0:1", "lin:0:1:9,lin:0:0:1,lin:0:0:1"):
        with pytest.raises(UsageError, match="more than 8 points"):
            parse_grid_spec(spec, 1.0)


def _with_entry(name, matrix, value, path):
    """A catalog set with one diagonal entry of `matrix` replaced, written to `path`."""
    payload = json.loads(serialize_matrix_set(catalog(name)))
    target = payload["beta"] if matrix == "beta" else payload["alpha"][0]
    target[0][0] = [value, "0"]
    path.write_text(json.dumps(payload))
    return path


def test_spectrum_rejects_entries_outside_the_float_lane(tmp_path):
    out = tmp_path / "o.csv"
    path = _with_entry("dirac-pauli", "beta", "1" + "0" * 400, tmp_path / "big.json")
    result = run_cli("spectrum", str(path), "--mass", "1", "--grid", "lin:0:1:2", "--out", str(out))
    assert_usage_error(result)
    assert "beyond the float range" in result.stderr


def test_spectrum_flags_a_set_with_a_large_beta_entry(tmp_path):
    # beta = diag(10^8, 1, -1, -1): the residual bound grows with beta's entries, so
    # the sweep runs; the set is not a Dirac set, and every row breaks the +/- symmetry
    path = _with_entry("dirac-pauli", "beta", "100000000", tmp_path / "big.json")
    out = tmp_path / "o.csv"
    result = run_cli("spectrum", str(path), "--mass", "1", "--grid", "lin:0:1:2", "--out", str(out))
    assert result.returncode == 1 and result.stderr == ""
    assert "flagged rows: 8 at indices 0, 1, 2, 3, 4 (+3 more)\n" in result.stdout
    assert len(out.read_text().splitlines()) == 1 + 8


def test_spectrum_rejects_an_overflowing_hamiltonian(tmp_path):
    # 10^300 * 10^10 overflows h to inf; eigh then returns NaN, which must not pass as a row
    path = _with_entry("dirac-pauli", "beta", "1" + "0" * 300, tmp_path / "huge.json")
    out = tmp_path / "o.csv"
    result = run_cli("spectrum", str(path), "--mass", "1e10", "--grid", "lin:-1:1:2", "--out", str(out))
    assert_usage_error(result)
    assert "eigensolver residual nan out of tolerance" in result.stderr


def test_verify_audits_a_400_digit_alpha_entry_exactly(tmp_path):
    # weyl-chiral's beta has no unit-normalised eigenbasis over Q; its alpha structure is still exact
    path = _with_entry("weyl-chiral", "alpha", "1" + "0" * 400, tmp_path / "big.json")
    # alpha1 + t*E11 with t = 10^400: E11 has the off-diagonal block diag(1/2, 0), orthogonal to alpha1's
    norm = 10**800 // 4 + 2
    for command, line in (
        ("verify", f"alpha1: diagonal blocks vanish = no, norm condition = {norm}"),
        ("derive", f"alpha1: blocks vanish = no, norm = {norm}"),
    ):
        result = run_cli(command, str(path))
        assert result.returncode == 1 and result.stderr == ""
        assert "Traceback" not in result.stdout and "float range" not in result.stdout
        assert f"  {line}\n" in result.stdout


def test_failed_spectrum_keeps_the_old_out_file(tmp_path):
    # the 10^300 beta entry overflows h at mass 1e10: exit 3 after the sweep has started
    path = _with_entry("dirac-pauli", "beta", "1" + "0" * 300, tmp_path / "huge.json")
    out = tmp_path / "out" / "o.csv"
    out.parent.mkdir()
    out.write_bytes(b"earlier,bytes\n1,2\n")
    result = run_cli("spectrum", str(path), "--mass", "1e10", "--grid", "lin:-1:1:2", "--out", str(out))
    assert_usage_error(result)
    assert out.read_bytes() == b"earlier,bytes\n1,2\n"
    assert [p.name for p in out.parent.iterdir()] == ["o.csv"]
    fresh = tmp_path / "out" / "new.csv"
    assert_usage_error(
        run_cli("spectrum", str(path), "--mass", "1e10", "--grid", "lin:-1:1:2", "--out", str(fresh))
    )
    assert not fresh.exists()


def test_spectrum_replaces_the_file_behind_a_symlink(dirac_pauli_file, tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code = main(["spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:-1:1:2", "--out", str(link)])
    assert code == 0
    assert link.is_symlink()
    assert target.read_text().startswith("px,py,pz,m,")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([dirac_pauli_file.name, "link.csv", "target.csv"])


def test_spectrum_writes_a_pipe_directly(dirac_pauli_file):
    # /dev/stdout is the captured pipe: there is no old file to keep and no directory for a temporary one
    result = run_cli("spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:-1:1:2", "--out", "/dev/stdout")
    assert result.returncode == 0 and result.stderr == ""
    lines = result.stdout.splitlines()
    assert lines[0].startswith("px,py,pz,m,") and len(lines) == 1 + 8 + 3
    assert lines[-1] == "csv written: /dev/stdout"


def test_catalog_unwritable_out(tmp_path):
    result = run_cli("catalog", "dirac-pauli", "--out", str(tmp_path / "missing" / "dp.json"))
    assert_usage_error(result)
    assert "cannot write" in result.stderr


def test_an_empty_out_is_an_unwritable_path_for_both_commands(dirac_pauli_file, tmp_path):
    # "" names the working directory, for catalog as for spectrum: nothing goes to stdout
    env = {**os.environ, "PYTHONPATH": str(Path(diracver.__file__).parents[1])}
    for argv in (
        ["catalog", "majorana", "--out", ""],
        ["spectrum", str(dirac_pauli_file), "--mass", "1", "--grid", "lin:-1:1:2", "--out", ""],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "diracver", *argv], capture_output=True, text=True, cwd=tmp_path, env=env
        )
        assert_usage_error(result)
        assert result.stderr == "error: cannot write .: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [dirac_pauli_file.name]


def test_catalog_replaces_an_existing_out(tmp_path, capsys):
    out = tmp_path / "set.json"
    out.write_text("old contents, longer than nothing\n")
    assert main(["catalog", "weyl-chiral", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == serialize_matrix_set(catalog("weyl-chiral"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["set.json"]


def test_a_negative_zero_mass_is_zero(dirac_pauli_file, tmp_path):
    results = []
    for mass in ("-0", "0"):
        out = tmp_path / f"{mass}.csv"
        result = run_cli("spectrum", str(dirac_pauli_file), "--mass", mass, "--grid", "lin:-1:1:2", "--out", str(out))
        assert result.returncode == 0, result.stderr
        results.append((result.stdout.replace(str(out), "OUT"), out.read_bytes()))
    assert results[0] == results[1]
    assert "mass = 0," in results[0][0] and b",-0," not in results[0][1]


def test_grid_spec_parsing():
    samples = parse_grid_spec("lin:-1:1:3", 0.5)
    assert len(samples) == 27
    assert samples[0].p == (-1.0, -1.0, -1.0)
    assert samples[-1].p == (1.0, 1.0, 1.0)
    assert samples[0].m == 0.5

    mixed = parse_grid_spec("lin:0:1:2,lin:0:0:1,lin:-1:0:2", 0.0)
    assert len(mixed) == 4
    assert mixed[0].p == (0.0, 0.0, -1.0)

    assert run_cli("spectrum", "x.json", "--mass", "1", "--grid", "bad", "--out", "o.csv").returncode == 3


# ---------------------------------------------------------------------------
# determinism and exit codes
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical(dirac_pauli_file, tmp_path):
    first = run_cli("verify", str(dirac_pauli_file))
    second = run_cli("verify", str(dirac_pauli_file))
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        run_cli("spectrum", str(dirac_pauli_file), "--mass", "0", "--grid", "lin:-2:2:3", "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_contract(dirac_pauli_file, perturbed_file, tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    assert run_cli("verify", str(dirac_pauli_file)).returncode == 0
    assert run_cli("verify", str(perturbed_file)).returncode == 1
    assert run_cli("solve", "--n", "3", "--multiplicity", "2").returncode == 2
    assert run_cli("verify", str(malformed)).returncode == 3


def test_main_callable_directly(dirac_pauli_file, capsys):
    assert main(["solve", "--n", "2", "--multiplicity", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "c1 = 0\nc0 = -s\n"


# ---------------------------------------------------------------------------
# what a cold command loads
# ---------------------------------------------------------------------------


def _cold_imports(*argv):
    """The modules a fresh ``python -m diracver *argv`` imports, in the order -X importtime logs them."""
    # -S keeps the imports of site's .pth hooks, which are not the package's, out of the log
    src = Path(diracver.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "diracver", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]


def test_a_cold_solve_imports_no_dataclasses_inspect_or_numpy():
    log = _cold_imports("solve", "--n", "4", "--multiplicity", "2")
    assert {"diracver.cli", "diracver.solver"} <= set(log)
    assert [name for name in log if name.split(".")[0] in ("dataclasses", "inspect", "numpy", "json")] == []
    # the solver needs no matrix module
    matrix_modules = ("symmat", "dispersion", "clifford", "sampling", "spectrum")
    assert [name for name in log if name in [f"diracver.{m}" for m in matrix_modules]] == []


@pytest.mark.parametrize("command", ["verify", "derive"])
def test_a_cold_audit_imports_no_spectrum(command):
    log = _cold_imports(command, str(GOLDEN_INPUTS / "weyl-chiral.json"))
    assert {"diracver.symmat", "diracver.dispersion", "diracver.clifford"} <= set(log)
    unused = ("diracver.solver", "diracver.sampling", "diracver.spectrum", "numpy")
    assert [name for name in log if name in unused] == []


def test_a_cold_catalog_imports_no_solver_sampler_spectrum_or_numpy():
    log = _cold_imports("catalog", "majorana")
    assert "diracver.clifford" in log
    unused = ("diracver.solver", "diracver.sampling", "diracver.spectrum", "numpy")
    assert [name for name in log if name in unused] == []


def test_every_exported_name_resolves():
    package = Path(diracver.__file__).parent
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"diracver.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], path.name


def _fresh(script, first):
    """The JSON that ``script`` prints in a new interpreter that runs ``first`` first."""
    src = Path(diracver.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{first}\n" + script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)



@pytest.mark.parametrize(
    "module, forwarded",
    [
        ("cli", ["clifford", "dispersion", "solver", "spectrum", "symmat"]),
        ("dispersion", ["solver"]),
        ("clifford", ["sampling"]),
    ],
    ids=["cli", "dispersion", "clifford"],
)
def test_a_forwarding_module_answers_the_names_of_its_modules(module, forwarded):
    loaded = f"[m for m in {forwarded!r} if f'diracver.{{m}}' in sys.modules]"
    path, after_dunder, raised, after_unknown, answered, bound = _fresh(
        f"path = getattr({module}, '__path__', None)\n"
        f"after_dunder = {loaded}\n"
        "try:\n"
        f"    {module}.no_such_name\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        f"after_unknown = {loaded}\n"
        "import importlib\n"
        "answered, bound = {}, []\n"
        f"for source in reversed({forwarded!r}):\n"
        "    source = importlib.import_module(f'diracver.{source}')\n"
        f"    answered.update((name, getattr({module}, name) is getattr(source, name)) for name in source.__all__)\n"
        f"    bound += [name for name in source.__all__ if name not in vars({module})]\n"
        "print(json.dumps([path, after_dunder, raised, after_unknown, answered, bound]))",
        first=f"from diracver import {module}",
    )
    # a dunder stays unresolved and loads nothing: the import system asks for __path__
    assert path is None and after_dunder == []
    # an unknown name loads every forwarded module, then raises
    assert raised == f"module 'diracver.{module}' has no attribute 'no_such_name'"
    assert after_unknown == forwarded
    # each forwarded name is the object of the first module that lists it, bound on first access
    assert answered and all(answered.values())
    assert bound == []


# which of the modules that cli forwards to are imported, as an expression for _fresh
_CLI_LOADED = (
    "[m for m in ('clifford', 'dispersion', 'solver', 'spectrum', 'symmat') if f'diracver.{m}' in sys.modules]"
)


def test_a_dunder_is_not_resolved_and_loads_nothing():
    path, loaded = _fresh(
        f"print(json.dumps([getattr(cli, '__path__', None), {_CLI_LOADED}]))",
        first="from diracver import cli",
    )
    assert path is None and loaded == []


def test_an_unknown_name_loads_the_lazy_modules_then_raises():
    raised, loaded = _fresh(
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        f"print(json.dumps([raised, {_CLI_LOADED}]))",
        first="from diracver import cli",
    )
    assert raised == "module 'diracver.cli' has no attribute 'no_such_name'"
    assert loaded == ["clifford", "dispersion", "solver", "spectrum", "symmat"]


def test_the_audit_modules_load_the_solver_and_samplers_only_when_asked():
    moved = "[m for m in ('solver', 'sampling') if f'diracver.{m}' in sys.modules]"
    before, after = _fresh(
        f"before = {moved}\n"
        "clifford.random_exact_unitary, dispersion.solve_forced_coefficients\n"
        f"print(json.dumps([before, {moved}]))",
        first="from diracver import clifford, dispersion",
    )
    assert before == []
    assert after == ["solver", "sampling"]


def test_the_catalog_is_built_on_the_first_call():
    built_before, names, built_after = _fresh(
        "before = len(clifford._CATALOG)\n"
        "clifford.catalog('majorana')\n"
        "print(json.dumps([before, clifford.CATALOG_NAMES, list(clifford._CATALOG)]))",
        first="from diracver import clifford",
    )
    assert built_before == 0
    assert names == built_after == ["dirac-pauli", "weyl-chiral", "majorana"]


def test_numpy_loads_on_the_first_numeric_call():
    script = (
        "import json, sys; import diracver.spectrum; before = 'numpy' in sys.modules; "
        "from diracver.clifford import catalog; "
        "diracver.spectrum.sweep(catalog('dirac-pauli'), [diracver.spectrum.MomentumSample((0.0, 0.0, 1.0), 1.0)]); "
        "print(json.dumps([before, 'numpy' in sys.modules]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]


# ---------------------------------------------------------------------------
# fuzzed exit-code contract
# ---------------------------------------------------------------------------


def _safe(text):
    """Keep argparse's -h/--help (and its prefixes, such as --he) out of fuzzed values."""
    return not (text.startswith("-") and "h" in text)


def _mostly(good, bad):
    """Draw from `good` four times in five, so fuzzed runs also get past validation."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 0 else good)


_WORD = st.text(max_size=10).filter(_safe)
_NUMBER = st.one_of(
    st.integers(-3, 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr).filter(_safe),
    st.sampled_from(["1e200", "1e308", "-0", "nan", "inf", "1/2", "", "x"]),
    _WORD,
)
_LITERAL = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/7"])
# 10^400 is an exact literal beyond the float range; 10^8 is a large entry
# that the norm-aware residual bound accepts; 1/(10^998 - 1) has the longest
# accepted length, and with the other drawn literals it gives a set scale of
# exactly 1000 digits, the most accepted
_ODD_LITERAL = st.sampled_from(
    ["1" + "0" * 400, "100000000", "1/" + "9" * 998, "1/0", "0.5", "x", "", None, 3, ["1", "0"]]
)


@st.composite
def _hermitian(draw, n):
    """An n x n Hermitian matrix of real drawn literals."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = [draw(_LITERAL), "0"]
    return rows


@st.composite
def _matrix_file(draw):
    """File bytes: arbitrary, a catalog set (intact or mutated), or a set of drawn literals."""
    kind = draw(st.sampled_from(["bytes", "catalog", "mutated", "drawn", "drawn"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    text = serialize_matrix_set(catalog(draw(st.sampled_from(CATALOG_NAMES)))).encode()
    if kind == "catalog":
        return text
    if kind == "mutated":
        k = draw(st.integers(0, len(text) - 1))
        return text[:k] + draw(st.binary(max_size=3)) + text[k + draw(st.integers(0, 3)):]
    n = draw(_mostly(st.integers(2, 4), st.sampled_from([1, 5])))
    matrices = [draw(_hermitian(n)) for _ in range(draw(_mostly(st.just(4), st.sampled_from([3, 5]))))]
    if draw(st.booleans()):
        # one entry, without its mirror image, replaced by a valid or an odd literal
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrices[draw(st.integers(0, len(matrices) - 1))][i][j] = [
            draw(st.one_of(_LITERAL, _ODD_LITERAL)), draw(st.sampled_from(["0", "1"]))
        ]
    payload = {
        "n": draw(_mostly(st.just(n), st.one_of(_LITERAL, _ODD_LITERAL))),
        "label": draw(_mostly(st.text(max_size=5), _ODD_LITERAL)),
        "alpha": matrices[:-1],
        "beta": matrices[-1],
    }
    return json.dumps(payload).encode()


@st.composite
def _grid(draw):
    """`lin:lo:hi:count` axes with counts of at most 5, or junk without digits."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="lin:,-.ex ", max_size=12))
    bound = _mostly(st.floats(-3, 3).map(repr), _NUMBER)
    count = _mostly(st.integers(1, 5).map(str), st.sampled_from(["0", "-1", "", "x", "2.5"]))
    axes = draw(_mostly(st.sampled_from([1, 3]), st.sampled_from([2, 4])))
    return ",".join(f"lin:{draw(bound)}:{draw(bound)}:{draw(count)}" for _ in range(axes))


@st.composite
def _argv(draw, folder):
    """A subcommand with fuzzed option values; every path written lies under `folder`."""
    data = folder / "input.json"
    data.write_bytes(draw(_matrix_file()))
    path = str(draw(_mostly(st.just(data), st.sampled_from([folder / "missing.json", folder]))))
    command = draw(st.sampled_from(["verify", "derive", "solve", "spectrum", "catalog", "bogus"]))
    if command == "verify":
        multiplicity = draw(_mostly(st.integers(1, 4).map(str), _NUMBER))
        argv = ["verify", path] + draw(st.sampled_from([[], ["--multiplicity", multiplicity]]))
    elif command == "derive":
        argv = ["derive", path]
    elif command == "solve":
        small = _mostly(st.integers(1, 4).map(str), _NUMBER)
        argv = ["solve", "--n", draw(small), "--multiplicity", draw(small)]
    elif command == "spectrum":
        mass = draw(_mostly(st.floats(0, 3).map(repr), _NUMBER))
        argv = ["spectrum", path, "--mass", mass, "--grid", draw(_grid()),
                "--out", str(folder / "out.csv")]
    elif command == "catalog":
        argv = ["catalog", draw(st.one_of(st.sampled_from(CATALOG_NAMES), _WORD))]
        argv += draw(st.sampled_from([[], ["--out", str(folder / "set.json")]]))
    else:
        argv = [command, path]
    # drop or repeat an argument now and then
    if draw(st.integers(0, 3)) == 0 and len(argv) > 1:
        k = draw(st.integers(0, len(argv) - 1))
        argv = argv[:k] + argv[k + 1:] if draw(st.booleans()) else argv + [argv[k]]
    return argv


def _run_captured(argv):
    # numpy's overflow warnings are shown once per location, which would make
    # the second run's stderr differ from the first; they are not the CLI's output
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_invocations_keep_the_exit_code_contract(tmp_path, data):
    argv = data.draw(_argv(tmp_path), label="argv")
    first = _run_captured(argv)
    assert first[0] in (0, 1, 2, 3)
    assert _run_captured(argv) == first
