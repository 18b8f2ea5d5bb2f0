"""Golden CLI reports: `verify`, `derive`, `solve` and `spectrum` outputs and exit codes.

`tests/golden/cases.json` names each run: the command, its input file under
`tests/golden/inputs/` (if any), the exit code and the stderr text.  The
expected stdout of each run is `tests/golden/expected/<case>.out`, compared
byte for byte.  The inputs are the three catalog sets,
`perturbed_set(Random(3), dirac-pauli)` (an alpha entry moved),
`perturbed_set(Random(9), weyl-chiral)` (a beta entry moved),
`random_hermitian_set(Random(1))` and `(Random(2))`, dirac-pauli conjugated
by `random_exact_unitary(Random(4), steps=10)` (an exact, non-identity
canonical transform), the n = 2 Pauli triple and the dirac-pauli alphas with
beta = diag(1, 1, 1, -1) (eigenspaces of dimension 3 and 1).  Between them
they reach every branch of the `verify` and `derive` reports.

A `spectrum` case also writes its CSV, `--out` under the test's temporary
directory, and compares it byte for byte with
`tests/golden/expected/<case>.csv`; its stdout names that path, which is
replaced by `OUT.csv` before the comparison.  The cases sweep the catalog
sets, the conjugate and the n = 2 Pauli triple over `lin:-2:2:5` with mass
1, the perturbed-alpha set (flagged rows, exit 1) over the same grid, and
dirac-pauli over the massless `lin:-1:1:3`, whose origin has E = 0.

The stdout of `scripts/solve_requirements.py`, the feasibility table for
every n <= 4 and r <= n with its `eigenvalue equation:` lines, is pinned in
`tests/golden/expected/solve_requirements.out`.  The stdout of
`scripts/equivalence_experiment.py` at its default seed and counts, with the
elapsed time cut from its first line, is pinned in
`tests/golden/expected/equivalence_experiment.out`, so a change to the
sampled sets or to a verdict shows.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from diracver.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, capsys, tmp_path):
    spec = CASES[case]
    argv = list(spec["command"])
    if spec["input"] is not None:
        argv.append(str(GOLDEN / "inputs" / f"{spec['input']}.json"))
    csv = tmp_path / "out.csv"
    if argv[0] == "spectrum":
        argv += ["--out", str(csv)]
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out.replace(str(csv), "OUT.csv")
    assert out.encode("utf-8") == (GOLDEN / "expected" / f"{case}.out").read_bytes()
    if argv[0] == "spectrum":
        assert csv.read_bytes() == (GOLDEN / "expected" / f"{case}.csv").read_bytes()
    assert captured.err == spec["stderr"]
    assert code == spec["exit"]


def _load_script(name: str):
    script = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_feasibility_table_script_matches_golden(capsys):
    _load_script("solve_requirements").main()
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "expected" / "solve_requirements.out").read_bytes()


def test_equivalence_experiment_matches_golden(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["equivalence_experiment.py"])
    assert _load_script("equivalence_experiment").main() == 0
    out = re.sub(r"^(\d+ sets audited) in [0-9.]+s$", r"\1", capsys.readouterr().out, count=1, flags=re.M)
    assert out.encode("utf-8") == (GOLDEN / "expected" / "equivalence_experiment.out").read_bytes()
