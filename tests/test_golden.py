"""Golden CLI reports: `verify`, `derive` and `solve` stdout, stderr and exit codes.

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
"""

import json
from pathlib import Path

import pytest

from diracver.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, capsys):
    spec = CASES[case]
    argv = list(spec["command"])
    if spec["input"] is not None:
        argv.append(str(GOLDEN / "inputs" / f"{spec['input']}.json"))
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (GOLDEN / "expected" / f"{case}.out").read_bytes()
    assert captured.err == spec["stderr"]
    assert code == spec["exit"]
