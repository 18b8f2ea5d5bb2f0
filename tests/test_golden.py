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
sampled sets or to a verdict shows.  `scripts/bench_diff.py` runs on two
small benchmark records that the test writes.
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


def test_bench_diff_prints_each_median_with_its_change_and_bound(capsys, tmp_path):
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]
    paths = []
    for label, median in (("a", 2.0), ("b", 3.0)):
        medians = {name: {"median": 0.0 if name == "setup_s" else median} for name in names}
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps({"workloads": {"audit-mixed": {"end_to_end": medians}}}))
    bench_diff = _load_script("bench_diff")
    assert bench_diff.main([str(path) for path in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "audit-mixed"
    assert [line.split()[0] for line in lines[1:]] == names
    assert "items_per_s" in lines[2] and "+50.0%  (bound 25%, higher is better)" in lines[2]
    assert "n/a" in lines[1]
    assert bench_diff.main([str(paths[0])]) == 2


def test_bench_diff_flags_worse_changes_and_prints_traced_layers(capsys, tmp_path):
    # (A, B) medians; items_per_s and op_p90_ms get worse beyond their 25% bound,
    # op_p50_ms and peak_rss_mb worse within theirs, setup_s better
    medians = {
        "setup_s": (1.0, 0.5), "items_per_s": (10.0, 7.0), "op_p50_ms": (100.0, 120.0),
        "op_p90_ms": (100.0, 130.0), "solve_table_ms": (0.0, 1.0), "peak_rss_mb": (50.0, 54.0),
    }
    # B has two traced runs, so its per-layer value is their median
    traced = {"a": [{"cli.import_s": 0.2, "algebra.MultiPoly.__mul__.calls": 0}],
              "b": [{"cli.import_s": 0.09, "algebra.MultiPoly.__mul__.calls": 0},
                    {"cli.import_s": 0.11, "algebra.MultiPoly.__mul__.calls": 0}]}
    paths = []
    for side, label in enumerate("ab"):
        record = {
            "end_to_end": {name: {"median": pair[side]} for name, pair in medians.items()},
            "traced": [{"seed": 1, "metrics": metrics} for metrics in traced[label]],
        }
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps({"workloads": {"cli-cold": record}}))
    assert _load_script("bench_diff").main([str(path) for path in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    flagged = [line.split()[0] for line in lines if line.endswith("  WORSE")]
    assert flagged == ["items_per_s", "op_p90_ms"]
    assert "-30.0%" in lines[2] and "n/a" in lines[5]
    # a per-layer metric that reads 0 in both records is left out
    assert lines[7] == "  per layer, traced:" and len(lines) == 9
    assert lines[8].split() == ["cli.import_s", "0.2", "->", "0.1", "-50.0%", "(lower", "is", "better)"]
