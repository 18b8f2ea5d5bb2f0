"""Golden CLI reports: `verify`, `derive`, `solve`, `spectrum` and `catalog` outputs and exit codes.

`tests/golden/cases.json` names each run: the command, its input file under
`tests/golden/inputs/` (if any), the exit code and the stderr text.  The
expected stdout of each run is `tests/golden/expected/<case>.out`, compared
byte for byte.  The inputs are the three catalog sets,
`perturbed_set(Random(3), dirac-pauli)` (an alpha entry moved),
`perturbed_set(Random(9), weyl-chiral)` (a beta entry moved),
`random_hermitian_set(Random(1))` and `(Random(2))`, dirac-pauli conjugated
by `random_exact_unitary(Random(4), steps=10)` (an exact, non-identity
canonical transform), the n = 2 Pauli triple, and the dirac-pauli alphas with
beta = diag(1, 1, 1, -1) (eigenspaces of dimension 3 and 1) and with
beta = diag(B, -B), B = [[3/5, 4i/5], [-4i/5, 3/5]] (beta^2 has real part I
but imaginary off-diagonal entries, which only the imaginary parts of the
integer Gram check see).  Each of the five sampled inputs is rebuilt from
its sampler call and compared with its committed file.  Between them
they reach every branch of the `verify` and `derive` reports.  One more
input, the dirac-pauli set with i at both (0,3) and (3,0) of alpha2
(symmetric, not Hermitian), pins the error and exit code 3 of a set
rejected at construction, and `solve --multiplicity two` pins argparse's
usage error, which `cli._Parser.error` raises as exit code 3.  The three
`catalog` cases print each catalog set; each output equals its input file.

A `spectrum` case also writes its CSV, `--out` under the test's temporary
directory, and compares it byte for byte with
`tests/golden/expected/<case>.csv`; its stdout names that path, which is
replaced by `OUT.csv` before the comparison.  Each case runs twice: through
`main` in this process, and alone in a fresh `python -m diracver` process
with numpy blocked for every command but `spectrum`.  The cases sweep the
catalog sets, the conjugate and the n = 2 Pauli triple over `lin:-2:2:5`
with mass 1, the perturbed-alpha set (flagged rows, exit 1) over the same
grid, and dirac-pauli over the massless `lin:-1:1:3`, whose origin has
E = 0.

The stdout of `scripts/solve_requirements.py`, the feasibility table for
every n <= 4 and r <= n with its `eigenvalue equation:` lines, is pinned in
`tests/golden/expected/solve_requirements.out`.  The stdout of
`scripts/equivalence_experiment.py` at its fixed seed and counts, with the
elapsed time cut from its first line, is pinned in
`tests/golden/expected/equivalence_experiment.out`, so a change to the
sampled sets or to a verdict shows.  `scripts/bench_diff.py` runs on two
small benchmark records that the test writes.  Each snippet of the mutant
table that `scripts/mutants.py` runs occurs exactly once, and each of its
targets names a test file that exists.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from diracver import cli
from diracver.clifford import catalog
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
# `python -m diracver` with numpy blocked: `import numpy` raises ImportError
WITHOUT_NUMPY = (
    'import runpy, sys; sys.modules["numpy"] = None; '
    'runpy.run_module("diracver", run_name="__main__", alter_sys=True)'
)


def _argv(case: str, csv: Path) -> list[str]:
    """The case's arguments of diracver, with a `spectrum` case writing to ``csv``."""
    spec = CASES[case]
    argv = list(spec["command"])
    if spec["input"] is not None:
        argv.append(str(GOLDEN / "inputs" / f"{spec['input']}.json"))
    if argv[0] == "spectrum":
        argv += ["--out", str(csv)]
    return argv


def _assert_golden(case: str, code: int, out: str, err: str, csv: Path) -> None:
    spec = CASES[case]
    out = out.replace(str(csv), "OUT.csv")
    assert out.encode("utf-8") == (GOLDEN / "expected" / f"{case}.out").read_bytes()
    if spec["command"][0] == "spectrum":
        assert csv.read_bytes() == (GOLDEN / "expected" / f"{case}.csv").read_bytes()
    assert err == spec["stderr"]
    assert code == spec["exit"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, capsys, tmp_path):
    csv = tmp_path / "out.csv"
    code = cli.main(_argv(case, csv))
    captured = capsys.readouterr()
    _assert_golden(case, code, captured.out, captured.err, csv)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_in_a_fresh_process(case, tmp_path):
    csv = tmp_path / "out.csv"
    argv = _argv(case, csv)
    runner = ["-m", "diracver"] if argv[0] == "spectrum" else ["-c", WITHOUT_NUMPY]
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, *runner, *argv], capture_output=True, stdin=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    _assert_golden(case, proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"), csv)


# the sampler call behind each sampled input, as the module docstring names it
SAMPLED_INPUTS = {
    "conjugate": lambda: random_exact_unitary(Random(4), steps=10).conjugate_set(catalog("dirac-pauli")),
    "perturbed-alpha": lambda: perturbed_set(Random(3), catalog("dirac-pauli")),
    "perturbed-beta": lambda: perturbed_set(Random(9), catalog("weyl-chiral")),
    "random-1": lambda: random_hermitian_set(Random(1)),
    "random-2": lambda: random_hermitian_set(Random(2)),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_INPUTS))
def test_sampled_input_is_rebuilt_by_its_sampler_call(name):
    built = SAMPLED_INPUTS[name]()
    committed = cli.parse_matrix_file(GOLDEN / "inputs" / f"{name}.json")
    assert built.alphas == committed.alphas
    assert built.beta == committed.beta


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


def test_equivalence_experiment_matches_golden(capsys):
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


def test_bench_pairs_marks_each_metric_from_canned_pairs(capsys, tmp_path, monkeypatch):
    bench_pairs = _load_script("bench_pairs")
    # (parent, change) of each of 10 pairs: setup_s lower in every pair; items_per_s 30% lower;
    # op_p50_ms 5% higher; op_p90_ms spread wider than its bound; solve_table_ms tied; peak_rss_mb +12%
    pairs = {
        "setup_s": [(0.058 + k / 1e4, 0.052 + k / 1e4) for k in range(10)],
        "items_per_s": [(100.0 + k, 70.0 + k) for k in range(10)],
        "op_p50_ms": [(1.0 + k / 100, 1.05 + k / 100) for k in range(10)],
        "op_p90_ms": [(1.0 + k % 2, 1.1 + k % 2) for k in range(10)],
        "solve_table_ms": [(0.8, 0.8)] * 10,
        "peak_rss_mb": [(40.0, 44.8)] * 10,
    }
    canned = {side: [{name: values[k][i] for name, values in pairs.items()} for k in range(10)]
              for i, side in enumerate(("parent", "change"))}
    lines = bench_pairs.summarise(canned["parent"], canned["change"])
    assert [line.split(":")[0] for line in lines[::2]] == [
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})"
        for metric in bench_pairs.SPEC["end_to_end"]
    ]
    verdicts = {line.split()[0]: line.rsplit(": ", 1)[1] for line in lines[::2]}
    assert verdicts == {"setup_s": "gain", "items_per_s": "worse", "op_p50_ms": "within bound",
                        "op_p90_ms": "unresolved", "solve_table_ms": "within bound", "peak_rss_mb": "worse"}
    assert lines[1].startswith("  median 0.05845 -> 0.05245 (-10.3%), parent quartile distance 0.00055,")
    assert "change wins 10 of 10; pairs: 0.058 -> 0.052, 0.0581 -> 0.0521," in lines[1]
    assert "change wins 0 of 10" in lines[3] and "change wins 0 of 10" in lines[9]
    # winning 9 pairs in 10 is no gain when the median moves the worse way
    parent = [{"setup_s": v} for v in [10.0] * 5 + [1.0] * 5]
    change = [{"setup_s": v} for v in [9.0] * 5 + [0.0] * 4 + [50.0]]
    monkeypatch.setitem(bench_pairs.SPEC, "end_to_end", bench_pairs.SPEC["end_to_end"][:1])
    mixed = bench_pairs.summarise(parent, change)
    assert mixed[0].endswith(": worse") and "(+63.6%)" in mixed[1] and "change wins 9 of 10" in mixed[1]
    monkeypatch.undo()

    # each run's last line is its result; a failed run is named and ends the script with 1
    good = {"correct": True, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.05, "unit": "s"}}}
    assert bench_pairs.read_result("report\n" + json.dumps(good) + "\n", 0) == {"setup_s": 0.05}
    for stdout, code, reason in (
        (json.dumps(good), 2, "exited 2"),
        ("", 0, "printed no result"),
        ("not json", 0, "printed no result"),
        (json.dumps({**good, "correct": False}), 0, "reported correct: false"),
        (json.dumps({**good, "failed": 1}), 0, "reported 1 failed operations of 5"),
    ):
        with pytest.raises(bench_pairs.RunError, match=f"^{reason}$"):
            bench_pairs.read_result(stdout, code)
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    runs = []

    def canned_run(checkout, workload, seed):
        runs.append((checkout.name, seed))
        if len(runs) == 4:
            raise bench_pairs.RunError("reported correct: false")
        return canned[checkout.name][seed - 1]

    monkeypatch.setattr(bench_pairs, "_run", canned_run)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "audit-growth", "--seeds", "1-3"]
    assert bench_pairs.main(argv) == 1
    assert runs == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: the parent run of audit-growth, seed 2, reported correct: false"
    )
    runs.clear()
    monkeypatch.setattr(bench_pairs, "_run", lambda checkout, workload, seed: canned[checkout.name][seed - 1])
    assert bench_pairs.main(argv[:-1] + ["1-10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "audit-growth: 10 pairs, seeds 1-10, 30 s each" and out[1:] == lines
    with pytest.raises(SystemExit):
        bench_pairs.main(argv[:-1] + ["7-7"])


def test_each_mutant_snippet_occurs_once_and_each_target_exists():
    mutants = _load_script("mutants")
    table = json.loads(mutants.TABLE.read_text(encoding="utf-8"))
    assert len({mutant["name"] for mutant in table}) == len(table)
    for mutant in table:
        assert mutant["file"].startswith("src/diracver/") and mutant["snippet"] != mutant["replacement"]
        assert mutants._occurrences(mutant) == 1, mutant["name"]
        files = [mutants.ROOT / target.split("::")[0] for target in mutant["targets"]]
        assert files and all(path.is_file() for path in files), mutant["name"]
