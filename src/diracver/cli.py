"""Batch front door: parse matrix-set files, run audits, render reports.

Exit codes: 0 pass/feasible, 1 fail, 2 infeasible-by-certificate,
3 usage or parse error.  Reports are deterministic: identical invocations
produce byte-identical output.

Matrix-set files are JSON with rational-string entries; see README.md for
the schema and for the `lin:lo:hi:count` grid syntax.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, TextIO

from . import _forward
from .algebra import ComplexRational, render_epoly, render_fraction, render_multipoly, render_scalar

if TYPE_CHECKING:
    from . import clifford, dispersion, spectrum, symmat

# Each command imports the modules it runs and calls through them, so a cold
# command compiles only those (README "Library layout").  This forwarder
# serves only perfbench's patch targets on cli, such as cli.check_dispersion.
__getattr__ = _forward(globals(), "clifford", "dispersion", "solver", "spectrum", "symmat")

__all__ = [
    "MatrixFileError",
    "UsageError",
    "parse_matrix_file",
    "serialize_matrix_set",
    "parse_grid_spec",
    "main",
    "app",
]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")
# Longest accepted rational literal.  It keeps every numerator and
# denominator far below Python's int-conversion limit.
_MAX_LITERAL_LENGTH = 1000
# Most digits of the set's scale D * max(1, x): D is the lcm of every entry
# denominator and x the largest real or imaginary part in absolute value.
# Every quantity a report prints is at most of degree 4 in the entries (the
# characteristic polynomial and its residuals, determinants, squared norms),
# so its numerator and denominator stay near 4 * 1000 digits, below Python's
# default limit of 4300 digits for converting an int to text.
_MAX_SCALE_DIGITS = 1000
# Largest matrix-set file, in bytes.  The 128 literals of an n = 4 set,
# each at most _MAX_LITERAL_LENGTH characters, come to about 130 KB;
# whitespace and the label take the rest.
_MAX_FILE_BYTES = 1 << 20
# Most points a spectrum grid may have, checked from the counts alone.
_MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    """Bad command line or bad request parameters; maps to exit code 3."""


class MatrixFileError(ValueError):
    """A matrix-set file failed to parse or validate."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


# ---------------------------------------------------------------------------
# matrix-set file format
# ---------------------------------------------------------------------------


def _check_length(text: str, kind: str, location: str | None = None) -> str:
    """``text`` itself, unless it is longer than _MAX_LITERAL_LENGTH."""
    if len(text) > _MAX_LITERAL_LENGTH:
        raise MatrixFileError(f"{kind} literal of {len(text)} characters exceeds {_MAX_LITERAL_LENGTH}", location)
    return text


def _parse_rational(text: object, location: str) -> tuple[int, int]:
    """A validated rational literal as (numerator, denominator) ints, not reduced."""
    if isinstance(text, str):
        _check_length(text, "rational", location)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise MatrixFileError(f"not a rational literal: {text!r}", location)
    numerator, _, denominator = text.partition("/")
    return int(numerator), int(denominator) if denominator else 1


def _parse_matrix(data: object, n: int, name: str) -> symmat.Matrix:
    if not isinstance(data, list) or len(data) != n:
        raise MatrixFileError(f"matrix must be a list of {n} rows", name)
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFileError(f"row must have {n} entries", f"{name}[{i}]")
        out = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise MatrixFileError("entry must be a [re, im] pair", f"{name}[{i}][{j}]")
            re_num, re_den = _parse_rational(entry[0], f"{name}[{i}][{j}].re")
            im_num, im_den = _parse_rational(entry[1], f"{name}[{i}][{j}].im")
            out.append(ComplexRational._from_ints(re_num * im_den, im_num * re_den, re_den * im_den))
        rows.append(tuple(out))
    return tuple(rows)


def _check_scale(matrices: Sequence[symmat.Matrix]) -> None:
    """Reject a set whose scale D * max(1, x) has more than _MAX_SCALE_DIGITS digits."""
    limit = 10**_MAX_SCALE_DIGITS
    entries = [x for matrix in matrices for row in matrix for x in row]
    # the lcm D, given up as soon as it passes the limit on its own; an
    # entry's d is the lcm of the denominators of its real and imaginary parts
    scale = 1
    for x in entries:
        scale = math.lcm(scale, x._d)
        if scale >= limit:
            break
    else:
        scale = max(scale, *(max(abs(x._a), abs(x._b)) * (scale // x._d) for x in entries))
    if scale >= limit:
        raise MatrixFileError(
            f"entries too large: their common denominator times the largest entry "
            f"has more than {_MAX_SCALE_DIGITS} digits"
        )


def parse_matrix_file(path: str | Path) -> symmat.MatrixSet:
    """Read and validate a matrix-set JSON file into an exact MatrixSet."""
    import json

    from . import symmat

    try:
        with open(path, "rb") as stream:
            raw = stream.read(_MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc.strerror}") from exc
    if len(raw) > _MAX_FILE_BYTES:
        raise MatrixFileError(f"{path} is larger than {_MAX_FILE_BYTES} bytes")
    try:
        # newlines translated as in text mode, so a JSON error's line number counts a lone \r too
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path} is not UTF-8 text: {exc.reason}", f"byte {exc.start}") from exc
    try:
        # a JSON number such as "n" is capped too, before int() converts it
        data = json.loads(text, parse_int=lambda digits: int(_check_length(digits, "integer")))
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise MatrixFileError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise MatrixFileError("top level must be a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or n not in (2, 3, 4):
        raise MatrixFileError(f"n must be 2, 3, or 4, got {n!r}", "n")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise MatrixFileError("label must be a string", "label")
    # the label heads every report: a newline would split that line, and a
    # lone surrogate cannot be encoded to stdout at all
    if not label.isprintable():
        raise MatrixFileError("label must be printable, without control characters or surrogates", "label")
    alphas_data = data.get("alpha")
    if not isinstance(alphas_data, list) or len(alphas_data) != 3:
        count = len(alphas_data) if isinstance(alphas_data, list) else alphas_data
        raise MatrixFileError(f"need exactly 3 alpha matrices, got {count!r}", "alpha")
    alphas = tuple(_parse_matrix(alphas_data[k], n, f"alpha[{k}]") for k in range(3))
    beta = _parse_matrix(data.get("beta"), n, "beta")
    _check_scale((*alphas, beta))
    try:
        return symmat.MatrixSet(n, alphas, beta, label=label)
    except symmat.HermiticityError as exc:
        raise MatrixFileError(str(exc), exc.matrix_name) from exc


def _matrix_to_json(matrix: symmat.Matrix) -> list[list[list[str]]]:
    return [[[str(x.re), str(x.im)] for x in row] for row in matrix]


def serialize_matrix_set(mset: symmat.MatrixSet) -> str:
    """Render a MatrixSet as the JSON file format, bit-exact rationals as strings."""
    import json

    payload = {
        "n": mset.n,
        "label": mset.label,
        "alpha": [_matrix_to_json(a) for a in mset.alphas],
        "beta": _matrix_to_json(mset.beta),
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _print_report(header: str, sections: Sequence[tuple[str, Sequence[str], bool | None]]) -> int:
    """Print a report and return its exit code: it passes when no section failed.

    Each section is (title, lines, passed); a skipped section has ``passed``
    None and prints no result line.
    """
    lines = [header, ""]
    for title, body, passed in sections:
        lines.append(title)
        lines.extend(f"  {line}" for line in body)
        if passed is not None:
            lines.append(f"  result: {'PASS' if passed else 'FAIL'}")
        lines.append("")
    verdict = all(passed is not False for *_, passed in sections)
    lines.append(f"verdict: {'PASS' if verdict else 'FAIL'}")
    print("\n".join(lines))
    return EXIT_PASS if verdict else EXIT_FAIL


def _matrix_summary(matrix: symmat.Matrix) -> str:
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if value:
                return f"nonzero, first at ({i + 1},{j + 1}): {render_scalar(value)}"
    return "0"


class _Audit(NamedTuple):
    """One audit of a set at a multiplicity, each stage run once.

    ``disp`` and ``anti`` are the two verdicts that the equivalence ties
    together at n = 4 and multiplicity 2.  The structural stages run only
    for n = 4 and are None otherwise.  A stage that raised keeps its
    exception in place of its result; the alpha structure is checked only
    when a canonical form exists.
    """

    disp: dispersion.DispersionReport
    anti: clifford.CliffordReport
    trace_det: clifford.TraceDetReport | None = None
    spectrum: tuple[int, ...] | clifford.StructuralViolationError | None = None
    canonical: clifford.CanonicalizationResult | ValueError | None = None
    structure: clifford.StructureReport | None = None

    @property
    def spectrum_passed(self) -> bool:
        return self.spectrum == (1, 1, -1, -1)

    @property
    def structure_passed(self) -> bool:
        return self.structure is not None and self.structure.passed

    def spectrum_line(self) -> str:
        if isinstance(self.spectrum, Exception):
            return f"violation: {self.spectrum}"
        return "eigenvalues: " + ", ".join(f"{v:+d}" for v in self.spectrum)

    def canonical_line(self) -> str:
        if isinstance(self.canonical, Exception):
            return f"violation: {self.canonical}"
        return f"transform: {self.canonical.description}"

    def alpha_lines(self, blocks: str, norm: str) -> list[str]:
        """One line per alpha; empty without a canonical form."""
        if self.structure is None:
            return []
        pairs = zip(self.structure.alpha_blocks, self.structure.norm_values)
        return [
            f"alpha{k}: {blocks} = {'yes' if ok else 'no'}, {norm} = {render_fraction(value)}"
            for k, (ok, value) in enumerate(pairs, start=1)
        ]


def _audit(mset: symmat.MatrixSet, r: int) -> _Audit:
    """Run each stage of the audit of ``mset`` at multiplicity ``r`` once.

    At n = 4 and r = 2 the dispersion and anticommutation verdicts must
    agree; their disagreement is a bug, not a verdict: it raises before any
    report is printed.
    """
    from . import clifford, dispersion

    disp, anti = dispersion.check_dispersion(mset, r), clifford.check_anticommutation(mset)
    if mset.n != 4:
        return _Audit(disp, anti)
    if r == 2 and disp.passed != anti.passed:
        first, second = ("passed", "failed") if disp.passed else ("failed", "passed")
        raise RuntimeError(
            f"internal error: the multiplicity-2 dispersion check {first} but the anticommutation check {second}"
        )
    try:
        spectrum = clifford.beta_spectrum(mset)
    except clifford.StructuralViolationError as exc:
        spectrum = exc
    try:
        canonical = clifford.canonicalize_beta(mset)
    except ValueError as exc:
        canonical = exc
    structure = None if isinstance(canonical, Exception) else clifford.check_alpha_structure(canonical)
    return _Audit(disp, anti, clifford.check_trace_det(disp.char), spectrum, canonical, structure)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    mset = parse_matrix_file(args.file)
    r = args.multiplicity
    if not 1 <= r <= mset.n:
        raise UsageError(f"multiplicity {r} outside 1..{mset.n}")
    audit = _audit(mset, r)
    disp, anti = audit.disp, audit.anti
    disp_lines = [f"characteristic polynomial: {render_epoly(disp.char.poly)}"]
    disp_lines += [f"{label}: {render_multipoly(res)}" for label, res in zip(disp.labels, disp.residuals)]
    anti_lines = [f"{{{a},{b}}}: {_matrix_summary(d)}" for (a, b), d in anti.pairwise.items()]
    anti_lines += [f"{name}^2 - 1: {_matrix_summary(d)}" for name, d in anti.squares.items()]
    sections = [
        (f"[dispersion] multiplicity {r}", disp_lines, disp.passed),
        ("[anticommutation]", anti_lines, anti.passed),
    ]
    if mset.n == 4:
        trace_det_lines = [
            f"{name}: trace = {render_fraction(tr)}, det = {render_fraction(det)}"
            for name, (tr, det) in audit.trace_det.values.items()
        ]
        structure_lines = audit.alpha_lines("diagonal blocks vanish", "norm condition")
        sections += [
            ("[trace-det]", trace_det_lines, audit.trace_det.passed),
            ("[beta-spectrum]", [audit.spectrum_line()], audit.spectrum_passed),
            ("[alpha-structure]", [audit.canonical_line(), *structure_lines], audit.structure_passed),
        ]
    else:
        skipped = ("[trace-det]", "[beta-spectrum]", "[alpha-structure]")
        sections += [(title, ["skipped (requires n = 4)"], None) for title in skipped]
    return _print_report(f"matrix set: {mset.label or '(unlabeled)'} (n = {mset.n})", sections)


def cmd_solve(args: argparse.Namespace) -> int:
    from . import solver

    try:
        req = solver.DegeneracyRequirement(args.n, args.multiplicity)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = solver.solve_forced_coefficients(req)
    if isinstance(result, solver.ForcedCoefficientSolution):
        for line in solver.render_solution(result):
            print(line)
        return EXIT_PASS
    for line in solver.render_certificate(result):
        print(line)
    return EXIT_INFEASIBLE


def cmd_derive(args: argparse.Namespace) -> int:
    from . import symmat

    mset = parse_matrix_file(args.file)
    if mset.n != 4:
        raise UsageError("derive walks the four-component argument; the file must have n = 4")
    audit = _audit(mset, 2)
    values = audit.trace_det.values.items()
    defects = [*audit.anti.pairwise.values(), *audit.anti.squares.values()]
    dirty = sum(not symmat.mat_is_zero(d) for d in defects)
    steps = (
        (
            "trace",
            "the coefficient of E^3 must vanish identically, forcing every trace to zero",
            [", ".join(f"Tr({name}) = {render_fraction(tr)}" for name, (tr, _) in values)],
            audit.trace_det.traces_vanish,
        ),
        (
            "det",
            "the pure p1^4, p2^4, p3^4, m^4 terms of the constant coefficient force unit determinants",
            [", ".join(f"det({name}) = {render_fraction(det)}" for name, (_, det) in values)],
            audit.trace_det.dets_unit,
        ),
        (
            "beta-spectrum",
            "beta must square to the identity with eigenvalues +1, +1, -1, -1",
            [audit.spectrum_line()],
            audit.spectrum_passed,
        ),
        (
            "canonical-form",
            "a unitary change of basis brings beta to diag(+1, +1, -1, -1)",
            [audit.canonical_line()],
            not isinstance(audit.canonical, Exception),
        ),
        (
            "alpha-structure",
            "in the canonical basis each alpha keeps only its off-diagonal 2x2 block, with squared norm 2",
            audit.alpha_lines("blocks vanish", "norm") or ["skipped: no canonical form"],
            audit.structure_passed,
        ),
        (
            "anticommutators",
            "the matrices pairwise anticommute and square to the identity",
            [f"{len(defects)} relations checked, {len(defects) - dirty} clean, {dirty} with nonzero defects"],
            audit.anti.passed,
        ),
    )
    return _print_report(
        f"derivation audit: {mset.label or '(unlabeled)'} (n = {mset.n})",
        [(f"step {k} [{tag}]: {claim}", *step) for k, (tag, claim, *step) in enumerate(steps, start=1)],
    )


def parse_grid_spec(spec: str, mass: float) -> list[spectrum.MomentumSample]:
    """Build momentum samples from per-axis `lin:lo:hi:count` specs.

    A single spec applies to all three axes; otherwise give three,
    comma-separated.  Rows are ordered with px outermost.  The point count
    is capped before any axis is built, and p.p + m^2 must stay a finite
    float at every point.
    """
    from . import spectrum

    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise UsageError(f"grid spec needs 1 or 3 comma-separated axes, got {len(parts)}")
    ranges = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 4 or fields[0] != "lin":
            raise UsageError(f"bad grid axis {part!r}: expected lin:lo:hi:count")
        try:
            lo, hi = float(fields[1]), float(fields[2])
            count = int(fields[3])
        except ValueError as exc:
            raise UsageError(f"bad grid axis {part!r}: {exc}") from exc
        if count < 1:
            raise UsageError(f"bad grid axis {part!r}: count must be at least 1")
        ranges.append((part, lo, hi, count))
    if math.prod(count for *_, count in ranges) > _MAX_GRID_POINTS:
        raise UsageError(f"grid spec {spec!r} has more than {_MAX_GRID_POINTS} points")
    axes = []
    for part, lo, hi, count in ranges:
        if count == 1:
            axis = [lo]
        else:
            axis = [lo + (hi - lo) * k / (count - 1) for k in range(count)]
        if not all(math.isfinite(v) for v in (lo, hi, *axis)):
            raise UsageError(f"bad grid axis {part!r}: values must be finite")
        axes.append(axis)
    # the largest p.p + m^2 on the grid; products overflow to inf rather than raising
    if not math.isfinite(sum(max(v * v for v in axis) for axis in axes) + mass * mass):
        raise UsageError(f"grid {spec!r} with mass {mass:g}: p.p + m^2 overflows a float")
    return [
        spectrum.MomentumSample((x, y, z), mass) for x in axes[0] for y in axes[1] for z in axes[2]
    ]


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text stream whose contents replace ``path`` only if the block succeeds.

    The stream writes a temporary file beside the target, so an unwritable
    path fails on entry, before the block runs, and a block that raises
    leaves the old file untouched.  A target that exists but is not a
    regular file (a pipe or a device) holds nothing to keep and is written
    directly; a symbolic link keeps pointing at the file it names.  A failed
    open or write is a ``UsageError``.
    """
    try:
        if path.exists() and not path.is_file():
            with path.open("w", encoding="utf-8", newline="") as stream:
                yield stream
            return
        target = path.resolve()
        temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            with temporary.open("w", encoding="utf-8", newline="") as stream:
                yield stream
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_spectrum(args: argparse.Namespace) -> int:
    from . import spectrum

    mset = parse_matrix_file(args.file)
    mass = args.mass + 0.0  # -0 becomes 0
    if not math.isfinite(mass) or mass < 0:
        raise UsageError(f"mass must be finite and nonnegative, got {mass:g}")
    grid = parse_grid_spec(args.grid, mass)
    out_path = Path(args.out)
    try:
        with _replacing(out_path) as stream:
            result = spectrum.sweep(mset, grid)
            spectrum.write_csv(result.rows, stream)
    except (ValueError, RuntimeError) as exc:
        # an entry beyond the float range, or residuals beyond the eigensolver's bound
        raise UsageError(f"{args.file}: {exc}; no numeric sweep is possible") from exc
    print(f"spectrum sweep: {mset.label or '(unlabeled)'} (n = {mset.n}), mass = {mass:g}, samples = {len(grid)}")
    if result.flagged:
        shown = ", ".join(str(k) for k in result.flagged[:5])
        more = "" if len(result.flagged) <= 5 else f" (+{len(result.flagged) - 5} more)"
        print(f"flagged rows: {len(result.flagged)} at indices {shown}{more}")
    else:
        print("flagged rows: 0")
    print(f"csv written: {out_path}")
    return EXIT_FAIL if result.flagged else EXIT_PASS


def cmd_catalog(args: argparse.Namespace) -> int:
    from . import clifford

    try:
        mset = clifford.catalog(args.name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text = serialize_matrix_set(mset)
    if args.out is not None:
        with _replacing(Path(args.out)) as stream:
            stream.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracver",
        description="Exact audits of Dirac matrix sets and dispersion-degeneracy requirements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="full audit of a matrix-set file")
    p_verify.add_argument("file")
    p_verify.add_argument("--multiplicity", type=int, default=2)
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="forced coefficients or an impossibility certificate")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--multiplicity", type=int, required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_derive = sub.add_parser("derive", help="step-by-step structural walkthrough of a set")
    p_derive.add_argument("file")
    p_derive.set_defaults(func=cmd_derive)

    p_spectrum = sub.add_parser("spectrum", help="numeric eigenvalue sweep to CSV")
    p_spectrum.add_argument("file")
    p_spectrum.add_argument("--mass", type=float, required=True)
    p_spectrum.add_argument("--grid", required=True)
    p_spectrum.add_argument("--out", required=True)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_catalog = sub.add_parser("catalog", help="emit a named matrix set as JSON")
    p_catalog.add_argument("name")
    p_catalog.add_argument("--out", default=None)
    p_catalog.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, MatrixFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: a failed write, as a failed --out is; stdout
        # then points at os.devnull, so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = EXIT_USAGE
    raise SystemExit(code)
