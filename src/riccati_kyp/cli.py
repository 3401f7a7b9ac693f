"""Command-line front end.

Reads system documents from JSON, dispatches to the library, and emits
machine-readable JSON reports. A report holds the library's result objects
as they are, and one ``orjson.dumps`` call (:func:`_report_bytes`) writes
it as strict JSON (RFC 8259) in UTF-8, keys sorted and indented by two
spaces: a result dataclass is written as the object of its fields, an Enum
as its value, a complex entry as its [re, im] pair (unambiguous and
locale-free), and a NaN or infinity as null. A solution set ordered by its
selection digits holds ``"order": "selection_subset"``: H_i <= H_j exactly
when the 1-digits of member i's provenance selection are among member j's.
Any other set holds its ``"comparisons"``, ``{"i,j": verdict}`` for each
pair i < j. Reports embed the effective configuration verbatim, and with
--no-timings two runs with identical inputs and seed produce byte-identical
output. ``--tol`` is the membership band of the KYP LMI, the one tolerance
a run varies: every command decides membership at it, and equality, the
range inclusion and the inner and co-inner screens at the constants
``riccati.EQUALITY_TOL``, ``riccati.RANGE_TOL`` and ``boundary.INNER_TOL``,
which the embedded ``eq_tol`` and ``c3_tol`` echo.

Document schema (informal):

    {
      "name": "plant",
      "A": [[[re, im], ...], ...],      # n x n
      "B": ..., "C": ..., "D": ...,
      "candidates": {"H1": [[[re, im], ...], ...], ...}   # optional, n x n
    }

Input files for `simulate` carry {"x0": [[re, im], ...], "inputs":
[[[re, im], ...], ...]}.

Each re and im is a JSON number (not a boolean, string or null), and the
rows of a matrix are non-empty lists of one length. A candidate's name is
any JSON string, the empty one included, and so is the document's.
:func:`document_from_dict` holds Python values to the same rules, and also
refuses a number that is not finite or beyond float range, and a name that
holds a lone surrogate, which a report cannot write.
A document's A, B, C and D together, all candidates of a document
together, and each matrix or row of a ``simulate`` input are each decoded
in one step (:func:`_decode`): the rules are checked on the set of
distinct Python types, then one numpy float conversion gives the pairs.
Only a group that this refuses is walked, matrix by matrix and entry by
entry through the one entry walk (:func:`_walk_row`), to raise the
ParseError that names the first bad entry. The candidates are taken one
at a time, each checked to be n x n as it is taken, so the first bad
candidate in document order raises its ParseError or DimensionMismatch.

A file is read as bytes and decoded with ``orjson``, the one JSON reader,
which is imported by the first read, not by ``import riccati_kyp.cli``.
A file must be strict JSON (RFC 8259) in UTF-8: NaN, an infinity, a number
beyond double range (``1e400``), a lone surrogate (``"\\ud800"``), a byte
order mark, a byte that is not UTF-8 or a syntax error anywhere in it makes
the whole file a ParseError that names the line, the column and orjson's
reason. An integer beyond 64 bits within double range is read as its
correctly rounded float. The rules above then decide the decoded value.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, is_dataclass

import numpy as np

from . import errors as err
from .boundary import circle_profile, is_coinner, is_inner, uniqueness_certificate
from .riccati import EQUALITY_TOL, MEMBERSHIP_TOL, RANGE_TOL, _memberships, membership
from .solver import (
    SolverConfig,
    duality_check,
    maximal_solution,
    minimal_solution,
    solve_re,
)
from .systems import (
    MARGIN_RADIUS,
    MARGIN_STEPS,
    SystemRealization,
    dissipation_check,
    is_minimal,
    is_passive,
    schur_class_margin,
    simulate,
)

__all__ = ["SystemDocument", "parse_system", "write_system", "run", "main", "EXIT_CODES"]

# one exit code per error category
EXIT_CODES: dict[type, int] = {
    err.ParseError: 2,
    err.DimensionMismatch: 3,
    err.NotHermitian: 4,
    err.NotPSD: 5,
    err.NotPD: 6,
    err.NotNonneg: 7,
    err.RangeViolation: 8,
    err.SingularResolvent: 9,
    err.PoleOnCircle: 10,
    err.DeltaNotPSD: 11,
    err.C3Violation: 12,
    err.InconsistentRoutes: 13,
    err.NotInRI: 14,
    err.NotMinimal: 16,
    err.NotSchurClass: 18,
    err.CertificateFailed: 19,
}
GENERIC_ERROR_EXIT = 1

COMMANDS = ("analyze", "check", "solve-re", "extremes", "simulate", "report")


@dataclass
class SystemDocument:
    """A named realization plus optional named Hermitian candidates."""

    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    candidates: dict[str, np.ndarray] = field(default_factory=dict)
    _sigma: SystemRealization | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def realization(self) -> SystemRealization:
        """The realization, validated and built on the first call only."""
        if self._sigma is None:
            self._sigma = SystemRealization(a=self.a, b=self.b, c=self.c, d=self.d)
        return self._sigma


def _decode_entry(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise err.ParseError(f"{where}: entry must be a [re, im] pair, got {obj!r}")
    try:
        z = complex(float(obj[0]), float(obj[1]))
    except OverflowError:
        raise err.ParseError(f"{where}: entry is outside the float range") from None
    if not np.isfinite(z):
        raise err.ParseError(f"{where}: entry is not finite")
    return z


def _walk_row(row: list, where: str) -> list[complex]:
    """The entries of ``row`` decoded one by one, each named ``where[j]``,
    raising at the first bad one; the only entry walk of the module."""
    return [_decode_entry(e, f"{where}[{j}]") for j, e in enumerate(row)]


def _walk_matrix(obj, where: str) -> np.ndarray:
    """Decode one matrix row by row, raising at the first bad row or entry.

    Only input that `_decode_group` refuses comes here, so every error names
    the first offending row or entry in reading order."""
    if not isinstance(obj, list) or not obj:
        raise err.ParseError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise err.ParseError(f"{where}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise err.ParseError(
                f"{where}[{i}]: row length {len(row)} differs from {width}"
            )
        rows.append(_walk_row(row, f"{where}[{i}]"))
    return np.array(rows, dtype=complex)


def _types_within(items, types) -> bool:
    return all(issubclass(t, types) for t in set(map(type, items)))


def _decode_group(mats: list) -> list[np.ndarray] | None:
    """The complex matrices of the list ``mats``, in order, or None unless
    every one obeys the entry rules.

    The rules are those of `_walk_matrix`, checked once per distinct type
    rather than once per entry: matrices and rows are lists, each matrix
    has rows, its rows are non-empty and of one length, entries are [re,
    im] lists or tuples, and each number is an int or float but not a bool.
    One float conversion of the flat numbers of all matrices then gives the
    pairs, viewed as complex, with the bits of ``complex(float(re),
    float(im))``. A number beyond float range, and a non-finite one, which
    only a Python caller can pass (orjson refuses both), also give None.
    """
    if not mats or not _types_within(mats, list):
        return None
    rows = list(itertools.chain.from_iterable(mats))
    if not _types_within(rows, list):
        return None
    widths = list(map(len, rows))
    shapes, start = [], 0
    for height in map(len, mats):
        width = set(widths[start : start + height])
        start += height
        if len(width) != 1 or 0 in width:
            return None
        shapes.append((height, *width))
    entries = list(itertools.chain.from_iterable(rows))
    if not _types_within(entries, (list, tuple)) or set(map(len, entries)) != {2}:
        return None
    numbers = list(itertools.chain.from_iterable(entries))
    if not all(
        issubclass(t, (int, float)) and not issubclass(t, bool)
        for t in set(map(type, numbers))
    ):
        return None
    try:
        pairs = np.array(numbers, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    values = pairs.view(complex)
    out, start = [], 0
    for height, width in shapes:
        out.append(values[start : start + height * width].reshape(height, width))
        start += height * width
    return out


def _decode(mats: list, wheres: Iterable[str]) -> Iterable[np.ndarray]:
    """The complex matrices of the list ``mats``, in order: those of one
    `_decode_group` conversion, or, when the group is refused, an iterator
    that walks each matrix (`_walk_matrix`, naming it by its item of the
    iterable ``wheres``) as it is taken, so that the first bad one raises
    before any later one is read."""
    group = _decode_group(mats)
    return map(_walk_matrix, mats, wheres) if group is None else group


def _pairs_array(z: np.ndarray) -> np.ndarray:
    """A complex array as a float array of [re, im] pairs on a last axis,
    which a report holds as it is and :func:`_report_bytes` writes as
    nested lists."""
    z = np.asarray(z, dtype=complex)
    return np.stack((z.real, z.imag), -1)


def _encode_matrix(a: np.ndarray) -> list:
    """A matrix as nested lists of [re, im] pairs of Python floats."""
    return _pairs_array(np.atleast_2d(a)).tolist()


def _read_json(path: str, kind: str):
    """The JSON value of the ``kind`` file at ``path``, read by orjson.
    ParseError when the file is missing or cannot be read (a directory,
    say), or is not strict JSON in UTF-8; the message of the last names
    orjson's line, column and reason. orjson places a byte that is not
    UTF-8 at line 1, column 1, so that line and column are read off the
    decoder's offset instead, with the column counted in characters as
    orjson counts it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise err.ParseError(f"{kind} file not found: {path}") from exc
    except OSError as exc:
        raise err.ParseError(f"cannot read {kind} file {path}: {exc.strerror}") from exc
    import orjson

    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        line, column = exc.lineno, exc.colno
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as bad:
            head = data[: bad.start].decode("utf-8")
            line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise err.ParseError(
            f"{path}: invalid JSON at line {line}, column {column} ({exc.msg})"
        ) from exc


def parse_system(path: str) -> SystemDocument:
    """Load and validate a system document.

    Raises ParseError for malformed JSON or entries and DimensionMismatch for
    inconsistent shapes.
    """
    return document_from_dict(_read_json(path, "system"), origin=path)


def document_from_dict(raw: dict, origin: str = "<memory>") -> SystemDocument:
    if not isinstance(raw, dict):
        raise err.ParseError(f"{origin}: top level must be an object")
    keys = ("A", "B", "C", "D")
    for key in keys:
        if key not in raw:
            raise err.ParseError(f"{origin}: missing required matrix {key!r}")
    a, b, c, d = _decode([raw[key] for key in keys], keys)
    name = raw.get("name", "system")
    if not isinstance(name, str):
        raise err.ParseError(f"{origin}: name must be a string")
    given = raw.get("candidates", {})
    if not isinstance(given, dict):
        raise err.ParseError(f"{origin}: candidates must be an object")
    candidates: dict[str, np.ndarray] = {}
    square = (a.shape[0], a.shape[0])
    wheres = (f"candidates[{cname!r}]" for cname in given)
    # a refused group is walked one candidate per step, so the first bad
    # candidate in document order raises, be it malformed or misshapen
    for cname, mat in zip(given, _decode(list(given.values()), wheres)):
        if mat.shape != square:
            raise err.DimensionMismatch(
                f"candidate {cname!r} has shape {mat.shape}, expected {square}"
            )
        candidates[cname] = mat
    try:  # a name built in Python may hold a lone surrogate, which no report holds
        "".join([name, *candidates]).encode("utf-8")
    except UnicodeEncodeError:
        raise err.ParseError(f"{origin}: a name holds a lone surrogate") from None
    doc = SystemDocument(name=name, a=a, b=b, c=c, d=d, candidates=candidates)
    doc.realization()  # validates dimensions
    return doc


def write_system(doc: SystemDocument) -> dict:
    """Serialize a document back to its JSON form (bit-exact round trip)."""
    out = {
        "name": doc.name,
        "A": _encode_matrix(doc.a),
        "B": _encode_matrix(doc.b),
        "C": _encode_matrix(doc.c),
        "D": _encode_matrix(doc.d),
    }
    if doc.candidates:
        out["candidates"] = {k: _encode_matrix(v) for k, v in doc.candidates.items()}
    return out


# -- report builders ----------------------------------------------------------


def _checks_payload(sigma, candidates: dict, tol) -> dict:
    """The check section of ``report``: the :func:`membership` payload of
    every candidate, in name order, from one membership-kernel call
    (``riccati._memberships``). The first candidate in that order that
    membership refuses raises its error (NotHermitian, NotPD,
    InconsistentRoutes, ...). ``check`` calls :func:`membership` on its one
    candidate, which gives the same payload."""
    names = sorted(candidates)
    matrices = [candidates[name] for name in names]
    verdicts = _memberships(sigma, matrices, tol)
    return {name: vars(verdict) for name, verdict in zip(names, verdicts)}


def _analyze_payload(sigma, tol, grid) -> dict:
    minimality = is_minimal(sigma)
    passivity = is_passive(sigma, tol=tol)
    margin = schur_class_margin(sigma)
    out = {
        "minimality": minimality,
        "passivity": passivity,
        "schur_margin": {
            "value": margin, "radius": MARGIN_RADIUS, "grid_steps": MARGIN_STEPS
        },
    }
    try:
        profile = circle_profile(sigma, grid_steps=grid)
    except err.PoleOnCircle as exc:
        out["circle"] = {"error": "PoleOnCircle", "angle": exc.angle}
        out["uniqueness"] = {"skipped": "transfer function has a pole on the circle"}
        return out
    out["circle"] = {
        "grid_steps": grid,
        "max_defect_right": profile.max_defect_right,
        "max_defect_left": profile.max_defect_left,
        "inner": is_inner(profile),
        "coinner": is_coinner(profile),
    }
    if minimality.minimal:
        out["uniqueness"] = uniqueness_certificate(sigma, profile)
    else:
        out["uniqueness"] = {"skipped": "system is not minimal"}
    return out


def _solution_set_payload(solution_set) -> dict:
    payload = {
        "members": solution_set.members,
        "minimal_index": solution_set.minimal_index,
        "maximal_index": solution_set.maximal_index,
        "provenance": solution_set.provenance,
        "route": solution_set.route,
        "complete": solution_set.complete,
    }
    if solution_set._lattice:
        payload["order"] = "selection_subset"
    else:
        payload["comparisons"] = {
            f"{i},{j}": verdict for (i, j), verdict in solution_set.comparisons.items()
        }
    return payload


def _extremes_payload(sigma, config, re_set=None) -> dict:
    h_min = minimal_solution(sigma, config)
    h_max = maximal_solution(sigma, config)
    return {
        "minimal": h_min.matrix,
        "maximal": h_max.matrix,
        "duality": duality_check(
            sigma, config, extremes=(h_min, h_max), equality_set=re_set
        ),
    }


def _decode_row(obj, where: str) -> np.ndarray:
    """The complex vector of a non-empty list of [re, im] pairs. A
    ParseError names ``where`` when it is no such list, and ``where[j]``
    for its first bad entry j."""
    group = _decode_group([[obj]])
    if group is not None:
        return group[0][0]
    if not isinstance(obj, list) or not obj:
        raise err.ParseError(f"{where}: expected a non-empty row")
    return np.array(_walk_row(obj, where), dtype=complex)


def _load_inputs(path: str, sigma) -> tuple[np.ndarray, np.ndarray]:
    raw = _read_json(path, "input")
    if not isinstance(raw, dict) or "inputs" not in raw:
        raise err.ParseError(f"{path}: expected an object with an 'inputs' field")
    (inputs,) = _decode([raw["inputs"]], ["inputs"])
    if "x0" in raw:
        return _decode_row(raw["x0"], "x0"), inputs
    return np.zeros(sigma.state_dim, dtype=complex), inputs


def _simulate_payload(sigma, doc, args) -> dict:
    if not args.inputs:
        raise err.ParseError("simulate requires --inputs <path>")
    x0, inputs = _load_inputs(args.inputs, sigma)
    trajectory = simulate(sigma, x0, inputs)
    payload = {
        "steps": trajectory.steps,
        "states": trajectory.states,
        "outputs": trajectory.outputs,
    }
    if args.candidate is not None:
        h = _candidate_matrix(doc, args.candidate)
        margins = dissipation_check(trajectory, h)
        payload["dissipation"] = {
            "candidate": args.candidate,
            "margins": margins,
            "min_margin": float(margins.min()) if margins.size else 0.0,
        }
    return payload


def _candidate_matrix(doc: SystemDocument, name: str) -> np.ndarray:
    if name not in doc.candidates:
        raise err.ParseError(
            f"candidate {name!r} not found; document defines "
            f"{sorted(doc.candidates)}"
        )
    return doc.candidates[name]


def run(command: str, doc: SystemDocument, args) -> dict:
    """Run one command against a parsed document and return the report.

    The sections run in one order, each written once and enabled per
    command: check (``check``, on its one candidate), analyze, solve_re,
    extremes, the check of every candidate and simulate; ``report`` runs
    the single commands' analyze, solve_re and extremes sections, its
    check section when the document has candidates, and simulate with
    ``--inputs``. The extremes section's duality check reuses the solve_re
    section's equality set when there is one."""
    sigma = doc.realization()
    config = SolverConfig(seed=args.seed, membership_tol=args.tol)
    report: dict = {
        "name": doc.name,
        "command": command,
        "config": {"grid": args.grid, "seed": args.seed, "tol": args.tol,
                   "eq_tol": EQUALITY_TOL, "c3_tol": RANGE_TOL},
    }
    if command in ("solve-re", "extremes", "report"):
        report["config"]["solver"] = config
    timings: dict[str, float] = {}
    whole = command == "report"

    def timed(key: str, fn):
        start = time.perf_counter()
        value = fn()
        timings[key] = time.perf_counter() - start
        return value

    if command == "check":
        if args.candidate is None:
            raise err.ParseError("check requires --candidate <name>")
        h = _candidate_matrix(doc, args.candidate)
        verdict = timed("check", lambda: membership(sigma, h, args.tol))
        report["check"] = {"candidate": args.candidate, **vars(verdict)}
    if whole or command == "analyze":
        report["analyze"] = timed(
            "analyze", lambda: _analyze_payload(sigma, args.tol, args.grid)
        )
    re_set = None
    if whole or command == "solve-re":
        re_set = timed("solve_re", lambda: solve_re(sigma, config))
        report["solve_re"] = _solution_set_payload(re_set)
    if whole or command == "extremes":
        report["extremes"] = timed(
            "extremes", lambda: _extremes_payload(sigma, config, re_set)
        )
    if whole and doc.candidates:
        report["check"] = timed(
            "check", lambda: _checks_payload(sigma, doc.candidates, args.tol)
        )
    if command == "simulate" or (whole and args.inputs):
        report["simulate"] = timed(
            "simulate", lambda: _simulate_payload(sigma, doc, args)
        )

    if not args.no_timings:
        report["timings"] = timings
    return report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="riccati-kyp",
        description=(
            "Analyze discrete-time linear systems: Riccati equality/inequality "
            "membership, KYP feasibility, extremal storage operators, and "
            "boundary certificates."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--system", required=True, help="path to a system JSON file")
    parser.add_argument("--candidate", default=None, help="name of a candidate weight")
    parser.add_argument("--inputs", default=None, help="input file for simulate")
    parser.add_argument(
        "--tol",
        type=float,
        default=MEMBERSHIP_TOL,
        help="membership band of the KYP LMI, relative to max(1, ||L(H)||), and"
        " passivity margin; the equality, range and inner thresholds are fixed"
        " at 1e-8",
    )
    parser.add_argument(
        "--grid", type=int, default=4096, help="circle-profile grid steps"
    )
    parser.add_argument("--seed", type=int, default=0, help="solver RNG seed")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--no-timings",
        action="store_true",
        help="omit wall-clock timings (makes reports byte-reproducible)",
    )
    return parser


# -- report writer --------------------------------------------------------------


def _default(obj):
    """The report encodings that orjson hands to its ``default`` hook: a
    complex array as its [re, im] pairs (:func:`_pairs_array`), any other
    array that orjson does not write itself (one that is not C-contiguous,
    say) as its nested lists, and a result dataclass as the object of its
    fields."""
    if isinstance(obj, np.ndarray):
        return _pairs_array(obj) if np.iscomplexobj(obj) else obj.tolist()
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _report_bytes(payload) -> bytes:
    """``payload`` as strict JSON in UTF-8: keys sorted, indented by two
    spaces, a newline at the end, an ``Enum`` as its value and a NaN or
    infinity as null. TypeError for what orjson does not write, such as a
    key that is not a string, an integer beyond 64 bits or a lone
    surrogate."""
    import orjson

    layout = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
    encodings = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_PASSTHROUGH_DATACLASS
    return orjson.dumps(payload, default=_default, option=layout | encodings)


def _error_report(exc: Exception) -> tuple[dict, int]:
    """The error report of ``exc`` and its exit code."""
    code = EXIT_CODES.get(type(exc), GENERIC_ERROR_EXIT)
    # a path from the command line holds a lone surrogate for each byte that
    # is not UTF-8; the message spells it out as its \udcXX escape
    message = str(exc).encode("utf-8", "backslashreplace").decode("utf-8")
    error = {"category": type(exc).__name__, "exit_code": code, "message": message}
    return {"error": error}, code


def _emit(payload: dict, code: int, out_path: str | None) -> int:
    """Write ``payload`` to ``out_path``, or to stdout when there is none,
    and return the exit code ``code``. A ``--out`` that cannot be written
    (a directory, say, or a path whose parent is missing) is a ParseError,
    whose report goes to stdout. To a stdout without a byte ``buffer`` (an
    ``io.StringIO``, say) the report goes as text."""
    data = _report_bytes(payload)
    if not out_path:
        sys.stdout.flush()  # text already written to stdout goes first
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(data.decode("utf-8"))
        else:
            buffer.write(data)
        return code
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        failure = err.ParseError(f"cannot write --out file {out_path}: {exc.strerror}")
        return _emit(*_error_report(failure), None)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a tolerance of inf or nan passes every membership test, and a grid
        # without steps samples no point of the circle
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise err.ParseError(f"--tol must be finite and positive, got {args.tol!r}")
        if args.grid < 1:
            raise err.ParseError(f"--grid must be at least 1, got {args.grid}")
        if args.seed < 0:  # the sampler's generator takes no negative seed
            raise err.ParseError(f"--seed must be non-negative, got {args.seed}")
        # the report echoes both, and JSON as written holds no larger integer
        for option, value in (("--grid", args.grid), ("--seed", args.seed)):
            if value >= 2**64:
                raise err.ParseError(f"{option} must be below 2**64, got {value}")
        doc = parse_system(args.system)
        report = run(args.command, doc, args)
    except (err.RiccatiKypError, ValueError) as exc:
        return _emit(*_error_report(exc), args.out)
    return _emit(report, 0, args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
