"""Command-line front end.

Reads system documents from JSON, dispatches to the library, and emits
machine-readable JSON reports. A report holds the library's result objects
as they are, and one writer (:func:`_dumps`) owns the format: a result
dataclass is written as the object of its fields, an Enum as its value, and
a complex entry as its [re, im] pair (unambiguous and locale-free). A
solution set ordered by its selection digits holds ``"order":
"selection_subset"``: H_i <= H_j exactly when the 1-digits of member i's
provenance selection are among member j's. Any other set holds its
``"comparisons"``, ``{"i,j": verdict}`` for each pair i < j. Reports embed
the effective configuration verbatim so every verdict is auditable, and
with --no-timings two runs with identical inputs and seed produce
byte-identical output.

Document schema (informal):

    {
      "name": "plant",
      "A": [[[re, im], ...], ...],      # n x n
      "B": ..., "C": ..., "D": ...,
      "candidates": {"H1": [[[re, im], ...], ...], ...}   # optional, n x n
    }

Input files for `simulate` carry {"x0": [[re, im], ...], "inputs":
[[[re, im], ...], ...]}.

Each re and im is a finite JSON number (not a boolean, string or null, nor
an integer beyond float range, nor NaN or infinity), and the rows of a
matrix are non-empty lists of one length.
A document's A, B, C and D together, a single matrix, and all candidates
of a document at once when they are all n x n, are each decoded in one
step: the rules are checked on the set of distinct Python types, then one
numpy float conversion gives the pairs. Only input that this refuses is
walked matrix by matrix and entry by entry, to raise the ParseError or
DimensionMismatch that names the first bad entry or candidate.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, is_dataclass
from enum import Enum

import numpy as np

from . import errors as err
from .boundary import circle_profile, is_coinner, is_inner, uniqueness_certificate
from .riccati import membership
from .solver import SolverConfig, _duality, maximal_solution, minimal_solution, solve_re
from .systems import (
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


def _walk_matrix(obj, where: str) -> np.ndarray:
    """Decode one matrix entry by entry, raising at the first bad one.

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
        rows.append([_decode_entry(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)])
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
    float(im))``. A number beyond float range, and a non-finite one (NaN,
    or infinity such as JSON's ``1e400``), also gives None.
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


def _decode_matrix(obj, where: str) -> np.ndarray:
    group = _decode_group([obj])
    return _walk_matrix(obj, where) if group is None else group[0]


def _pairs_array(z: np.ndarray) -> np.ndarray:
    """A complex array as a float array of [re, im] pairs on a last axis,
    which a report holds as it is and :func:`_dumps` writes as nested
    lists."""
    z = np.asarray(z, dtype=complex)
    return np.stack((z.real, z.imag), -1)


def _encode_matrix(a: np.ndarray) -> list:
    """A matrix as nested lists of [re, im] pairs of Python floats."""
    return _pairs_array(np.atleast_2d(a)).tolist()


def _parse_int(text: str) -> int:
    """``int(text)``; an integer with more digits than Python converts (4300
    by default) raises ValueError naming that limit, without Python's remedy
    of raising it, which a CLI user cannot apply."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"an integer of {len(text.lstrip('-'))} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _load_json(path: str, kind: str):
    """The JSON value in the ``kind`` file at ``path``. ParseError when the
    file is missing, is not JSON, or holds JSON that Python refuses to read,
    such as an integer of more than 4300 digits."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except FileNotFoundError as exc:
        raise err.ParseError(f"{kind} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise err.ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:
        raise err.ParseError(f"{path}: unreadable JSON ({exc})") from exc


def parse_system(path: str) -> SystemDocument:
    """Load and validate a system document.

    Raises ParseError for malformed JSON or entries and DimensionMismatch for
    inconsistent shapes.
    """
    return document_from_dict(_load_json(path, "system"), origin=path)


def document_from_dict(raw: dict, origin: str = "<memory>") -> SystemDocument:
    if not isinstance(raw, dict):
        raise err.ParseError(f"{origin}: top level must be an object")
    keys = ("A", "B", "C", "D")
    for key in keys:
        if key not in raw:
            raise err.ParseError(f"{origin}: missing required matrix {key!r}")
    group = _decode_group([raw[key] for key in keys])
    if group is None:  # refused: decode one by one so the first bad one raises
        group = [_decode_matrix(raw[key], key) for key in keys]
    a, b, c, d = group
    name = raw.get("name", "system")
    if not isinstance(name, str):
        raise err.ParseError(f"{origin}: name must be a string")
    candidates: dict[str, np.ndarray] = {}
    if "candidates" in raw:
        if not isinstance(raw["candidates"], dict):
            raise err.ParseError(f"{origin}: candidates must be an object")
        square = (a.shape[0], a.shape[0])
        stack = _decode_group(list(raw["candidates"].values()))
        if stack is not None and all(mat.shape == square for mat in stack):
            candidates = dict(zip(raw["candidates"], stack))
        else:
            # refused: decode one by one so the first bad candidate raises
            for cname, cobj in raw["candidates"].items():
                mat = _decode_matrix(cobj, f"candidates[{cname!r}]")
                if mat.shape != square:
                    raise err.DimensionMismatch(
                        f"candidate {cname!r} has shape {mat.shape}, expected "
                        f"{square}"
                    )
                candidates[cname] = mat
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
    """The check section of ``report``, and of ``check`` on its one named
    candidate: the :func:`membership` payload of every candidate, in name
    order. The first candidate in that order that it refuses raises its
    error (NotHermitian, NotPD, InconsistentRoutes, ...)."""
    return {
        name: vars(membership(sigma, h, tol=tol, eq_tol=10.0 * tol, c3_tol=10.0 * tol))
        for name, h in sorted(candidates.items())
    }


def _analyze_payload(sigma, tol, grid) -> dict:
    minimality = is_minimal(sigma)
    passivity = is_passive(sigma, tol=tol)
    margin = schur_class_margin(sigma, grid_steps=48, radius=0.999)
    out = {
        "minimality": minimality,
        "passivity": passivity,
        "schur_margin": {"value": margin, "radius": 0.999, "grid_steps": 48},
    }
    try:
        profile = circle_profile(sigma, grid_steps=grid)
    except err.PoleOnCircle as exc:
        out["circle"] = {"error": "PoleOnCircle", "angle": exc.angle}
        out["uniqueness"] = {"skipped": "transfer function has a pole on the circle"}
        return out
    inner_tol = 10.0 * tol
    out["circle"] = {
        "grid_steps": grid,
        "max_defect_right": profile.max_defect_right,
        "max_defect_left": profile.max_defect_left,
        "inner": is_inner(profile, inner_tol),
        "coinner": is_coinner(profile, inner_tol),
    }
    if minimality.minimal:
        out["uniqueness"] = uniqueness_certificate(sigma, profile, tol=inner_tol)
    else:
        out["uniqueness"] = {"skipped": "system is not minimal"}
    return out


def _solution_set_payload(solution_set) -> dict:
    payload = {
        "members": np.array([m.matrix for m in solution_set.members], dtype=complex),
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
        "duality": _duality(sigma, config, (h_min, h_max), re_set),
    }


def _load_inputs(path: str, sigma) -> tuple[np.ndarray, np.ndarray]:
    raw = _load_json(path, "input")
    if not isinstance(raw, dict) or "inputs" not in raw:
        raise err.ParseError(f"{path}: expected an object with an 'inputs' field")
    inputs = _decode_matrix(raw["inputs"], "inputs")
    if "x0" in raw:
        return _decode_matrix([raw["x0"]], "x0")[0], inputs
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
    if args.candidate:
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
    """Dispatch one command against a parsed document and return the report."""
    sigma = doc.realization()
    config = SolverConfig(seed=args.seed, membership_tol=args.tol)
    report: dict = {
        "name": doc.name,
        "command": command,
        "config": {
            "tol": args.tol,
            "grid": args.grid,
            "seed": args.seed,
            "eq_tol": 10.0 * args.tol,
            "c3_tol": 10.0 * args.tol,
        },
    }
    if command in ("solve-re", "extremes", "report"):
        report["config"]["solver"] = config
    timings: dict[str, float] = {}

    def timed(key: str, fn):
        start = time.perf_counter()
        value = fn()
        timings[key] = time.perf_counter() - start
        return value

    if command == "analyze":
        report["analyze"] = timed(
            "analyze", lambda: _analyze_payload(sigma, args.tol, args.grid)
        )
    elif command == "check":
        if not args.candidate:
            raise err.ParseError("check requires --candidate <name>")
        h = _candidate_matrix(doc, args.candidate)
        report["check"] = timed(
            "check",
            lambda: {
                "candidate": args.candidate,
                **_checks_payload(sigma, {args.candidate: h}, args.tol)[args.candidate],
            },
        )
    elif command == "solve-re":
        report["solve_re"] = _solution_set_payload(
            timed("solve_re", lambda: solve_re(sigma, config))
        )
    elif command == "extremes":
        report["extremes"] = timed(
            "extremes", lambda: _extremes_payload(sigma, config)
        )
    elif command == "simulate":
        report["simulate"] = timed(
            "simulate", lambda: _simulate_payload(sigma, doc, args)
        )
    elif command == "report":
        report["analyze"] = timed(
            "analyze", lambda: _analyze_payload(sigma, args.tol, args.grid)
        )
        re_set = timed("solve_re", lambda: solve_re(sigma, config))
        report["solve_re"] = _solution_set_payload(re_set)
        # the duality check reuses this section's equality set
        report["extremes"] = timed(
            "extremes", lambda: _extremes_payload(sigma, config, re_set)
        )
        if doc.candidates:
            report["check"] = timed(
                "check", lambda: _checks_payload(sigma, doc.candidates, args.tol)
            )
        if args.inputs:
            report["simulate"] = timed(
                "simulate", lambda: _simulate_payload(sigma, doc, args)
            )
    else:  # pragma: no cover - argparse restricts choices
        raise err.ParseError(f"unknown command {command!r}")

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
        default=1e-9,
        help="base membership tolerance; derived tolerances scale with it",
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

_INDENT = "  "
_encode_string = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_default(obj):
    """The ``default`` of ``json.dumps``: the report encodings of :func:`_dumps`."""
    if isinstance(obj, np.ndarray):
        return (_pairs_array(obj) if np.iscomplexobj(obj) else obj).tolist()
    if is_dataclass(obj):
        return vars(obj)
    if isinstance(obj, Enum):
        return obj.value
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=256)
def _array_template(shape: tuple[int, ...], level: int) -> str:
    """The text of a float array of ``shape`` opened at indent ``level``,
    laid out as ``json.dumps(indent=2)`` lays out its nested lists, with one
    ``%s`` per entry in C order."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    pad = "\n" + _INDENT * (level + 1)
    item = _array_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + _INDENT * level + "]"


def _dumps(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, for
    ``obj`` opened at indent ``level``, with the report encodings: a
    complex128 array as its [re, im] pairs (:func:`_pairs_array`), a
    dataclass instance as the object of its fields, an ``Enum`` as its
    value, and other numpy arrays as their nested lists.

    The stdlib encoder writes an indented document in pure Python, one
    generator step per token. Here types are tested in the order
    ``json.dumps`` tests them, each float64 array is written from a
    separator template cached per (shape, indent) with one
    ``float.__repr__`` per entry, string items are written in place, and
    the three encodings are tested last, so the other nodes pay nothing for
    them. What this does not cover (empty containers, keys that are not
    strings, other types) is written by ``json.dumps`` itself, with the
    encodings as its ``default`` (:func:`_json_default`), and indented to
    its place."""
    if isinstance(obj, str):
        return _encode_string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if type(obj) is np.ndarray and obj.dtype == np.float64:
        text = float.__repr__ if np.isfinite(obj).all() else _float_text
        return _array_template(obj.shape, level) % tuple(map(text, obj.ravel().tolist()))
    pad = "\n" + _INDENT * (level + 1)
    end = "\n" + _INDENT * level
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + pad + ("," + pad).join(
            _encode_string(item) if type(item) is str else _dumps(item, level + 1)
            for item in obj
        ) + end + "]"
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        return "{" + pad + ("," + pad).join(
            _encode_string(key) + ": " + (
                _encode_string(value) if type(value) is str else _dumps(value, level + 1)
            )
            for key, value in sorted(obj.items())
        ) + end + "}"
    if type(obj) is np.ndarray and obj.dtype == np.complex128:
        return _dumps(_pairs_array(obj), level)
    if is_dataclass(obj):
        return _dumps(vars(obj), level)
    if isinstance(obj, Enum):
        return _dumps(obj.value, level)
    # empty containers, other keys and types, other arrays
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    return text.replace("\n", "\n" + _INDENT * level)


def _emit(payload: dict, out_path: str | None) -> None:
    text = _dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a tolerance of inf or nan passes every membership test, and a
        # grid without steps samples no point of the circle
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise err.ParseError(f"--tol must be finite and positive, got {args.tol!r}")
        if args.grid < 1:
            raise err.ParseError(f"--grid must be at least 1, got {args.grid}")
        if args.seed < 0:  # the sampler's generator takes no negative seed
            raise err.ParseError(f"--seed must be non-negative, got {args.seed}")
        doc = parse_system(args.system)
        report = run(args.command, doc, args)
    except (err.RiccatiKypError, ValueError) as exc:
        code = EXIT_CODES.get(type(exc), GENERIC_ERROR_EXIT)
        error = {"category": type(exc).__name__, "exit_code": code, "message": str(exc)}
        _emit({"error": error}, args.out)
        return code
    _emit(report, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
